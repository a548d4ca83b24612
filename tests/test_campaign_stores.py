"""Tests for the pluggable store backends and dispatch ordering.

Covers backend parity (identical records and aggregates across
jsonl/sqlite/shared-dir), two concurrent pools draining one campaign
with no unit executed twice, dispatch-order determinism, the
cross-scale cache, and the backend-aware CLI surface.

The per-backend `CampaignStore` contract itself (claim exclusivity,
refresh, stale/dead-owner steal, append-then-release visibility, ...)
lives in the backend-agnostic suite in ``store_contract.py``, run
against all four backends — including http — by
``test_store_conformance.py``.
"""

import gc
import json
import os
import pickle
import sys
import threading
import time

import pytest

import repro.campaigns.store as store_module

from repro.campaigns import (
    BACKENDS,
    CampaignSpec,
    JsonlStore,
    ResultStore,
    SharedDirStore,
    SqliteStore,
    UnitSpec,
    aggregate,
    default_store_path,
    estimate_unit_cost,
    freeze_params,
    open_store,
    order_units,
    run_campaign,
)
from repro.campaigns.pool import register_unit_runner
from repro.campaigns.store import UnitRecord
from repro.cli import main
from repro.experiments.common import broadcast_units
from repro.obs.trace import read_trace_dir

ALL_BACKENDS = sorted(BACKENDS)


def small_campaign(seed=0):
    units = broadcast_units(
        "fig1", [(4, 4, 4)], ["RD", "DB"], 64, "smoke", seed=seed
    )
    return CampaignSpec(name=f"small-s{seed}", seed=seed, units=tuple(units))


def make_store(backend, tmp_path, name="c"):
    return open_store(default_store_path(name, backend, tmp_path), backend)


# -------------------------------------------------------------- factory
def test_open_store_infers_backend_from_path(tmp_path):
    assert isinstance(open_store(tmp_path / "a.jsonl"), JsonlStore)
    assert isinstance(open_store(tmp_path / "a.sqlite"), SqliteStore)
    assert isinstance(open_store(tmp_path / "a.db"), SqliteStore)
    assert isinstance(open_store(tmp_path / "a-dir"), SharedDirStore)
    (tmp_path / "existing").mkdir()
    assert isinstance(open_store(tmp_path / "existing"), SharedDirStore)
    # explicit backend always wins over the suffix
    assert isinstance(open_store(tmp_path / "a.jsonl", "sqlite"), SqliteStore)


def test_open_store_rejects_unknown_backend(tmp_path):
    with pytest.raises(ValueError):
        open_store(tmp_path / "x", "redis")
    with pytest.raises(ValueError):
        default_store_path("c", "redis", tmp_path)


def test_sqlite_migrates_pre_status_schema(tmp_path):
    """A database created before failure records existed (no status
    column) migrates in place on first open: old rows read back as ok
    records and failure records land cleanly alongside them."""
    import json
    import sqlite3

    from repro.campaigns.store import STATUS_FAILED, UnitRecord

    path = tmp_path / "old.sqlite"
    con = sqlite3.connect(path)
    con.execute(
        "CREATE TABLE records ("
        " unit_hash TEXT PRIMARY KEY, experiment TEXT NOT NULL,"
        " spec TEXT NOT NULL, result TEXT NOT NULL,"
        " elapsed_s REAL NOT NULL DEFAULT 0.0)"
    )
    con.execute(
        "CREATE TABLE leases ("
        " unit_hash TEXT PRIMARY KEY, owner TEXT NOT NULL,"
        " expires_at REAL NOT NULL)"
    )
    con.execute(
        "INSERT INTO records VALUES (?, ?, ?, ?, ?)",
        (
            "a" * 16,
            "fig1",
            json.dumps({"algorithm": "DB"}),
            json.dumps({"network_latency": 1.0}),
            0.5,
        ),
    )
    con.commit()
    con.close()

    store = SqliteStore(path)
    old = store.get("a" * 16)
    assert old is not None and old.ok
    assert old.result == {"network_latency": 1.0}
    assert store.completed_hashes() == {"a" * 16}

    failure = UnitRecord(
        unit_hash="b" * 16,
        experiment="fig1",
        spec={"algorithm": "RD"},
        result={
            "error": "ValueError",
            "message": "boom",
            "traceback_digest": "",
            "attempts": 3,
            "owner": "",
        },
        status=STATUS_FAILED,
    )
    store.append(failure)
    assert store.get("b" * 16).failed
    assert store.completed_hashes() == {"a" * 16}
    # A second handle (fresh instance, its own migration path) agrees.
    assert SqliteStore(path).records()["b" * 16].attempts == 3


def test_result_store_alias_is_jsonl():
    assert ResultStore is JsonlStore


# --------------------------------------------------------------- parity
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_backend_round_trip(backend, tmp_path):
    spec = small_campaign()
    store = make_store(backend, tmp_path)
    first = run_campaign(spec, store=store)
    assert store.completed_hashes() == set(spec.unit_hashes())
    # records() round-trips every field through the backend's storage
    assert [store.records()[h] for h in spec.unit_hashes()] == first
    # a resumed run recomputes nothing
    lines = []
    second = run_campaign(spec, store=store, progress=lines.append)
    assert second == first
    assert f"({len(spec)} cached, 0 to run" in lines[0]


def test_backends_produce_identical_records_and_aggregates(tmp_path):
    spec = small_campaign()
    records = {
        backend: run_campaign(spec, store=make_store(backend, tmp_path))
        for backend in ALL_BACKENDS
    }
    baseline = records[ALL_BACKENDS[0]]
    for backend in ALL_BACKENDS[1:]:
        assert records[backend] == baseline
    rows = {
        backend: aggregate("fig1", recs) for backend, recs in records.items()
    }
    baseline_rows = rows[ALL_BACKENDS[0]]
    for backend in ALL_BACKENDS[1:]:
        assert rows[backend] == baseline_rows


# --------------------------------------------------------------- leases
# Counting runner for the contention test: records every execution in
# an append-only log so a double execution is observable.
@register_unit_runner("counted")
def _run_counted_unit(spec):
    with open(spec.param("log"), "a", encoding="utf-8") as handle:
        handle.write(spec.unit_hash + "\n")
    time.sleep(0.005)  # widen the contention window
    return {"replication": spec.replication}


def counting_campaign(log_path, n_units=12):
    units = tuple(
        UnitSpec(
            experiment="contention",
            kind="counted",
            algorithm="DB",
            dims=(4, 4, 4),
            length_flits=8,
            seed=0,
            replication=replication,
            params=freeze_params(log=str(log_path)),
        )
        for replication in range(n_units)
    )
    return CampaignSpec(name="contention", seed=0, units=units)


@pytest.mark.parametrize("backend", ["sqlite", "shared"])
def test_two_concurrent_pools_execute_each_unit_once(backend, tmp_path):
    log = tmp_path / "executions.log"
    spec = counting_campaign(log)
    results = {}

    def pool(name):
        store = make_store(backend, tmp_path)  # own handle, same store
        results[name] = run_campaign(
            spec, store=store, poll_interval_s=0.01, lease_ttl_s=60.0
        )

    threads = [
        threading.Thread(target=pool, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()

    executed = log.read_text().split()
    assert sorted(executed) == sorted(spec.unit_hashes())  # once each
    assert results["a"] == results["b"]
    assert [r.unit_hash for r in results["a"]] == spec.unit_hashes()


# --------------------------------------------------------- sqlite handle
# A handle keeps one connection per process: closing a database's last
# connection checkpoints and deletes its WAL, so a connection per call
# would rebuild the WAL on every claim, get, append and release.  The
# cost is pinned by counting connections, not by timing them.
@pytest.fixture
def sqlite_connects(monkeypatch):
    """Paths of every ``sqlite3.connect`` the store module makes."""
    opened = []
    connect = store_module.sqlite3.connect

    def counting_connect(database, *args, **kwargs):
        opened.append(database)
        return connect(database, *args, **kwargs)

    monkeypatch.setattr(store_module.sqlite3, "connect", counting_connect)
    return opened


def _record(i):
    return UnitRecord(
        unit_hash=f"h{i:05d}",
        experiment="fig1",
        spec={"replication": i},
        result={"network_latency": float(i)},
    )


def test_sqlite_handle_reuses_one_connection(tmp_path, sqlite_connects):
    store = SqliteStore(tmp_path / "c.sqlite")
    for i in range(200):
        record = _record(i)
        assert store.try_claim(record.unit_hash, "owner")
        assert store.get(record.unit_hash) is None
        store.append(record)
        store.release(record.unit_hash, "owner")
    assert len(sqlite_connects) == 1
    assert len(store.records()) == 200
    assert store.leased_hashes() == set()
    assert len(sqlite_connects) == 1
    # No call leaves a read transaction open: a peer can checkpoint the
    # whole WAL (the first column is 1 when a reader blocks it).
    peer = store_module.sqlite3.connect(store.path)
    try:
        busy = peer.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()[0]
    finally:
        peer.close()
    assert busy == 0


def test_pickled_sqlite_handle_opens_its_own_connection(
    tmp_path, sqlite_connects
):
    store = SqliteStore(tmp_path / "c.sqlite")
    store.append(_record(0))
    clone = pickle.loads(pickle.dumps(store))
    assert len(sqlite_connects) == 1
    assert clone.get("h00000") == _record(0)
    clone.append(_record(1))
    assert len(sqlite_connects) == 2
    assert store.get("h00001") == _record(1)
    assert len(sqlite_connects) == 2


def test_pooled_sqlite_run_opens_constant_connections(
    tmp_path, sqlite_connects
):
    # Pool workers are forked, so only the coordinating process's
    # connections land in this process's counter.
    spec = counting_campaign(tmp_path / "executions.log", n_units=40)
    store = SqliteStore(tmp_path / "c.sqlite")
    records = run_campaign(spec, workers=2, store=store)
    assert [r.unit_hash for r in records] == spec.unit_hashes()
    assert len(sqlite_connects) <= 2


def test_forked_child_writes_through_the_parents_handle(tmp_path):
    store = SqliteStore(tmp_path / "c.sqlite")
    store.append(_record(0))
    pid = os.fork()
    if pid == 0:  # the child: its own lock and connection
        code = 1
        try:
            store.append(_record(1))
            code = 0 if store.get("h00000") == _record(0) else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert store.get("h00001") == _record(1)
    store.append(_record(2))
    assert set(store.records()) == {"h00000", "h00001", "h00002"}
    assert set(SqliteStore(store.path).records()) == set(store.records())


def test_sqlite_handle_survives_its_file_being_deleted(tmp_path):
    path = tmp_path / "c.sqlite"
    store = SqliteStore(path)
    store.append(_record(0))
    for suffix in ("", "-wal", "-shm"):
        path.with_name(path.name + suffix).unlink(missing_ok=True)
    assert store.records() == {}
    assert store.get("h00000") is None
    store.append(_record(1))  # recreates the schema
    assert store.records() == {"h00001": _record(1)}
    assert SqliteStore(path).records() == {"h00001": _record(1)}


def test_sqlite_handle_follows_a_replaced_file(tmp_path):
    path = tmp_path / "c.sqlite"
    store = SqliteStore(path)
    for i in range(50):
        store.append(_record(i))
    other = tmp_path / "other.sqlite"
    writer = SqliteStore(other)
    writer.append(_record(99))
    del writer
    gc.collect()  # a connection sits in a reference cycle until collected
    assert not other.with_name("other.sqlite-wal").exists()  # closed
    before = os.stat(path).st_ino
    os.replace(other, path)
    assert os.stat(path).st_ino != before
    assert store.records() == {"h00099": _record(99)}
    store.append(_record(100))
    assert set(SqliteStore(path).records()) == {"h00099", "h00100"}


def test_sqlite_handle_is_shared_by_threads(tmp_path):
    store = SqliteStore(tmp_path / "c.sqlite")
    errors = []

    def work(t):
        try:
            for i in range(t * 50, t * 50 + 50):
                record = _record(i)
                assert store.try_claim(record.unit_hash, f"owner-{t}")
                store.append(record)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert set(store.records()) == {_record(i).unit_hash for i in range(400)}
    assert len(store.leased_hashes()) == 400


# ------------------------------------------------------------- schedule
def test_adaptive_order_is_deterministic_and_largest_first():
    units = broadcast_units(
        "fig1", [(4, 4, 4), (16, 16, 16), (8, 8, 8)], ["DB"], 64, "smoke", 0
    )
    ordered = order_units(units, workers=2)
    assert ordered == order_units(units, workers=2)  # deterministic
    assert sorted(ordered, key=lambda u: u.unit_hash) == sorted(
        units, key=lambda u: u.unit_hash
    )  # a permutation, nothing dropped
    costs = [estimate_unit_cost(u) for u in ordered]
    assert costs == sorted(costs, reverse=True)
    assert ordered[0].dims == (16, 16, 16)
    # ties (same cell, different replication) keep declaration order
    first_cell = [u for u in ordered if u.dims == (16, 16, 16)]
    assert [u.replication for u in first_cell] == sorted(
        u.replication for u in first_cell
    )


def test_order_units_fifo_and_unknown():
    # One worker keeps declaration order; order is no longer a knob,
    # so run_campaign rejects the old keyword outright.
    units = broadcast_units("fig1", [(4, 4, 4)], ["DB"], 64, "smoke", 0)
    assert order_units(units) == order_units(units, workers=1) == list(units)
    with pytest.raises(TypeError):
        run_campaign(small_campaign(), schedule="lifo")


def test_cost_estimate_reflects_load_length_and_barrier():
    base = UnitSpec(
        experiment="x", kind="broadcast", algorithm="DB",
        dims=(8, 8, 8), length_flits=100, seed=0,
    )
    assert estimate_unit_cost(base) < estimate_unit_cost(
        UnitSpec(
            experiment="x", kind="broadcast", algorithm="DB",
            dims=(16, 16, 8), length_flits=100, seed=0,
        )
    )
    barrier = UnitSpec(
        experiment="x", kind="broadcast", algorithm="DB",
        dims=(8, 8, 8), length_flits=100, seed=0,
        params=freeze_params(barrier=True),
    )
    assert estimate_unit_cost(barrier) == 2 * estimate_unit_cost(base)
    low = UnitSpec(
        experiment="x", kind="traffic", algorithm="DB",
        dims=(8, 8, 8), length_flits=32, seed=0, load=2.0,
    )
    high = UnitSpec(
        experiment="x", kind="traffic", algorithm="DB",
        dims=(8, 8, 8), length_flits=32, seed=0, load=8.0,
    )
    assert estimate_unit_cost(high) == 4 * estimate_unit_cost(low)


def test_schedules_produce_identical_records():
    # A pooled run dispatches in LPT order, a serial one in declaration
    # order: the records are the same.
    spec = small_campaign(seed=4)
    assert run_campaign(spec, workers=2) == run_campaign(spec)


def test_pooled_run_claims_lpt_and_serial_run_appends_in_order(tmp_path):
    units = broadcast_units(
        "fig1", [(4, 4, 4), (8, 8, 8)], ["RD", "DB"], 64, "smoke", 0
    )
    spec = CampaignSpec(name="order", seed=0, units=tuple(units))

    spool = tmp_path / "spool"
    run_campaign(
        spec, workers=2, store=SqliteStore(tmp_path / "c.sqlite"),
        trace_dir=spool,
    )
    claimed = [
        r["args"]["unit"]
        for r in read_trace_dir(spool)
        if r.get("type") == "event" and r["name"] == "lease.claim"
    ]
    lpt = [u.unit_hash for u in order_units(units, workers=2)]
    assert claimed == lpt
    assert lpt != spec.unit_hashes()  # the grid declares 8x8x8 last

    store = JsonlStore(tmp_path / "serial.jsonl")
    run_campaign(spec, store=store)
    appended = [
        json.loads(line)["unit_hash"]
        for line in store.path.read_text().splitlines()
    ]
    assert appended == spec.unit_hashes()


# ---------------------------------------------------------------- cache
def test_cross_scale_cache_reuses_overlapping_units(tmp_path):
    smoke = broadcast_units("fig1", [(4, 4, 4)], ["DB"], 64, "smoke", 0)
    quick = broadcast_units("fig1", [(4, 4, 4)], ["DB"], 64, "quick", 0)
    smoke_hashes = {u.unit_hash for u in smoke}
    quick_hashes = {u.unit_hash for u in quick}
    assert smoke_hashes < quick_hashes  # strict hash-subset across scales

    smoke_store = JsonlStore(tmp_path / "smoke.jsonl")
    run_campaign(
        CampaignSpec(name="smoke", seed=0, units=tuple(smoke)),
        store=smoke_store,
    )
    quick_spec = CampaignSpec(name="quick", seed=0, units=tuple(quick))
    quick_store = SqliteStore(tmp_path / "quick.sqlite")
    lines = []
    cached_run = run_campaign(
        quick_spec,
        store=quick_store,
        cache=[smoke_store],
        progress=lines.append,
    )
    assert f"({len(smoke)} from cache stores)" in lines[0]
    # cache hits were copied into the primary store
    assert smoke_hashes < quick_store.completed_hashes()
    assert cached_run == run_campaign(quick_spec)  # identical to fresh


# ------------------------------------------------------------------- CLI
def test_cli_backends_byte_identical_aggregates(tmp_path, capsys):
    outs = {}
    for backend in ALL_BACKENDS:
        store = str(default_store_path(f"fig1-{backend}", backend, tmp_path))
        out_file = tmp_path / f"fig1-{backend}.csv"
        assert main(
            [
                "campaign", "run", "fig1", "--scale", "smoke",
                "--workers", "2",
                "--store", store, "--store-backend", backend,
                "--out", str(out_file),
            ]
        ) == 0
        capsys.readouterr()
        outs[backend] = out_file.read_bytes()
    assert outs["jsonl"] == outs["sqlite"] == outs["shared"]


def test_cli_status_reports_leases_and_backend(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    store = SqliteStore(default_store_path("fig1-smoke-s0", "sqlite"))
    from repro.experiments import campaign_for

    spec = campaign_for("fig1", "smoke", 0)
    hashes = spec.unit_hashes()
    store.append(
        run_campaign(
            CampaignSpec(name="one", seed=0, units=spec.units[:1])
        )[0]
    )
    assert store.try_claim(hashes[1], "worker-elsewhere", ttl_s=60)

    assert main(["campaign", "status", "fig1", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "[sqlite]" in out
    assert f"1/{len(spec)} units complete" in out
    assert "1 leased (in flight)" in out
    assert f"({len(spec) - 2} pending)" in out


def test_cli_status_per_backend_totals(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["fig1", "--scale", "smoke"]
    # default layout, no stores yet: one (empty jsonl) line
    assert main(["campaign", "status"] + args) == 0
    assert "[jsonl]: 0/32" in capsys.readouterr().out
    # populate two backends in the default layout
    for backend in ("sqlite", "shared"):
        assert main(
            ["campaign", "run", "--store-backend", backend] + args
        ) == 0
    capsys.readouterr()
    assert main(["campaign", "status"] + args) == 0
    out = capsys.readouterr().out
    assert "[sqlite]: 32/32" in out
    assert "[shared]: 32/32" in out
    assert "[jsonl]" not in out  # never created on disk


def test_cli_experiment_store_backend_and_schedule(tmp_path, capsys):
    store = str(tmp_path / "fig1.sqlite")
    assert main(
        [
            "fig1", "--scale", "smoke", "--workers", "2", "--store", store,
        ]
    ) == 0
    assert "Fig. 1" in capsys.readouterr().out
    # the run persisted its units: a campaign command can aggregate them
    assert main(
        [
            "campaign", "aggregate", "fig1", "--scale", "smoke",
            "--store", store,
        ]
    ) == 0
    assert "Fig. 1" in capsys.readouterr().out
