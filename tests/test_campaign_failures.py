"""Failure-domain tests for the campaign engine.

Covers the fault-isolation contract of ``run_campaign``:

* a poisoned (always-failing) unit is retried with backoff, then
  quarantined via its persisted failure record, while every healthy
  unit still completes — on every store backend, serial and pooled;
* two racing pools share one retry budget through the store: the
  poisoned unit executes exactly ``retries + 1`` times *total*;
* a unit that SIGKILLs its worker takes the executor down; the pool
  respawns it, requeues the in-flight units (charging one attempt), and
  the finished campaign is byte-identical to a fault-free serial run;
* a unit that always kills its worker exhausts its budget through
  ``WorkerCrashError`` charges and quarantines, and with units queued
  ahead in the executor each crash charges at most one unit per
  worker (the rest never started and are requeued uncharged);
* units submitted ahead keep their leases while they wait in the
  executor's queue, so a racing pool never steals and re-runs them;
* pool workers never receive the store (a handle that refuses to
  pickle still runs a pooled campaign), and a lease refresh that fails
  is reported, not raised;
* ``max_failures=0`` is strict fail-fast (the original exception
  propagates); ``max_failures=N`` aborts with ``TooManyFailuresError``
  once more than N units are quarantined;
* SIGTERM mid-campaign releases every held lease, prints a takeover
  summary, restores the previous handler and exits via
  ``KeyboardInterrupt``;
* failures emit ``unit.error`` / ``unit.retry`` / ``unit.quarantine``
  trace events (serial path included) that ``tools/check_trace.py``
  validates;
* the CLI surface: exit code 1 on a failed run, failed/quarantined
  counts in ``campaign status`` (text and ``--json``),
  ``campaign retry-failed`` resetting the budget, and ``aggregate``
  warning about skipped cells.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignSpec,
    TooManyFailuresError,
    UnitSpec,
    freeze_params,
    open_store,
    run_campaign,
)
from repro.campaigns.pool import register_unit_runner
from repro.campaigns.store import SqliteStore
from repro.cli import main
from repro.experiments.runner import campaign_for, run_experiment
from repro.obs.trace import read_trace_dir, read_trace_file, summarize_trace

REPO = Path(__file__).resolve().parent.parent

LOCAL_BACKENDS = ("jsonl", "sqlite", "shared")


@register_unit_runner("ok-unit")
def _run_ok(spec):
    return {"value": spec.replication}


@register_unit_runner("poison-unit")
def _run_poison(spec):
    log = spec.param("log", None)
    if log:
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(spec.unit_hash + "\n")
    raise ValueError(f"poisoned unit r{spec.replication}")


@register_unit_runner("kill-worker-once")
def _run_kill_worker_once(spec):
    """SIGKILL the worker on the first attempt, succeed afterwards."""
    log = spec.param("log")
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(spec.unit_hash + "\n")
    with open(log, encoding="utf-8") as handle:
        attempt = sum(1 for line in handle if line.strip() == spec.unit_hash)
    if attempt <= 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": spec.replication}


@register_unit_runner("kill-worker-always")
def _run_kill_worker_always(spec):
    os.kill(os.getpid(), signal.SIGKILL)


@register_unit_runner("logged-sleep")
def _run_logged_sleep(spec):
    """Log the attempt, then sleep ``sleep_s`` (0 by default)."""
    with open(spec.param("log"), "a", encoding="utf-8") as handle:
        handle.write(spec.unit_hash + "\n")
    time.sleep(float(spec.param("sleep_s", 0.0)))
    return {"value": spec.replication}


@register_unit_runner("sigterm-self")
def _run_sigterm_self(spec):
    """Deliver SIGTERM to the pool's own process on one replication.

    Models an orchestrator (systemd, slurm, ^C) terminating the pool
    mid-campaign, at a deterministic point: the handler installed by
    ``run_campaign`` turns the signal into ``KeyboardInterrupt`` right
    here, mid-execute.
    """
    if spec.replication == int(spec.param("fire_on", -1)):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5)  # the signal interrupts this sleep
    return {"value": spec.replication}


def _unit(kind, replication, **params):
    return UnitSpec(
        experiment="failures",
        kind=kind,
        algorithm="DB",
        dims=(4, 4, 4),
        length_flits=8,
        seed=0,
        replication=replication,
        params=freeze_params(**params),
    )


def mixed_campaign(log_path, n_healthy=6, n_poison=1):
    """``n_poison`` always-failing units among ``n_healthy`` good ones."""
    units = [
        _unit("poison-unit", i, log=str(log_path)) for i in range(n_poison)
    ]
    units += [_unit("ok-unit", n_poison + i) for i in range(n_healthy)]
    return CampaignSpec(name="failures", seed=0, units=tuple(units))


def poison_hashes(spec):
    return [u.unit_hash for u in spec.units if u.kind == "poison-unit"]


# ------------------------------------------------------- fault isolation
@pytest.mark.parametrize("backend", LOCAL_BACKENDS)
@pytest.mark.parametrize("workers", [1, 4])
def test_poison_unit_quarantined_healthy_units_complete(
    backend, workers, tmp_path
):
    log = tmp_path / "attempts.log"
    spec = mixed_campaign(log, n_healthy=6)
    store = open_store(tmp_path / f"poison-{backend}", backend)
    records = run_campaign(
        spec,
        workers=workers,
        store=store,
        retries=1,
        retry_backoff_s=0.01,
    )
    (poison_hash,) = poison_hashes(spec)

    # Records come back in declaration order, the failure in place.
    assert [r.unit_hash for r in records] == list(spec.unit_hashes())
    by_hash = {r.unit_hash: r for r in records}
    assert by_hash[poison_hash].failed
    assert by_hash[poison_hash].attempts == 2  # retries + 1
    assert by_hash[poison_hash].result["error"] == "ValueError"
    assert sum(1 for r in records if r.ok) == 6

    # Exactly retries+1 executions, no more.
    assert log.read_text().split().count(poison_hash) == 2

    # The quarantine is persisted: visible to any racing pool, but the
    # unit is not "complete".
    assert store.get(poison_hash).failed
    assert poison_hash not in store.completed_hashes()


def test_resumed_run_skips_quarantined_unit(tmp_path):
    log = tmp_path / "attempts.log"
    spec = mixed_campaign(log, n_healthy=3)
    store = open_store(tmp_path / "resume.jsonl", "jsonl")
    run_campaign(spec, store=store, retries=1, retry_backoff_s=0.01)
    executions = len(log.read_text().split())

    # Same budget: the stored ledger is exhausted, so the poisoned unit
    # is quarantined at triage without executing again.
    records = run_campaign(spec, store=store, retries=1, retry_backoff_s=0.01)
    assert len(log.read_text().split()) == executions
    assert sum(1 for r in records if r.failed) == 1

    # A *larger* budget grants the difference: 2 attempts stored,
    # retries=3 allows 4, so it runs twice more.
    run_campaign(spec, store=store, retries=3, retry_backoff_s=0.01)
    assert len(log.read_text().split()) == executions + 2


def test_racing_pools_share_one_retry_budget(tmp_path):
    log = tmp_path / "attempts.log"
    spec = mixed_campaign(log, n_healthy=8)
    path = tmp_path / "race.sqlite"
    results = [None, None]

    def drain(idx):
        results[idx] = run_campaign(
            spec,
            store=open_store(path, "sqlite"),
            retries=2,
            retry_backoff_s=0.01,
            poll_interval_s=0.01,
        )

    threads = [
        threading.Thread(target=drain, args=(idx,)) for idx in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert all(r is not None for r in results)

    # The attempt ledger travels through the store under the lease, so
    # the two pools burn ONE budget: exactly retries+1 executions total.
    (poison_hash,) = poison_hashes(spec)
    assert log.read_text().split().count(poison_hash) == 3
    for records in results:
        by_hash = {r.unit_hash: r for r in records}
        assert by_hash[poison_hash].failed
        assert sum(1 for r in records if r.ok) == 8


# ------------------------------------------------------- worker crashes
def test_worker_sigkill_respawns_pool_and_result_is_byte_identical(
    tmp_path,
):
    log = tmp_path / "attempts.log"
    units = [_unit("kill-worker-once", 0, log=str(log))]
    units += [_unit("ok-unit", 1 + i) for i in range(7)]
    spec = CampaignSpec(name="crashy", seed=0, units=tuple(units))

    lines = []
    records = run_campaign(
        spec,
        workers=2,
        store=open_store(tmp_path / "crash.jsonl", "jsonl"),
        progress=lines.append,
        retries=2,
        retry_backoff_s=0.01,
    )
    assert all(r.ok for r in records)
    assert any("respawned" in line for line in lines)

    # Fault-free serial baseline on the same spec (the pre-populated
    # log keeps the killer from killing again): byte-identical records.
    baseline = run_campaign(spec, store=open_store(tmp_path / "b.jsonl"))
    assert records == baseline


def test_unit_that_always_kills_its_worker_is_quarantined(tmp_path):
    units = [_unit("kill-worker-always", 0)]
    units += [_unit("ok-unit", 1 + i) for i in range(6)]
    spec = CampaignSpec(name="killer", seed=0, units=tuple(units))

    records = run_campaign(
        spec,
        workers=2,
        store=open_store(tmp_path / "killer.jsonl", "jsonl"),
        retries=3,
        retry_backoff_s=0.01,
    )
    killer = records[0]
    assert killer.failed
    assert killer.result["error"] == "WorkerCrashError"
    assert killer.attempts == 4  # every crash charged one attempt
    assert sum(1 for r in records if r.ok) == 6


def test_pool_crash_charges_at_most_one_unit_per_worker(tmp_path):
    # The pool keeps 2 × workers units submitted, so a crash fails
    # futures that never started; only the oldest `workers` of them
    # can have been running, and only those may be charged.
    workers, retries = 2, 3
    units = [_unit("kill-worker-always", 0)]
    units += [_unit("ok-unit", 1 + i) for i in range(5 * workers)]
    spec = CampaignSpec(name="killer-window", seed=0, units=tuple(units))
    trace_dir = tmp_path / "spool"

    records = run_campaign(
        spec,
        workers=workers,
        store=open_store(tmp_path / "killer.sqlite", "sqlite"),
        retries=retries,
        retry_backoff_s=0.01,
        trace_dir=trace_dir,
    )
    killer = records[0]
    assert killer.failed
    assert killer.result["error"] == "WorkerCrashError"
    assert killer.attempts == retries + 1
    assert all(r.ok for r in records[1:])

    # The pool's own spool, in write order: each respawn event is
    # followed by the unit.error charges it made.
    (pool_spool,) = trace_dir.glob("pool-*.jsonl")
    charges = []
    for record in read_trace_file(pool_spool):
        if record.get("type") != "event":
            continue
        if record["name"] == "pool.respawn":
            charges.append(0)
        elif record["name"] == "unit.error":
            assert record["args"]["error"].startswith("WorkerCrashError")
            charges[-1] += 1
    assert len(charges) == retries + 1  # every killer attempt crashed
    assert all(1 <= charged <= workers for charged in charges), charges


#: Run by the lease-lapse test in a fresh interpreter: one 2-worker pool
#: on the campaign below, with a 0.3 s lease TTL.
_LAPSE_POOL = """
import sys
sys.path.insert(0, sys.argv[1])
from test_campaign_failures import lapse_campaign
from repro.campaigns import open_store, run_campaign
run_campaign(
    lapse_campaign(sys.argv[2]), workers=2,
    store=open_store(sys.argv[3], "sqlite"),
    lease_ttl_s=0.3, poll_interval_s=0.01,
)
"""


def lapse_campaign(log):
    """Two ~1 s units declared (so dispatched) ahead of six quick ones."""
    units = [
        _unit("logged-sleep", i, log=str(log), sleep_s=1.0) for i in range(2)
    ]
    units += [_unit("logged-sleep", 2 + i, log=str(log)) for i in range(6)]
    return CampaignSpec(name="lapse", seed=0, units=tuple(units))


def test_queued_leases_never_lapse_under_a_racing_pool(tmp_path):
    # Pool A fills its window: both workers sleep ~1 s while two quick
    # units wait in its executor, ~3 TTLs.  Pool B then races it on the
    # same store.  Without A refreshing the queued leases they lapse,
    # and B steals and runs the quick units a second time.
    log = tmp_path / "attempts.log"
    log.touch()
    path = tmp_path / "lapse.sqlite"
    spec = lapse_campaign(log)
    observer = open_store(path, "sqlite")
    observer.records()  # creates the schema before the pools race
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(REPO / "src")]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ),
    )
    argv = [
        sys.executable, "-c", _LAPSE_POOL,
        str(REPO / "tests"), str(log), str(path),
    ]
    sleepers = set(spec.unit_hashes()[:2])
    seen_leased, lapsed = set(), set()
    pools = [subprocess.Popen(argv, env=env)]
    try:
        deadline = time.monotonic() + 60.0
        while any(p.poll() is None for p in pools):
            assert time.monotonic() < deadline, "pools did not finish"
            leased = observer.leased_hashes()
            landed = observer.records()
            # Landing stores the record with (or before) dropping the
            # lease, and `landed` is read after `leased`: a unit seen
            # leased once must stay leased until its record shows.
            lapsed.update(seen_leased - leased - set(landed))
            seen_leased |= leased
            if len(pools) == 1 and sleepers <= set(log.read_text().split()):
                pools.append(subprocess.Popen(argv, env=env))
            time.sleep(0.005)
    finally:
        for pool in pools:
            if pool.poll() is None:
                pool.kill()
            pool.wait()
    assert [pool.returncode for pool in pools] == [0, 0]
    assert not lapsed
    attempts = log.read_text().split()
    assert sorted(attempts) == sorted(spec.unit_hashes())
    assert observer.completed_hashes() == set(spec.unit_hashes())
    assert observer.leased_hashes() == set()


# ------------------------------------------------------ store-free workers
def test_pooled_workers_never_receive_the_store(tmp_path, monkeypatch):
    # Every store op of a campaign runs in the coordinating process, so
    # a store handle that cannot be pickled still runs a pooled campaign.
    def refuse(self):
        raise TypeError("store handles must not reach pool workers")

    monkeypatch.setattr(SqliteStore, "__getstate__", refuse)
    units = tuple(_unit("ok-unit", i) for i in range(6))
    spec = CampaignSpec(name="storefree", seed=0, units=units)
    store = open_store(tmp_path / "storefree.sqlite", "sqlite")
    records = run_campaign(
        spec, workers=2, store=store, retries=0, retry_backoff_s=0.01
    )
    assert [r.status for r in records] == ["ok"] * len(units)
    assert store.completed_hashes() == set(spec.unit_hashes())
    assert store.leased_hashes() == set()


class RefreshFailingStore(SqliteStore):
    """A sqlite store whose lease refreshes (repeat claims) all raise."""

    def __init__(self, path):
        super().__init__(path)
        self.claimed = set()

    def try_claim(self, unit_hash, owner, ttl_s):
        if (unit_hash, owner) in self.claimed:
            raise OSError("refresh rejected")
        self.claimed.add((unit_hash, owner))
        return super().try_claim(unit_hash, owner, ttl_s=ttl_s)


def test_failed_pooled_refresh_warns_and_the_campaign_completes(tmp_path):
    # Refreshing is best-effort: a failed refresh is reported as a
    # heartbeat.error event and a RuntimeWarning, never raised.
    log = tmp_path / "attempts.log"
    units = tuple(
        _unit("logged-sleep", i, log=str(log), sleep_s=0.3) for i in range(4)
    )
    spec = CampaignSpec(name="refresh", seed=0, units=units)
    trace_dir = tmp_path / "spool"
    with pytest.warns(RuntimeWarning, match="lease heartbeat .* failed"):
        records = run_campaign(
            spec,
            workers=2,
            store=RefreshFailingStore(tmp_path / "refresh.sqlite"),
            lease_ttl_s=0.3,
            trace_dir=trace_dir,
        )
    assert [r.status for r in records] == ["ok"] * len(units)
    assert sorted(log.read_text().split()) == sorted(spec.unit_hashes())
    errors = [
        r for r in read_trace_dir(trace_dir)
        if r.get("type") == "event" and r["name"] == "heartbeat.error"
    ]
    assert errors
    assert all("refresh rejected" in e["args"]["error"] for e in errors)


# ------------------------------------------------------ failure budgets
def test_max_failures_zero_is_strict_fail_fast(tmp_path):
    spec = mixed_campaign(tmp_path / "ff.log", n_healthy=2)
    with pytest.raises(ValueError, match="poisoned unit"):
        run_campaign(
            spec,
            store=open_store(tmp_path / "ff.jsonl", "jsonl"),
            max_failures=0,
        )


def test_too_many_failures_aborts_the_run(tmp_path):
    spec = mixed_campaign(tmp_path / "many.log", n_healthy=2, n_poison=2)
    with pytest.raises(TooManyFailuresError):
        run_campaign(
            spec,
            store=open_store(tmp_path / "many.jsonl", "jsonl"),
            retries=0,
            max_failures=1,
            retry_backoff_s=0.01,
        )


def test_budget_validation():
    spec = mixed_campaign("unused.log", n_healthy=1, n_poison=0)
    with pytest.raises(ValueError):
        run_campaign(spec, retries=-1)
    with pytest.raises(ValueError):
        run_campaign(spec, max_failures=-2)


# ---------------------------------------------------- graceful shutdown
def test_sigterm_releases_leases_and_prints_takeover_summary(tmp_path):
    units = tuple(_unit("sigterm-self", i, fire_on=3) for i in range(20))
    spec = CampaignSpec(name="draining", seed=0, units=units)
    store = open_store(tmp_path / "drain.sqlite", "sqlite")
    lines = []
    previous = signal.getsignal(signal.SIGTERM)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            spec, store=store, progress=lines.append, poll_interval_s=0.01
        )

    # The previous handler is back, every held lease was released, and
    # the one-line summary tells the operator a peer can take over.
    assert signal.getsignal(signal.SIGTERM) == previous
    assert store.leased_hashes() == set()
    assert any(
        "interrupted" in line and "peer pool" in line for line in lines
    )
    # Progress persisted: units 0-2 landed before the signal, so a
    # resumed run has strictly less left to do.
    assert len(store.completed_hashes()) == 3


# ------------------------------------------------------------ telemetry
def test_serial_failures_emit_validated_trace_events(tmp_path):
    spec = mixed_campaign(tmp_path / "tr.log", n_healthy=2)
    trace_dir = tmp_path / "spool"
    run_campaign(
        spec,
        store=open_store(tmp_path / "tr.jsonl", "jsonl"),
        trace_dir=trace_dir,
        retries=1,
        retry_backoff_s=0.01,
    )
    failures = summarize_trace(read_trace_dir(trace_dir))["failures"]
    assert failures["unit.error"] == 2
    assert failures["unit.retry"] == 1
    assert failures["unit.quarantine"] == 1

    check = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_trace.py"),
         str(trace_dir)],
        capture_output=True,
        text=True,
    )
    assert check.returncode == 0, check.stdout + check.stderr
    assert "2 error(s) (1 retried, 1 quarantined" in check.stdout


# -------------------------------------------------------------- the CLI
@pytest.fixture
def fast_broadcast(monkeypatch):
    """Replace the real broadcast runner with an instant fake.

    Imports the built-in runners first so the real registration exists,
    then overrides it for the duration of the test — the CLI tests here
    exercise the failure plumbing, not the simulator.
    """
    import repro.campaigns.units  # noqa: F401  (registers built-ins)
    from repro.campaigns import pool as pool_mod

    monkeypatch.setitem(
        pool_mod._UNIT_RUNNERS,
        "broadcast",
        lambda spec: {
            "network_latency": 1.0,
            "mean_latency": 1.0,
            "cv": 0.1,
            "barrier_cv": 0.1,
            "delivered": 64,
            "source": [0, 0, 0],
        },
    )


def test_cli_failure_flow_run_status_retry(
    tmp_path, capsys, monkeypatch, fast_broadcast
):
    store = str(tmp_path / "cli.jsonl")
    spec = campaign_for("fig1", "smoke", 0)
    poison_hash = spec.units[0].unit_hash
    monkeypatch.setenv("REPRO_FAIL_UNITS", poison_hash)

    # run: healthy units complete, the poisoned one quarantines, exit 1.
    rc = main([
        "campaign", "run", "fig1", "--scale", "smoke",
        "--retries", "1", "--store", store,
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "quarantined" in captured.out
    assert "skipping failed cell" in captured.err
    assert "retry-failed" in captured.err

    # aggregate: partial table plus an explicit warning, exit 1.
    rc = main([
        "campaign", "aggregate", "fig1", "--scale", "smoke",
        "--store", store,
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "skipping failed cell" in captured.err

    # status (text): failed/quarantined counts plus the reason line.
    rc = main([
        "campaign", "status", "fig1", "--scale", "smoke",
        "--retries", "1", "--store", store,
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "1 failed (1 quarantined)" in captured.out
    assert "injected failure" in captured.out

    # status classifies against the *given* budget: with --retries 3
    # the 2 stored attempts are not exhausted yet.
    rc = main([
        "campaign", "status", "fig1", "--scale", "smoke",
        "--retries", "3", "--store", store,
    ])
    assert "1 failed (0 quarantined)" in capsys.readouterr().out

    # status --json: machine-readable failure details.
    rc = main([
        "campaign", "status", "fig1", "--scale", "smoke",
        "--retries", "1", "--store", store, "--json",
    ])
    doc = json.loads(capsys.readouterr().out)[0]
    assert doc["failed"] == 1 and doc["quarantined"] == 1
    assert doc["completed"] == doc["total"] - 1
    (failed_unit,) = [u for u in doc["units"] if u["state"] == "failed"]
    assert failed_unit["failure"]["error"] == "InjectedFailureError"
    assert failed_unit["failure"]["attempts"] == 2
    assert failed_unit["failure"]["quarantined"] is True

    # retry-failed resets the budget; a clean re-run then completes.
    rc = main([
        "campaign", "retry-failed", "fig1", "--scale", "smoke",
        "--store", store,
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "reset 1 of 1 failed record(s)" in captured.out

    monkeypatch.delenv("REPRO_FAIL_UNITS")
    rc = main([
        "campaign", "run", "fig1", "--scale", "smoke",
        "--retries", "1", "--store", store,
    ])
    capsys.readouterr()
    assert rc == 0
    rc = main([
        "campaign", "status", "fig1", "--scale", "smoke", "--store", store,
    ])
    status = capsys.readouterr().out
    assert rc == 0
    assert "32/32 units complete" in status
    assert "failed" not in status


def test_run_experiment_warns_on_failed_cells(monkeypatch, fast_broadcast):
    spec = campaign_for("fig1", "smoke", 0)
    monkeypatch.setenv("REPRO_FAIL_UNITS", spec.units[0].unit_hash)
    with pytest.warns(RuntimeWarning, match="skipping failed cell"):
        rows, text = run_experiment("fig1", "smoke", 0, retries=0)
    assert rows and text
