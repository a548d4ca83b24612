"""Sharded simulation units: planning, merge determinism, heartbeats.

The contract under test (see `repro/campaigns/shards.py`):

* shard planning is a pure function of the parent spec — stable
  content-hashed shard ids, slices that conserve the retained batch
  budget;
* however the shards are executed — inline, worker pool, resumed from
  a store, split across pools — the merged parent record is byte
  identical;
* ``shards=1`` touches nothing: hashes and results are the unsharded
  protocol's;
* the lease heartbeat keeps a long unit's lease alive under a TTL far
  shorter than the unit.
"""

import json
import threading
import time

import pytest

from repro.campaigns import (
    CampaignSpec,
    SqliteStore,
    UnitSpec,
    execute_unit,
    freeze_params,
    merge_shard_records,
    planned_shards,
    run_campaign,
    shard_specs,
    unit_shards,
)
from repro.campaigns.pool import estimate_unit_cost, lease_heartbeat
from repro.campaigns.shards import (
    BROADCAST_CELL_KIND,
    BROADCAST_SHARD_KIND,
    SHARD_KIND,
    shard_batch_slices,
    shard_source_slices,
)
from repro.campaigns.store import JsonlStore
from repro.cli import main
from repro.experiments.runner import campaign_for
from repro.experiments.traffic_sweep import run_traffic_sweep, traffic_campaign


def traffic_parent(shards=4, **overrides):
    params = dict(
        broadcast_fraction=0.1,
        batch_size=8,
        num_batches=5,
        discard=1,
        max_sim_time_us=30_000.0,
        shards=shards if shards > 1 else None,
    )
    params.update(overrides.pop("params", {}))
    fields = dict(
        experiment="fig3",
        kind="traffic",
        algorithm="DB",
        dims=(4, 4, 4),
        length_flits=32,
        seed=0,
        load=2.0,
        params=freeze_params(**params),
    )
    fields.update(overrides)
    return UnitSpec(**fields)


# ------------------------------------------------------------- planning
def test_shard_slices_conserve_retained_budget():
    assert shard_batch_slices(21, 1, 4) == [5, 5, 5, 5]
    assert shard_batch_slices(21, 1, 3) == [7, 7, 6]
    assert shard_batch_slices(5, 1, 4) == [1, 1, 1, 1]
    for num_batches, discard, shards in [(21, 1, 4), (21, 1, 20), (9, 2, 3)]:
        assert sum(shard_batch_slices(num_batches, discard, shards)) == (
            num_batches - discard
        )
    with pytest.raises(ValueError, match="--shards"):
        shard_batch_slices(5, 1, 5)


def test_shard_specs_are_stable_pure_functions():
    parent = traffic_parent(shards=4)
    plan_a, plan_b = shard_specs(parent), shard_specs(parent)
    assert [s.unit_hash for s in plan_a] == [s.unit_hash for s in plan_b]
    assert len(plan_a) == 4
    for k, shard in enumerate(plan_a):
        assert shard.kind == SHARD_KIND
        assert shard.shard_index == k
        assert shard.param("shards") is None  # sibling count not hashed
        assert shard.param("num_batches") == 1 + 1  # slice + own discard
    assert len({s.unit_hash for s in plan_a}) == 4


def test_overlapping_decompositions_share_shard_hashes():
    # 21 batches split 4 ways and 11 batches split 2 ways both give
    # shards with a 5-batch retained slice — the same simulation, so
    # the same content hash (cross-decomposition store reuse).
    wide = traffic_parent(shards=4, params={"num_batches": 21})
    narrow = traffic_parent(shards=2, params={"num_batches": 11})
    wide_hashes = [s.unit_hash for s in shard_specs(wide)]
    narrow_hashes = [s.unit_hash for s in shard_specs(narrow)]
    assert wide_hashes[:2] == narrow_hashes


def test_shards_equal_one_leaves_unit_untouched():
    plain = traffic_parent(shards=1)
    assert unit_shards(plain) == 1
    assert plain.param("shards") is None  # hash identical to the seed grid
    with pytest.raises(ValueError, match="no sharding"):
        shard_specs(plain)


def test_shard_cost_estimate_is_per_shard():
    parent = traffic_parent(shards=4, params={"num_batches": 21})
    shard = shard_specs(parent)[0]
    assert estimate_unit_cost(shard) < estimate_unit_cost(parent)


# ------------------------------------------------- execution determinism
def test_sharded_execution_paths_are_byte_identical(tmp_path):
    parent = traffic_parent(shards=4)
    spec = CampaignSpec(name="shard-diff", seed=0, units=(parent,))

    inline = execute_unit(parent)  # the definition: serial shards + merge
    serial = run_campaign(spec, workers=1)[0]
    parallel = run_campaign(spec, workers=4)[0]
    assert serial.result == inline.result == parallel.result

    # resumed from a store that holds only the shard records
    # ("interrupted before the merge"): no simulation re-runs, the
    # merge is re-derived.
    store = JsonlStore(tmp_path / "mid-merge.jsonl")
    for shard in shard_specs(parent):
        store.append(execute_unit(shard))
    resumed = run_campaign(spec, workers=1, store=store)[0]
    assert resumed.result == inline.result
    merged = store.get(parent.unit_hash)
    assert merged is not None and merged.result == inline.result


def test_merge_rejects_missing_or_duplicate_shards():
    parent = traffic_parent(shards=2)
    records = [execute_unit(s) for s in shard_specs(parent)]
    merge_shard_records(parent, records)  # complete set is fine
    with pytest.raises(ValueError, match="expected 0..1"):
        merge_shard_records(parent, records[:1])
    with pytest.raises(ValueError, match="expected 0..1"):
        merge_shard_records(parent, [records[0], records[0]])


def test_quick_fig3_row_sharded_vs_serial_golden_diff():
    """The acceptance diff: one quick-scale fig3 point, --shards 4,
    parallel workers vs the serial run — byte-identical rows."""
    kwargs = dict(loads=[1.0], algorithms=["DB"], scale="quick", shards=4)
    serial = run_traffic_sweep("fig3", workers=1, **kwargs)
    parallel = run_traffic_sweep("fig3", workers=4, **kwargs)
    assert serial == parallel  # dataclass equality: every float equal
    [row] = serial
    assert row.operations > 0 and row.mean_latency_us > 0


def test_sharded_campaign_spec_declares_parents_only():
    spec = traffic_campaign("fig3", scale="smoke", shards=2, loads=[1.0, 2.0])
    assert all(u.kind == "traffic" for u in spec.units)
    assert all(unit_shards(u) == 2 for u in spec.units)
    # same grid, different shard count → different campaign identity
    other = traffic_campaign("fig3", scale="smoke", shards=1, loads=[1.0, 2.0])
    assert spec.campaign_hash != other.campaign_hash
    assert spec.name == other.name  # shares the default store location


def test_two_pools_share_one_sharded_point(tmp_path):
    """Two pools on one sqlite store split the shards; exactly one
    merged parent record, identical to the single-pool result."""
    parent = traffic_parent(shards=4)
    spec = CampaignSpec(name="two-pools", seed=0, units=(parent,))
    reference = execute_unit(parent)

    store = SqliteStore(tmp_path / "pools.sqlite")
    first = run_campaign(spec, workers=2, store=store)
    second = run_campaign(spec, workers=2, store=store)  # full resume
    assert first[0].result == second[0].result == reference.result


# ------------------------------------------------------------ heartbeats
def test_lease_heartbeat_outlives_short_ttl(tmp_path):
    store = SqliteStore(tmp_path / "leases.sqlite")
    ttl = 0.3
    assert store.try_claim("unit-a", "worker-1", ttl_s=ttl)
    with lease_heartbeat(store, "unit-a", "worker-1", ttl_s=ttl):
        time.sleep(3 * ttl)  # far beyond the TTL
        # the lease must still be live and still ours
        assert "unit-a" in store.leased_hashes()
        assert not store.try_claim("unit-a", "peer:0:deadbeef", ttl_s=ttl)
    store.release("unit-a", "worker-1")
    assert store.try_claim("unit-a", "peer:0:deadbeef", ttl_s=ttl)


def test_lease_heartbeat_noop_without_lease_support(tmp_path):
    store = JsonlStore(tmp_path / "plain.jsonl")
    with lease_heartbeat(store, "unit-a", "worker-1", ttl_s=0.1):
        time.sleep(0.05)  # nothing to assert beyond "does not blow up"


# ------------------------------------------------------------------- CLI
def test_cli_status_reports_shard_progress(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = traffic_campaign("fig3", scale="smoke", shards=2, loads=[4.0])
    [parent] = [u for u in spec.units if u.algorithm == "DB"]
    store = JsonlStore(tmp_path / "campaigns" / f"{spec.name}.jsonl")
    # land exactly one shard of the DB point
    store.append(execute_unit(shard_specs(parent)[0]))

    assert main(["campaign", "status", "fig3", "--scale", "smoke",
                 "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "1/2 shards, 1 to run" in out

    # land the second shard but not the merge → merge pending
    store.append(execute_unit(shard_specs(parent)[1]))
    assert main(["campaign", "status", "fig3", "--scale", "smoke",
                 "--shards", "2"]) == 0
    assert "2/2 shards, merge pending" in capsys.readouterr().out


# ------------------------------------------------------- broadcast cells
def broadcast_cell(sources=5, barrier=False, **overrides):
    fields = dict(
        experiment="fig1",
        kind=BROADCAST_CELL_KIND,
        algorithm="DB",
        dims=(4, 4, 4),
        length_flits=64,
        seed=0,
        params=freeze_params(
            sources_count=sources,
            startup_latency=1.5,
            barrier=barrier or None,
        ),
    )
    fields.update(overrides)
    return UnitSpec(**fields)


def test_broadcast_cell_planning_is_pure():
    cell = broadcast_cell(sources=5)
    plan_a, plan_b = shard_specs(cell, 3), shard_specs(cell, 3)
    assert [s.unit_hash for s in plan_a] == [s.unit_hash for s in plan_b]
    assert [
        (s.param("source_offset"), s.param("source_count")) for s in plan_a
    ] == [(0, 2), (2, 2), (4, 1)]
    for k, shard in enumerate(plan_a):
        assert shard.kind == BROADCAST_SHARD_KIND
        assert shard.shard_index == k
        assert shard.param("sources_count") is None
    assert shard_source_slices(5, 3) == [(0, 2), (2, 2), (4, 1)]
    assert sum(c for _, c in shard_source_slices(40, 7)) == 40
    with pytest.raises(ValueError, match="--shards"):
        shard_source_slices(2, 3)
    with pytest.raises(ValueError, match="fan-out"):
        shard_specs(cell)  # a cell has no hashed fan-out to default to


def test_broadcast_cell_hash_is_fan_out_free():
    """The fan-out is work division, not protocol: requesting 4, 5 or
    'auto' shards declares the *same* cell units, so any pool's merged
    record satisfies any other pool's campaign."""
    from repro.experiments.common import broadcast_units

    grids = [
        broadcast_units(
            "fig1", [(4, 4, 4)], ["DB"], 64, "quick", 0, shards=shards
        )
        for shards in (4, 5, "auto")
    ]
    hashes = [[u.unit_hash for u in grid] for grid in grids]
    assert hashes[0] == hashes[1] == hashes[2]
    assert all(u.kind == BROADCAST_CELL_KIND for grid in grids for u in grid)
    # while shards=1 keeps the PR-4 per-replication protocol, untouched
    plain = broadcast_units("fig1", [(4, 4, 4)], ["DB"], 64, "quick", 0)
    assert all(u.kind == "broadcast" for u in plain)
    assert len(plain) == 5  # quick scale: one unit per source


def test_planned_shards_resolution():
    cell = broadcast_cell(sources=5)
    assert planned_shards(cell, requested=3) == 3
    assert planned_shards(cell, requested=8) == 5  # capped by sources
    assert planned_shards(cell, requested=1) == 1
    assert planned_shards(cell, requested="auto", workers=4) == 4
    assert planned_shards(cell, requested="auto", workers=1) == 1
    assert planned_shards(cell, requested="auto", workers=8) == 5
    assert planned_shards(cell, requested="auto") == 5  # no worker cap
    # traffic parents are self-describing; the request is ignored
    parent = traffic_parent(shards=4)
    assert planned_shards(parent, requested=2) == 4
    assert planned_shards(parent, requested="auto") == 4
    # per-replication broadcast units never shard
    plain = broadcast_cell(kind="broadcast", params=freeze_params())
    assert planned_shards(plain, requested="auto", workers=8) == 1


def test_broadcast_cell_execution_paths_are_byte_identical(tmp_path):
    """The cell acceptance diff: inline definition vs every fan-out,
    serial or pooled — and a mid-merge resume — all byte-identical."""
    cell = broadcast_cell(sources=5, barrier=True)
    spec = CampaignSpec(name="cell-diff", seed=0, units=(cell,))

    inline = execute_unit(cell)  # the definition: all sources in order
    serial_k3 = run_campaign(spec, workers=1, shards=3)[0]
    parallel_k5 = run_campaign(spec, workers=4, shards=5)[0]
    assert serial_k3.result == inline.result == parallel_k5.result

    # resumed from a store holding only a 2-way plan's shard records
    # ("interrupted before the merge"): the merge is re-derived from a
    # *different* fan-out than the request — still byte-identical.
    store = JsonlStore(tmp_path / "cell-mid-merge.jsonl")
    for shard in shard_specs(cell, 2):
        store.append(execute_unit(shard))
    resumed = run_campaign(spec, workers=1, store=store, shards=2)[0]
    assert resumed.result == inline.result
    merged = store.get(cell.unit_hash)
    assert merged is not None and merged.result == inline.result


def _fig1_rows(shards, workers, store=None):
    from repro.experiments.common import broadcast_units, campaign, run_units

    units = broadcast_units(
        "fig1", [(4, 4, 4), (8, 8, 8)], ["RD", "DB"], 100, "quick", 0,
        startup_latency=1.5, shards=shards,
    )
    spec = campaign("fig1", units, "quick", 0)
    return run_units(
        "fig1", spec, workers=workers, store=store, shards=shards
    )


def test_quick_fig1_rows_sharded_vs_serial_golden_diff():
    """The acceptance diff: quick-scale fig1 rows at --shards 4
    --workers 4 and at --shards auto, byte-identical to the serial
    unsharded run."""
    serial = _fig1_rows(shards=1, workers=1)
    sharded = _fig1_rows(shards=4, workers=4)
    auto = _fig1_rows(shards="auto", workers=2)
    assert serial == sharded  # dataclass equality: every float equal
    assert serial == auto
    assert all(row.samples == 5 for row in serial)


def test_quick_fig2_rows_sharded_vs_serial_golden_diff():
    """Same diff for a barrier-twin grid (fig2): each source's
    event-driven run and its barrier twin shard as a pair."""
    from repro.experiments.common import broadcast_units, campaign, run_units

    def rows(shards, workers):
        units = broadcast_units(
            "fig2", [(4, 4, 4), (4, 4, 16)], ["RD", "DB"], 100, "quick", 0,
            barrier=True, startup_latency=1.5, shards=shards,
        )
        spec = campaign("fig2", units, "quick", 0)
        return run_units("fig2", spec, workers=workers, shards=shards)

    serial = rows(shards=1, workers=1)
    sharded = rows(shards=4, workers=4)
    auto = rows(shards="auto", workers=2)
    assert serial == sharded
    assert serial == auto
    assert all(row.mean_cv_barrier > 0 for row in serial)


def test_two_pools_share_one_broadcast_cell(tmp_path):
    """Two pools with *different* fan-out requests on one sqlite store
    still converge on one merged cell record, byte-identical to the
    single-pool result (the cell's hash is fan-out-free)."""
    cell = broadcast_cell(sources=5)
    spec = CampaignSpec(name="cell-pools", seed=0, units=(cell,))
    reference = execute_unit(cell)

    store = SqliteStore(tmp_path / "cell-pools.sqlite")
    first = run_campaign(spec, workers=2, store=store, shards=5)
    second = run_campaign(spec, workers=2, store=store, shards=2)
    assert first[0].result == second[0].result == reference.result


def test_traffic_auto_resolves_at_declaration(tmp_path, monkeypatch):
    """Traffic `auto` is protocol, so it resolves when the grid is
    declared — to unsharded points, from the command line alone: a
    model file in the working directory changes no unit hash."""
    kwargs = dict(scale="smoke", shards="auto", loads=[1.0, 4.0],
                  algorithms=["DB", "AB"])
    monkeypatch.chdir(tmp_path)
    plain = traffic_campaign("fig3", **kwargs)

    model = tmp_path / "campaigns" / "cost_model.json"
    model.parent.mkdir()
    model.write_text(json.dumps({
        "schema": 1,
        "features": ["intercept", "log_nodes", "log_length_flits",
                     "log_load", "log_batch_budget", "barrier", "shard",
                     "engine_batched"],
        "weights": [1.6, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        "samples": 8,
        "r_squared": 1.0,
    }))
    planted = traffic_campaign("fig3", **kwargs)
    assert planted.unit_hashes() == plain.unit_hashes()
    assert all(unit_shards(unit) == 1 for unit in planted.units)
    assert planted.unit_hashes() == (
        traffic_campaign("fig3", **dict(kwargs, shards=1)).unit_hashes()
    )


def test_cli_shards_flag_rejects_junk(capsys):
    for bad in ("0", "-2", "bogus"):
        with pytest.raises(SystemExit):
            main(["fig1", "--shards", bad])
        assert "positive count" in capsys.readouterr().err


# ----------------------------------------------------- failure-path leases
def test_lease_heartbeat_stops_cleanly_when_shard_raises(
    tmp_path, monkeypatch
):
    """A shard runner that raises mid-execution must not leave the
    lease-heartbeat daemon running nor the shard's lease held."""
    import repro.campaigns.units  # noqa: F401 — register built-in runners
    from repro.campaigns import pool as pool_mod

    def boom(spec):
        raise RuntimeError("shard exploded")

    monkeypatch.setitem(pool_mod._UNIT_RUNNERS, SHARD_KIND, boom)
    parent = traffic_parent(shards=2)
    spec = CampaignSpec(name="boom", seed=0, units=(parent,))
    store = SqliteStore(tmp_path / "boom.sqlite")

    def heartbeats():
        return [
            t for t in threading.enumerate()
            if t.name.startswith("lease-heartbeat")
        ]

    with pytest.raises(RuntimeError, match="shard exploded"):
        # max_failures=0 = strict fail-fast: the first raising shard
        # propagates instead of entering the retry/quarantine path.
        run_campaign(spec, workers=1, store=store, max_failures=0)
    deadline = time.time() + 5.0
    while heartbeats() and time.time() < deadline:
        time.sleep(0.01)
    assert heartbeats() == []
    assert store.leased_hashes() == set()  # released on the failure path


# ------------------------------------------------------ merge idempotence
class _PeerMergedStore(JsonlStore):
    """Simulates the racing-pool interleaving: the parent's merged
    record lands (via a peer) *after* this pool's startup snapshot, so
    the snapshot misses it but point lookups see it."""

    def __init__(self, path, hidden_hash):
        super().__init__(path)
        self._hidden = hidden_hash
        self._scans = 0

    def records(self):
        records = super().records()
        if self._scans == 0:
            records.pop(self._hidden, None)
        self._scans += 1
        return records


def test_second_pool_does_not_duplicate_a_peer_merged_parent(
    tmp_path, capsys, monkeypatch
):
    """Satellite fix: a merged parent re-observed by a second pool must
    be adopted, not re-merged-and-re-appended — the store keeps exactly
    one parent record and `campaign status` counts the unit once."""
    monkeypatch.chdir(tmp_path)
    spec = traffic_campaign("fig3", scale="smoke", shards=2, loads=[1.0],
                            algorithms=["DB"])
    [parent] = spec.units
    path = tmp_path / "campaigns" / f"{spec.name}.jsonl"
    seed_store = JsonlStore(path)
    for shard in shard_specs(parent):
        seed_store.append(execute_unit(shard))
    merged = merge_shard_records(
        parent, [execute_unit(s) for s in shard_specs(parent)]
    )
    seed_store.append(merged)  # the peer pool's merge

    def parent_lines():
        return sum(
            1 for line in path.read_text().splitlines()
            if f'"{parent.unit_hash}"' in line
        )

    assert parent_lines() == 1
    store = _PeerMergedStore(path, parent.unit_hash)
    records = run_campaign(spec, workers=1, store=store)
    assert records[0].result == merged.result
    assert parent_lines() == 1  # adopted, not re-appended

    # The full fig3 grid has 28 points; exactly the merged one counts
    # complete — once — and it gets no shard-progress line.
    assert main(["campaign", "status", "fig3", "--scale", "smoke",
                 "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "1/28 units complete" in out
    assert "fig3/DB@8x8x8 L=32 load=1 r0" not in out


def test_cli_status_reports_broadcast_cell_progress(
    capsys, monkeypatch, tmp_path
):
    """Broadcast grids shard now: a fixed --shards K prints per-cell
    shard progress, and --shards auto (whose plan is whatever the
    executing pools picked) infers progress from the stored shard
    records."""
    monkeypatch.chdir(tmp_path)
    spec = campaign_for("fig1", "smoke", 0, shards=2)
    [cell] = [
        u for u in spec.units
        if u.algorithm == "DB" and u.dims == (4, 4, 4)
    ]
    store = JsonlStore(tmp_path / "campaigns" / f"{spec.name}.jsonl")
    store.append(execute_unit(shard_specs(cell, 2)[0]))

    assert main(["campaign", "status", "fig1", "--scale", "smoke",
                 "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "0/16 units complete" in out
    assert "fig1/DB@4x4x4 L=100 r0: 1/2 shards, 1 to run" in out

    # auto has no pre-agreed fan-out; the landed shard's slice is
    # attributed to its cell through the store.  A slice from a
    # larger-scale plan sharing the store (same cell key, but it
    # reaches past this scale's replication count) must not inflate
    # the coverage.
    quick_cell = broadcast_cell(
        experiment="fig1", algorithm="DB", dims=(4, 4, 4),
        length_flits=100, sources=5,
        params=freeze_params(sources_count=5, startup_latency=1.5),
    )
    store.append(execute_unit(shard_specs(quick_cell, 2)[0]))  # 0..3
    assert main(["campaign", "status", "fig1", "--scale", "smoke",
                 "--shards", "auto"]) == 0
    out = capsys.readouterr().out
    assert "fig1/DB@4x4x4 L=100 r0: 1/2 sources in 1 auto shard(s)" in out
    assert "1 sources to run" in out

    # Shards of *mixed* abandoned plans overlap; coverage is the
    # interval union of distinct sources, never a double count.
    [cell5] = [
        u for u in campaign_for("fig1", "quick", 0, shards=2).units
        if u.algorithm == "DB" and u.dims == (4, 4, 4)
    ]
    store5 = JsonlStore(
        tmp_path / "campaigns" / "fig1-quick-s0.jsonl"
    )
    for shard in shard_specs(cell5, 3)[:2]:  # covers sources 0..4
        store5.append(execute_unit(shard))
    store5.append(execute_unit(shard_specs(cell5, 2)[0]))  # covers 0..3
    assert main(["campaign", "status", "fig1", "--scale", "quick",
                 "--shards", "auto"]) == 0
    out = capsys.readouterr().out
    assert "fig1/DB@4x4x4 L=100 r0: 4/5 sources in 3 auto shard(s)" in out
    assert "1 sources to run" in out
