"""Tests for the campaign engine (`repro.campaigns`).

Covers spec hashing, the JSONL store (including crash-resume), the
worker pool's serial/parallel determinism contract, aggregation back
into experiment rows, and the CLI `campaign` subcommands.
"""

import json

import pytest

from repro.campaigns import (
    CampaignSpec,
    ResultStore,
    UnitRecord,
    UnitSpec,
    aggregate,
    execute_unit,
    freeze_params,
    run_campaign,
)
from repro.cli import main
from repro.experiments import (
    campaign_for,
    run_experiment,
    run_fig1,
    run_traffic_sweep,
)
from repro.experiments.common import broadcast_units, random_sources
from repro.sim.rng import RandomStreams


def unit(**overrides) -> UnitSpec:
    fields = dict(
        experiment="fig1",
        kind="broadcast",
        algorithm="DB",
        dims=(4, 4, 4),
        length_flits=100,
        seed=0,
        replication=0,
        params=freeze_params(sources_count=2, startup_latency=1.5),
    )
    fields.update(overrides)
    return UnitSpec(**fields)


# ----------------------------------------------------------------- spec
def test_unit_hash_is_stable_and_content_addressed():
    assert unit().unit_hash == unit().unit_hash
    assert unit().unit_hash != unit(algorithm="AB").unit_hash
    assert unit().unit_hash != unit(replication=1).unit_hash
    assert unit().unit_hash != unit(seed=7).unit_hash


def test_unit_params_canonicalised():
    a = freeze_params(b=2, a=1, c=None)
    b = freeze_params(a=1, b=2)
    assert a == b
    assert unit(params=a).unit_hash == unit(params=b).unit_hash


def test_unit_dict_round_trip():
    u = unit(load=None)
    assert UnitSpec.from_dict(u.as_dict()) == u
    t = unit(kind="traffic", load=2.0, params=freeze_params(batch_size=8))
    assert UnitSpec.from_dict(json.loads(json.dumps(t.as_dict()))) == t


def test_cell_key_ignores_replication():
    assert unit().cell_key == unit(replication=1).cell_key
    assert unit().cell_key != unit(algorithm="AB").cell_key


def test_campaign_rejects_duplicate_units():
    with pytest.raises(ValueError):
        CampaignSpec(name="dup", seed=0, units=(unit(), unit()))


def test_campaign_pending_and_hash():
    spec = CampaignSpec(
        name="c", seed=0, units=(unit(), unit(replication=1))
    )
    assert len(spec) == 2
    done = [spec.units[0].unit_hash]
    assert spec.pending(done) == [spec.units[1]]
    assert spec.campaign_hash == spec.campaign_hash
    assert spec.with_seed(9).units[0].seed == 9


def test_with_seed_renames_seed_suffix():
    spec = campaign_for("fig1", "smoke", 0)
    reseeded = spec.with_seed(9)
    assert reseeded.name == "fig1-smoke-s9"
    assert all(u.seed == 9 for u in reseeded.units)


def test_duplicate_grid_points_are_collapsed():
    from repro.experiments import traffic_campaign

    spec = traffic_campaign(
        "fig3", "smoke", 0, loads=[2.0, 2, 4.0], algorithms=["DB"]
    )
    assert [u.load for u in spec.units] == [2.0, 4.0]


# ------------------------------------------------------ content addresses
# Literal hashes computed before unit keys were memoised.  A change to
# any of them re-keys every stored record, so each existing store
# would silently stop serving cache hits; change them only on purpose.
PINNED_SPECS = [
    (
        UnitSpec(
            experiment="fig1", kind="broadcast", algorithm="DB",
            dims=(4, 4, 4), length_flits=32, seed=0,
            params=(("startup_latency", 1.5),),
        ),
        "45b982f0e4e71718",
    ),
    (
        UnitSpec(
            experiment="fig1", kind="broadcast-cell", algorithm="DB",
            dims=(4, 4, 4), length_flits=32, seed=0,
            params=(("sources_count", 2), ("startup_latency", 1.5)),
        ),
        "59aaa7ed0de4efd5",
    ),
    (
        UnitSpec(
            experiment="fig1", kind="broadcast-shard", algorithm="DB",
            dims=(4, 4, 4), length_flits=32, seed=0,
            params=(
                ("shard", 1), ("source_count", 1), ("source_offset", 1),
                ("startup_latency", 1.5),
            ),
        ),
        "6ac5046e80de6f81",
    ),
    (
        UnitSpec(
            experiment="fig3", kind="traffic", algorithm="EDN",
            dims=(4, 4, 4), length_flits=32, seed=0, load=0.5,
            params=(
                ("batch_size", 8), ("broadcast_fraction", 0.1),
                ("discard", 1), ("max_sim_time_us", 20000.0),
                ("num_batches", 3),
            ),
        ),
        "842fb29e6f68efbf",
    ),
    (
        UnitSpec(
            experiment="fig3", kind="traffic-shard", algorithm="EDN",
            dims=(4, 4, 4), length_flits=32, seed=0, load=0.5,
            params=(
                ("batch_size", 8), ("broadcast_fraction", 0.1),
                ("discard", 1), ("max_sim_time_us", 20000.0),
                ("num_batches", 2), ("shard", 1),
            ),
        ),
        "211d3ad6b98484c8",
    ),
]


@pytest.mark.parametrize(
    "spec, expected", PINNED_SPECS, ids=[s.kind for s, _ in PINNED_SPECS]
)
def test_unit_hash_is_pinned(spec, expected):
    assert spec.unit_hash == expected
    decoded = UnitSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert decoded.unit_hash == expected


def test_grid_builders_declare_the_pinned_specs():
    from repro.campaigns.shards import shard_specs
    from repro.experiments.common import traffic_units

    broadcast = broadcast_units("fig1", [(4, 4, 4)], ["DB"], 32, "smoke", 0)[0]
    (cell,) = broadcast_units(
        "fig1", [(4, 4, 4)], ["DB"], 32, "smoke", 0, shards=2
    )
    (traffic,) = traffic_units("fig3", (4, 4, 4), ["EDN"], [0.5], 32, "smoke", 0)
    (sharded,) = traffic_units(
        "fig3", (4, 4, 4), ["EDN"], [0.5], 32, "smoke", 0, shards=2
    )
    built = [
        broadcast, cell, shard_specs(cell, 2)[1], traffic, shard_specs(sharded)[1]
    ]
    assert built == [spec for spec, _ in PINNED_SPECS]


def test_cell_key_and_campaign_hash_are_pinned():
    assert PINNED_SPECS[0][0].cell_key == (
        '{"algorithm":"DB","dims":[4,4,4],"experiment":"fig1",'
        '"kind":"broadcast","length_flits":32,'
        '"params":{"startup_latency":1.5},"seed":0}'
    )
    campaign = CampaignSpec(
        name="pin-s0", seed=0, units=tuple(spec for spec, _ in PINNED_SPECS)
    )
    assert campaign.campaign_hash == "c51d2cde091b33a4"


# -------------------------------------------------- memoised content keys
def _count_encodes(monkeypatch):
    from repro.campaigns import spec as spec_module

    calls = []
    encode = spec_module._canonical_json

    def counting(data):
        calls.append(1)
        return encode(data)

    monkeypatch.setattr(spec_module, "_canonical_json", counting)
    return calls


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
def test_cached_rerun_encodes_each_unit_key_once(tmp_path, monkeypatch, backend):
    """A warm all-cached re-run encodes each declared spec's hash once.

    ``JsonlStore`` hands out the same record objects on every read, so
    their cell keys are already memoised; ``SqliteStore`` decodes new
    record objects per read, which adds one cell-key encode per unit.
    """
    from repro.campaigns.store import open_store
    from repro.experiments.fig1 import fig1_campaign

    units = len(fig1_campaign("smoke", 0))
    store = open_store(tmp_path / f"fig1.{backend}", backend=backend)
    fresh = run_fig1(scale="smoke", seed=0, store=store)
    assert run_fig1(scale="smoke", seed=0, store=store) == fresh
    calls = _count_encodes(monkeypatch)
    assert run_fig1(scale="smoke", seed=0, store=store) == fresh
    if backend == "jsonl":
        assert len(calls) == units
    else:
        assert len(calls) <= 2 * units


def test_content_keys_are_computed_once_per_object(monkeypatch):
    spec = unit()
    record = UnitRecord(
        unit_hash=spec.unit_hash, experiment="fig1",
        spec=spec.as_dict(), result={},
    )
    record.unit_spec.cell_key
    calls = _count_encodes(monkeypatch)
    for _ in range(3):
        assert spec.unit_hash and spec.cell_key
        assert record.unit_spec is record.unit_spec
        assert record.unit_spec.cell_key == spec.cell_key
    assert calls == [1]  # spec.cell_key; the record's was computed above


def test_replaced_and_reseeded_specs_hash_like_fresh_ones():
    from dataclasses import replace

    spec = unit()
    spec.unit_hash, spec.cell_key  # populate the memo before copying
    assert replace(spec, seed=7).unit_hash == unit(seed=7).unit_hash
    assert replace(spec, seed=7).cell_key == unit(seed=7).cell_key
    campaign = CampaignSpec(name="c-s0", seed=0, units=(spec,))
    campaign.campaign_hash
    reseeded = campaign.with_seed(7)
    fresh = CampaignSpec(name="c-s7", seed=7, units=(unit(seed=7),))
    assert reseeded.unit_hashes() == fresh.unit_hashes()
    assert reseeded.campaign_hash == fresh.campaign_hash


@pytest.mark.parametrize("clone", ["pickle", "copy"])
def test_copied_specs_and_records_keep_equality_and_hash(clone):
    import copy
    import pickle

    dup = (
        (lambda obj: pickle.loads(pickle.dumps(obj)))
        if clone == "pickle"
        else copy.copy
    )
    spec = unit()
    record = UnitRecord(
        unit_hash=spec.unit_hash, experiment="fig1",
        spec=spec.as_dict(), result={"x": 1.0},
    )
    for warm in (False, True):
        if warm:
            spec.cell_key, record.unit_spec.unit_hash
        spec2, record2 = dup(spec), dup(record)
        assert spec2 == spec and hash(spec2) == hash(spec)
        assert spec2.unit_hash == spec.unit_hash == unit().unit_hash
        assert spec2.cell_key == unit().cell_key
        assert record2 == record
        assert record2.unit_spec == spec
        assert record2.unit_spec.unit_hash == spec.unit_hash


def test_record_equality_ignores_elapsed_and_the_memo():
    spec = unit()
    a = UnitRecord(
        unit_hash=spec.unit_hash, experiment="fig1",
        spec=spec.as_dict(), result={"x": 1.0}, elapsed_s=0.5,
    )
    b = UnitRecord(
        unit_hash=spec.unit_hash, experiment="fig1",
        spec=spec.as_dict(), result={"x": 1.0}, elapsed_s=9.0,
    )
    a.unit_spec  # memoised on one side only
    assert a == b
    assert a != UnitRecord(
        unit_hash=spec.unit_hash, experiment="fig1",
        spec=spec.as_dict(), result={"x": 2.0}, elapsed_s=0.5,
    )


# ---------------------------------------------------------------- store
def test_store_append_and_resume(tmp_path):
    store = ResultStore(tmp_path / "c.jsonl")
    assert store.completed_hashes() == set()
    record = UnitRecord(
        unit_hash=unit().unit_hash,
        experiment="fig1",
        spec=unit().as_dict(),
        result={"network_latency": 1.0},
        elapsed_s=0.1,
    )
    store.append(record)
    assert store.completed_hashes() == {unit().unit_hash}
    loaded = store.records()[unit().unit_hash]
    assert loaded.result == {"network_latency": 1.0}
    assert loaded.unit_spec == unit()


def test_store_tolerates_truncated_tail(tmp_path):
    store = ResultStore(tmp_path / "c.jsonl")
    record = UnitRecord(
        unit_hash="abc", experiment="fig1", spec=unit().as_dict(), result={}
    )
    store.append(record)
    with store.path.open("a") as handle:
        handle.write('{"unit_hash": "def", "experiment"')  # crash mid-write
    assert store.completed_hashes() == {"abc"}


def test_store_records_for_orders_by_spec(tmp_path):
    spec = CampaignSpec(
        name="c", seed=0, units=(unit(), unit(replication=1))
    )
    store = ResultStore(tmp_path / "c.jsonl")
    run_campaign(spec, store=store)
    records = store.records_for(spec)
    assert [r.unit_hash for r in records] == spec.unit_hashes()


# ----------------------------------------------------------------- pool
def test_execute_unit_records_result():
    record = execute_unit(unit())
    assert record.unit_hash == unit().unit_hash
    assert record.result["network_latency"] > 0
    assert record.result["delivered"] == 63
    assert record.elapsed_s > 0


def test_execute_unit_unknown_kind():
    with pytest.raises(ValueError):
        execute_unit(unit(kind="nope"))


def test_execute_unit_rejects_bad_replication():
    with pytest.raises(ValueError):
        execute_unit(unit(replication=5, params=freeze_params(sources_count=2)))


def test_run_campaign_rejects_bad_workers():
    spec = CampaignSpec(name="c", seed=0, units=(unit(),))
    with pytest.raises(ValueError):
        run_campaign(spec, workers=0)


def test_parallel_records_identical_to_serial():
    units = broadcast_units(
        "fig1", [(4, 4, 4)], ["RD", "DB"], 64, "smoke", seed=3
    )
    spec = CampaignSpec(name="par", seed=3, units=tuple(units))
    serial = run_campaign(spec, workers=1)
    parallel = run_campaign(spec, workers=2)
    assert serial == parallel


def test_run_campaign_skips_completed_units(tmp_path):
    units = broadcast_units(
        "fig1", [(4, 4, 4)], ["DB"], 64, "smoke", seed=0
    )
    spec = CampaignSpec(name="resume", seed=0, units=tuple(units))
    store = ResultStore(tmp_path / "resume.jsonl")
    first = run_campaign(spec, store=store)

    # Drop the last stored line to simulate an interrupted run; the
    # re-run must recompute only the missing unit and reproduce the
    # original records exactly.
    lines = store.path.read_text().strip().splitlines()
    store.path.write_text("\n".join(lines[:-1]) + "\n")
    assert len(store.completed_hashes()) == len(spec) - 1

    progress_lines = []
    second = run_campaign(spec, store=store, progress=progress_lines.append)
    assert second == first
    assert f"({len(spec) - 1} cached, 1 to run" in progress_lines[0]


def test_campaign_store_keyed_by_content(tmp_path):
    """A store populated at one seed contributes nothing to another."""
    units0 = broadcast_units("fig1", [(4, 4, 4)], ["DB"], 64, "smoke", seed=0)
    units1 = broadcast_units("fig1", [(4, 4, 4)], ["DB"], 64, "smoke", seed=1)
    store = ResultStore(tmp_path / "c.jsonl")
    run_campaign(
        CampaignSpec(name="s0", seed=0, units=tuple(units0)), store=store
    )
    lines = []
    run_campaign(
        CampaignSpec(name="s1", seed=1, units=tuple(units1)),
        store=store,
        progress=lines.append,
    )
    assert "(0 cached" in lines[0]


# ------------------------------------------------------------ aggregate
def test_aggregate_unknown_experiment():
    with pytest.raises(KeyError):
        aggregate("nope", [])


def test_experiment_rows_identical_across_worker_counts():
    serial = run_fig1(scale="smoke", seed=1)
    assert serial == run_fig1(scale="smoke", seed=1, workers=4)
    fig2 = run_experiment("fig2", "smoke", 1)
    assert fig2 == run_experiment("fig2", "smoke", 1, workers=2)


def test_traffic_sweep_through_campaign_engine():
    rows = run_traffic_sweep(
        "fig3", scale="smoke", seed=1, loads=[2.0], algorithms=["DB", "AB"]
    )
    parallel = run_traffic_sweep(
        "fig3",
        scale="smoke",
        seed=1,
        loads=[2.0],
        algorithms=["DB", "AB"],
        workers=2,
    )
    assert rows == parallel


def test_ablation_through_campaign_engine():
    rows, _ = run_experiment("ablation-ports", "smoke", 0)
    assert len(rows) == 3 * 4
    assert [r.value for r in rows] == [1.0] * 4 + [2.0] * 4 + [3.0] * 4
    assert all(r.parameter == "ports_per_node" for r in rows)


def test_run_from_store_matches_fresh_run(tmp_path):
    """Aggregating JSON-round-tripped records gives identical rows."""
    store = ResultStore(tmp_path / "fig1.jsonl")
    fresh = run_fig1(scale="smoke", seed=2)
    stored = run_fig1(scale="smoke", seed=2, store=store)
    resumed = run_fig1(scale="smoke", seed=2, store=store)  # all cached
    assert fresh == stored == resumed


def test_campaign_for_matches_experiment_grid():
    spec = campaign_for("fig1", "smoke", 0)
    assert spec.name == "fig1-smoke-s0"
    # 4 sizes x 4 algorithms x 2 smoke sources
    assert len(spec) == 4 * 4 * 2
    with pytest.raises(KeyError):
        campaign_for("nope")


# -------------------------------------------------------- random sources
def test_random_sources_use_named_stream():
    expected_rng = RandomStreams(5)["sources"]
    expected = [
        tuple(int(expected_rng.integers(0, d)) for d in (4, 4, 4))
        for _ in range(3)
    ]
    assert random_sources((4, 4, 4), 3, 5) == expected


def test_random_sources_reproducible_and_in_range():
    a = random_sources((4, 8), 10, seed=7)
    assert a == random_sources((4, 8), 10, seed=7)
    assert a != random_sources((4, 8), 10, seed=8)
    assert all(0 <= x < 4 and 0 <= y < 8 for x, y in a)


# ------------------------------------------------------------------- CLI
def test_cli_experiment_workers_flag(capsys):
    assert main(["fig1", "--scale", "smoke", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 1" in out


def test_cli_campaign_run_status_aggregate(tmp_path, capsys):
    store = str(tmp_path / "fig1.jsonl")
    args = ["fig1", "--scale", "smoke", "--store", store]

    assert main(["campaign", "status"] + args) == 0
    assert "0/32" in capsys.readouterr().out

    assert main(["campaign", "aggregate"] + args) == 1  # incomplete store
    assert "0/32" in capsys.readouterr().out

    assert main(["campaign", "run", "--workers", "2"] + args) == 0
    out = capsys.readouterr().out
    assert "32 to run" in out and "Fig. 1" in out

    assert main(["campaign", "status"] + args) == 0
    assert "32/32" in capsys.readouterr().out

    assert main(["campaign", "run"] + args) == 0
    assert "(32 cached, 0 to run" in capsys.readouterr().out

    out_file = tmp_path / "fig1.csv"
    assert main(["campaign", "aggregate", "--out", str(out_file)] + args) == 0
    assert "Fig. 1" in capsys.readouterr().out
    assert out_file.read_text().startswith("algorithm,")


def test_cli_campaign_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["campaign", "run", "nope"])
