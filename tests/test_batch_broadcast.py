"""Tests for the batched broadcast engine (`repro.core.batch_broadcast`).

The engine's whole contract is *bit-identical results at vector
speed*: every per-source outcome — arrival dict (insertion order
included), derived latency statistics, unit-record floats and the
content hash of the record's spec — must match the per-source
event-driven engine exactly, with ineligible sources (adaptive
schedules, faulty channels, walks that outrun their first delivery)
silently falling back per source.  These tests pin that contract, the
engine knob's resolution order, and the cost model's engine feature.
"""

import dataclasses
import os

import pytest

from repro.campaigns import (
    CampaignSpec,
    UnitSpec,
    execute_unit,
    freeze_params,
    register_unit_runner,
    run_campaign,
)
from repro.campaigns.costmodel import (
    FEATURE_NAMES,
    CostModel,
    cost_features,
)
from repro.campaigns.units import (
    BROADCAST_ENGINE_ENV,
    ENGINES,
    broadcast_engine,
    set_broadcast_engine,
)
from repro.core.batch_broadcast import run_batch_broadcasts
from repro.experiments.common import random_sources, run_single_broadcasts
from repro.network.faults import FaultyChannelError
from repro.obs.simprof import SimProfile


@pytest.fixture(autouse=True)
def _clean_engine_state(monkeypatch):
    monkeypatch.delenv(BROADCAST_ENGINE_ENV, raising=False)
    previous = set_broadcast_engine(None)
    yield
    set_broadcast_engine(previous)


def assert_outcomes_identical(batched, event):
    """Bit-identical outcomes.

    The arrivals mapping must agree exactly and its *value sequence*
    must be bitwise identical in insertion order — when two worms
    deliver at the same instant the event heap and the sweep may
    order the tied (bitwise-equal) floats differently, which no
    downstream statistic can observe.
    """
    assert len(batched) == len(event)
    for b, e in zip(batched, event):
        assert b.arrivals == e.arrivals
        assert list(b.arrivals.values()) == list(e.arrivals.values())
        assert dataclasses.asdict(b) == dataclasses.asdict(e)
        assert list(b.latencies()) == list(e.latencies())
        assert b.mean_latency == e.mean_latency
        assert b.network_latency == e.network_latency
        assert b.coefficient_of_variation == e.coefficient_of_variation


# ------------------------------------------------------------ exactness
@pytest.mark.parametrize("dims", [(4, 4), (8, 8), (3, 5), (4, 4, 4)])
@pytest.mark.parametrize("algorithm", ["RD", "EDN", "DB"])
def test_batched_matches_event_engine(dims, algorithm):
    sources = random_sources(dims, 6, seed=1)
    event = run_single_broadcasts(algorithm, dims, sources, 512)
    batched = run_batch_broadcasts(algorithm, dims, sources, 512)
    assert_outcomes_identical(batched, event)


def test_batched_matches_event_engine_properties():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=20, deadline=None)
    @given(
        dims=st.sampled_from([(4, 4), (5, 3), (2, 6), (8, 8), (3, 3, 3)]),
        algorithm=st.sampled_from(["RD", "EDN", "DB", "AB"]),
        length=st.sampled_from([4, 32, 128, 512]),
        seed=st.integers(min_value=0, max_value=50),
        count=st.integers(min_value=1, max_value=5),
        max_dest=st.sampled_from([None, 1, 3]),
    )
    def check(dims, algorithm, length, seed, count, max_dest):
        sources = random_sources(dims, count, seed)
        kwargs = dict(max_destinations_per_path=max_dest)
        event = run_single_broadcasts(
            algorithm, dims, sources, length, **kwargs
        )
        batched = run_batch_broadcasts(
            algorithm, dims, sources, length, **kwargs
        )
        assert_outcomes_identical(batched, event)

    check()


def test_short_message_walks_fall_back_and_still_match():
    # With L=4 flits most DB worms' walks outrun their first delivery
    # (remaining hops >= L-1), failing the sweep's wave-eligibility
    # check *after* planning — the fallback must be taken and the
    # results must still be identical.
    dims, length = (8, 8), 4
    sources = random_sources(dims, 8, seed=2)
    profile = SimProfile()
    event = run_single_broadcasts("DB", dims, sources, length)
    batched = run_batch_broadcasts(
        "DB", dims, sources, length, profile=profile
    )
    assert_outcomes_identical(batched, event)
    assert profile.batch_sources_fallback > 0
    assert (
        profile.batch_sources_batched + profile.batch_sources_fallback
        == len(sources)
    )


def test_adaptive_algorithm_falls_back_whole_batch():
    dims = (4, 4)
    sources = random_sources(dims, 4, seed=0)
    profile = SimProfile()
    event = run_single_broadcasts("AB", dims, sources, 128)
    batched = run_batch_broadcasts(
        "AB", dims, sources, 128, profile=profile
    )
    assert_outcomes_identical(batched, event)
    assert profile.batch_sources_batched == 0
    assert profile.batch_sources_fallback == len(sources)
    assert profile.batch_batched_ratio == 0.0


# --------------------------------------------------------------- faults
def test_faulty_topology_forces_event_fallback():
    # Any declared fault disqualifies the whole batch: the event
    # engine is the defined semantics for faulty topologies.  A fault
    # on a channel no schedule uses must leave results identical to
    # the pristine run while every source reports as fallback.
    from repro.core.registry import get_algorithm
    from repro.network.topology import Mesh
    from repro.sim.batch import plan_broadcast

    dims = (4, 4)
    sources = [(0, 0), (1, 1)]
    mesh = Mesh(dims)
    nodes = list(mesh.nodes())
    node_index = {coord: i for i, coord in enumerate(nodes)}
    algorithm = get_algorithm("DB")(mesh)
    used = set()
    for source in sources:
        plan = plan_broadcast(
            algorithm.schedule(source), node_index, len(nodes)
        )
        used.update(int(k) for k in plan.chan_key)

    def key(u, v):
        return node_index[u] * len(nodes) + node_index[v]

    unused = None
    for u in nodes:
        for axis in range(len(dims)):
            v = list(u)
            v[axis] += 1
            v = tuple(v)
            if v in node_index and key(u, v) not in used and (
                key(v, u) not in used
            ):
                unused = (u, v)
                break
        if unused:
            break
    assert unused is not None, "every channel pair is in use"

    profile = SimProfile()
    pristine = run_single_broadcasts("DB", dims, sources, 64)
    batched = run_batch_broadcasts(
        "DB", dims, sources, 64, faults=[unused], profile=profile
    )
    assert_outcomes_identical(batched, pristine)
    assert profile.batch_sources_batched == 0
    assert profile.batch_sources_fallback == len(sources)


def test_faulty_channel_on_path_raises_like_event_engine():
    dims = (4, 4)
    with pytest.raises(FaultyChannelError):
        run_batch_broadcasts(
            "DB", dims, [(0, 0)], 64, faults=[((0, 0), (0, 1))]
        )


# ---------------------------------------------------------- engine knob
def test_engine_resolution_order(monkeypatch):
    assert broadcast_engine() == "batched"
    monkeypatch.setenv(BROADCAST_ENGINE_ENV, "event")
    assert broadcast_engine() == "event"
    monkeypatch.setenv(BROADCAST_ENGINE_ENV, "bogus")
    assert broadcast_engine() == "batched"
    monkeypatch.setenv(BROADCAST_ENGINE_ENV, "event")
    previous = set_broadcast_engine("batched")
    assert previous is None
    assert broadcast_engine() == "batched"
    assert set_broadcast_engine(previous) == "batched"
    assert broadcast_engine() == "event"


def test_set_broadcast_engine_rejects_unknown():
    # "auto" was an alias of "batched" and is gone.
    for name in ("vectorised", "auto"):
        with pytest.raises(ValueError):
            set_broadcast_engine(name)
        assert name not in ENGINES


def cell_spec(**overrides) -> UnitSpec:
    fields = dict(
        experiment="fig1",
        kind="broadcast-cell",
        algorithm="DB",
        dims=(4, 4),
        length_flits=128,
        seed=0,
        replication=0,
        params=freeze_params(sources_count=5, startup_latency=1.5),
    )
    fields.update(overrides)
    return UnitSpec(**fields)


def test_execute_unit_engine_records_identical():
    # The per-unit engine bracket: same spec, same unit hash, same
    # result dict — bytes included — whichever engine executes it.
    event = execute_unit(cell_spec(), engine="event")
    batched = execute_unit(cell_spec(), engine="batched")
    assert event.unit_hash == batched.unit_hash
    assert event.result == batched.result
    assert broadcast_engine() == "batched"  # bracket restored the default


def test_execute_unit_rejects_unknown_engine():
    with pytest.raises(ValueError):
        execute_unit(cell_spec(), engine="vectorised")


def test_engine_not_part_of_unit_hash():
    # Engine is pure work division (like a cell's shard fan-out):
    # the spec carries no engine field, so records produced by any
    # engine are interchangeable under one content hash.
    assert "engine" not in cell_spec().as_dict().get("params", {})


@register_unit_runner("engine-probe")
def _report_engine(spec):
    return {"engine": broadcast_engine()}


def test_pool_workers_take_engine_from_environment(monkeypatch):
    # REPRO_BROADCAST_ENGINE is the one run-wide engine switch: pool
    # workers inherit the environment, so every unit sees it.
    monkeypatch.setenv(BROADCAST_ENGINE_ENV, "event")
    units = tuple(
        UnitSpec(
            experiment="engine-probe",
            kind="engine-probe",
            algorithm="DB",
            dims=(4, 4),
            length_flits=16,
            seed=0,
            replication=r,
        )
        for r in range(4)
    )
    records = run_campaign(
        CampaignSpec(name="engine-probe", seed=0, units=units), workers=2
    )
    assert [r.result["engine"] for r in records] == ["event"] * 4


# ----------------------------------------------------------- cost model
def test_cost_features_engine_indicator():
    assert FEATURE_NAMES[-1] == "engine_batched"
    spec = cell_spec()
    set_broadcast_engine("event")
    assert cost_features(spec)[-1] == 0.0
    set_broadcast_engine("batched")
    assert cost_features(spec)[-1] == 1.0
    ab = cell_spec(algorithm="AB")
    assert cost_features(ab)[-1] == 0.0
    traffic = UnitSpec(
        experiment="fig3",
        kind="traffic",
        algorithm="DB",
        dims=(4, 4),
        length_flits=128,
        seed=0,
        load=1.0,
        params=freeze_params(batch_size=5, num_batches=3),
    )
    assert cost_features(traffic)[-1] == 0.0


def test_cost_features_default_engine_tracks_process_knob(monkeypatch):
    spec = cell_spec()
    assert cost_features(spec)[-1] == 1.0  # the batched default
    monkeypatch.setenv(BROADCAST_ENGINE_ENV, "event")
    assert cost_features(spec)[-1] == 0.0


def test_legacy_cost_model_weights_still_predict():
    # A model fitted before the engine feature was appended has one
    # weight fewer; zip truncation treats the missing weight as zero,
    # so predictions are unchanged rather than erroring.
    legacy = CostModel(
        weights=(0.1,) * (len(FEATURE_NAMES) - 1), samples=10, r_squared=0.9
    )
    full = CostModel(
        weights=(0.1,) * (len(FEATURE_NAMES) - 1) + (0.0,),
        samples=10,
        r_squared=0.9,
    )
    spec = cell_spec()
    assert legacy.predict(spec) == full.predict(spec)


def test_legacy_cost_model_file_rejected_with_clear_error():
    with pytest.raises(ValueError):
        CostModel.from_dict(
            {
                "features": list(FEATURE_NAMES[:-1]),
                "weights": [0.1] * (len(FEATURE_NAMES) - 1),
            }
        )


# ------------------------------------------------------------ end to end
def test_fig1_smoke_rows_identical_across_engines(monkeypatch):
    from repro.experiments.fig1 import run_fig1

    monkeypatch.setenv(BROADCAST_ENGINE_ENV, "event")
    event = run_fig1("smoke", 0)
    monkeypatch.setenv(BROADCAST_ENGINE_ENV, "batched")
    batched = run_fig1("smoke", 0)
    assert event == batched
