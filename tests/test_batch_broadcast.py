"""Tests for the batched broadcast engine (`repro.core.batch_broadcast`).

The engine's whole contract is *bit-identical results at vector
speed*: every per-source outcome — arrival dict (insertion order
included), derived latency statistics, unit-record floats and the
content hash of the record's spec — must match the per-source
event-driven engine exactly, with ineligible sources (faulty channels,
launchers fed by walks that outrun their first delivery, adaptive
first hops whose channel is still busy, channel-occupancy conflicts
other than a launcher's first-channel handover) silently falling back
per source.  These tests pin that contract, the engine knob's
resolution order, and the cost model's engine feature.
"""

import dataclasses
import itertools
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
from repro.campaigns.units import (
    BROADCAST_ENGINE_ENV,
    ENGINES,
    broadcast_engine,
    set_broadcast_engine,
)
from repro.core.base import BroadcastAlgorithm
from repro.core.batch_broadcast import run_batch_broadcasts
from repro.core.registry import ALGORITHMS
from repro.core.schedule import BroadcastSchedule, BroadcastStep, PathSend
from repro.experiments.common import random_sources, run_single_broadcasts
from repro.network.faults import FaultyChannelError
from repro.obs.simprof import SimProfile
from repro.routing.paths import Path
from repro.routing.turn_model import WestFirst


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
        dims=st.sampled_from(
            [(4, 4), (5, 3), (2, 6), (8, 8), (3, 3, 3), (4, 4, 4), (4, 4, 8)]
        ),
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
    # (remaining hops >= L-1), and DB's worms deliver to nodes that
    # launch sends of their own: those launches would happen at the
    # walk's end, not the arrival, so the check *after* planning must
    # take the fallback — and the results must still be identical.
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


# ------------------------------------------------------ adaptive (AB)
def every_source(dims):
    return list(itertools.product(*(range(k) for k in dims)))


def uncontended(dims):
    # On a 2-D mesh a west-edge corner source contends with itself (see
    # the test after the next); every other source batches.
    west_corners = {(0, 0), (0, dims[1] - 1)}
    return [s for s in every_source(dims) if s not in west_corners]


@pytest.mark.parametrize(
    "dims, sources, kwargs",
    [
        ((4, 4), uncontended((4, 4)), {}),
        ((5, 3), uncontended((5, 3)), {}),
        ((8, 8), uncontended((8, 8)), {}),
        ((4, 4, 8), random_sources((4, 4, 8), 12, seed=0), {}),
        ((16, 16, 16), random_sources((16, 16, 16), 2, seed=0), {}),
        (
            (4, 4, 8),
            random_sources((4, 4, 8), 12, seed=1),
            {"ports_override": 1},
        ),
        ((8, 8), every_source((8, 8)), {"max_destinations_per_path": 1}),
        (
            (4, 4, 8),
            random_sources((4, 4, 8), 12, seed=2),
            {"max_destinations_per_path": 1},
        ),
        (
            (4, 4, 8),
            random_sources((4, 4, 8), 12, seed=3),
            {"max_destinations_per_path": 3},
        ),
    ],
)
def test_adaptive_broadcast_batches_and_matches(dims, sources, kwargs):
    # On an idle network AB's least-loaded choice is its routing
    # function's first candidate; the sweep takes it and proves it.
    profile = SimProfile()
    event = run_single_broadcasts("AB", dims, sources, 100, **kwargs)
    batched = run_batch_broadcasts(
        "AB", dims, sources, 100, profile=profile, **kwargs
    )
    assert_outcomes_identical(batched, event)
    assert profile.batch_sources_fallback == 0
    assert profile.batch_sources_batched == len(sources)


def test_contended_adaptive_sources_fall_back_and_match():
    # A west-edge corner source of a 2-D mesh launches its step-1 worm
    # and its own coverage worm at once, and they meet on one channel:
    # the DES queues one behind the other, which the sweep refuses.
    dims = (4, 4)
    sources = [(0, 0), (0, 3), (1, 1)]
    profile = SimProfile()
    event = run_single_broadcasts("AB", dims, sources, 100)
    batched = run_batch_broadcasts("AB", dims, sources, 100, profile=profile)
    assert_outcomes_identical(batched, event)
    assert profile.batch_sources_fallback == 2
    assert profile.batch_sources_batched == 1


def test_tied_walk_ends_are_ordered_like_the_event_engine(monkeypatch):
    # On 16x16x16 at L=100 every step-3 coverage worm outruns its
    # deliveries (127 hops), so each fires a batch of them when its walk
    # ends.  In these sources several planes' worms end their walks at
    # the same instant with different value sequences (one misses the
    # source node): only the DES event order fixes the arrival order.
    from repro.core.executors import _BroadcastRun

    dims = (16, 16, 16)
    sources = [(2, 3, 7), (0, 5, 3)]
    hooks = []
    on_delivery = _BroadcastRun.on_delivery

    def spy(run, record):
        now = run.executor.network.env.now
        hooks.append((now, record.message_uid, record.time))
        on_delivery(run, record)

    monkeypatch.setattr(_BroadcastRun, "on_delivery", spy)
    event = []
    for source in sources:
        hooks.clear()
        event += run_single_broadcasts("AB", dims, [source], 100)
        runs = {}
        for now, uid, value in hooks:
            runs.setdefault(now, {}).setdefault(uid, []).append(value)
        assert any(
            len({tuple(v) for v in by_uid.values()}) > 1
            for by_uid in runs.values()
        ), source
    monkeypatch.undo()

    profile = SimProfile()
    batched = run_batch_broadcasts("AB", dims, sources, 100, profile=profile)
    assert_outcomes_identical(batched, event)
    assert profile.batch_sources_fallback == 0


def test_busy_adaptive_first_hop_falls_back(monkeypatch):
    # Both worms leave (0, 0) at once.  The plan routes the adaptive one
    # over its first candidate, east, behind the first worm (a
    # first-channel handover) — but it chooses right after start-up,
    # when east is held, so the DES sends it north instead.
    source = (0, 0)
    row = [(0, 0), (1, 0), (2, 0), (3, 0)]
    schedule = BroadcastSchedule(
        algorithm="HAND",
        source=source,
        steps=[
            BroadcastStep(
                1,
                [
                    PathSend(
                        source=source,
                        deliveries=frozenset(row[1:]),
                        path=Path(row, row[1:]),
                    ),
                    PathSend(
                        source=source,
                        deliveries=frozenset({(2, 2)}),
                        waypoints=(source, (2, 2)),
                    ),
                ],
            )
        ],
    )
    algorithm = type(
        "HandAdaptive",
        (BroadcastAlgorithm,),
        {
            "name": "HAND",
            "ports_required": 2,
            "adaptive": True,
            "make_routing": classmethod(lambda cls, mesh: WestFirst(mesh)),
            "build_schedule": lambda self, _source: schedule,
        },
    )
    monkeypatch.setitem(ALGORITHMS, "HAND", algorithm)
    profile = SimProfile()
    event = run_single_broadcasts("HAND", (4, 4), [source], 32)
    batched = run_batch_broadcasts(
        "HAND", (4, 4), [source], 32, profile=profile
    )
    assert_outcomes_identical(batched, event)
    assert profile.batch_sources_fallback == 1


# ------------------------------------------- first-channel handovers
@pytest.mark.parametrize(
    "dims, length, ports, sources",
    [
        # Fig. 1 sizes and message length.
        ((4, 4, 4), 100, None, random_sources((4, 4, 4), 3, seed=4)),
        ((8, 8, 8), 100, None, random_sources((8, 8, 8), 3, seed=4)),
        ((10, 10, 10), 100, None, random_sources((10, 10, 10), 3, seed=4)),
        # Sources with a worm whose port frees at exactly the completion
        # of its first-channel predecessor (R == begin + Ts), so the DES
        # may pop the channel release or the request first.
        ((4, 4, 8), 512, None, [(1, 1, 1)]),
        ((4, 4, 4), 32, 2, [(2, 3, 3), (2, 2, 2)]),
    ],
)
def test_edn_batches_every_source(dims, length, ports, sources):
    # EDN launchers send up to three worms at once whose paths share
    # their first channel; the sweep models that FIFO handover, so no
    # source falls back.
    profile = SimProfile()
    event = run_single_broadcasts(
        "EDN", dims, sources, length, ports_override=ports
    )
    batched = run_batch_broadcasts(
        "EDN", dims, sources, length, ports_override=ports, profile=profile
    )
    assert_outcomes_identical(batched, event)
    assert profile.batch_sources_fallback == 0
    assert profile.batch_sources_batched == len(sources)


def test_edn_batches_on_the_largest_fig1_mesh():
    dims = (16, 16, 16)
    profile = SimProfile()
    run_batch_broadcasts(
        "EDN", dims, random_sources(dims, 1, seed=4), 100, profile=profile
    )
    assert profile.batch_sources_fallback == 0
    assert profile.batch_sources_batched == 1


def _run_hand_built(monkeypatch, sends, dims, length, startup_latency=1.5):
    """Run a one-step, two-port schedule of explicit paths on both engines.

    ``sends`` is a list of ``(path nodes, deliveries)``; the first
    path's first node is the broadcast source.  Returns the event
    engine's outcome and the batched run's profile, after checking the
    two engines agree.
    """
    source = tuple(sends[0][0][0])
    schedule = BroadcastSchedule(
        algorithm="HAND",
        source=source,
        steps=[
            BroadcastStep(
                1,
                [
                    PathSend(
                        source=tuple(path[0]),
                        deliveries=frozenset(deliveries),
                        path=Path(path, deliveries),
                    )
                    for path, deliveries in sends
                ],
            )
        ],
    )
    algorithm = type(
        "HandBuilt",
        (BroadcastAlgorithm,),
        {
            "name": "HAND",
            "ports_required": 2,
            "build_schedule": lambda self, _source: schedule,
        },
    )
    monkeypatch.setitem(ALGORITHMS, "HAND", algorithm)
    kwargs = dict(startup_latency=startup_latency)
    profile = SimProfile()
    event = run_single_broadcasts("HAND", dims, [source], length, **kwargs)
    batched = run_batch_broadcasts(
        "HAND", dims, [source], length, profile=profile, **kwargs
    )
    assert_outcomes_identical(batched, event)
    return event[0], profile


def test_shared_first_channel_hands_over_and_batches(monkeypatch):
    # Both worms leave (0, 0) over (0, 0)->(1, 0) at the same instant;
    # the second queues there until the first completes, then walks on.
    outcome, profile = _run_hand_built(
        monkeypatch,
        [
            ([(0, 0), (1, 0), (2, 0), (3, 0)], [(1, 0), (2, 0), (3, 0)]),
            ([(0, 0), (1, 0), (1, 1), (1, 2)], [(1, 1), (1, 2)]),
        ],
        (4, 4),
        32,
    )
    assert profile.batch_sources_batched == 1
    assert profile.batch_sources_fallback == 0
    # The second worm's deliveries come after the first worm's last.
    assert outcome.arrivals[(1, 1)] > outcome.arrivals[(3, 0)]


def test_two_launchers_on_one_channel_fall_back(monkeypatch):
    # (1, 1) relaunches over (2, 0)->(3, 0) while the source's first
    # worm still holds it (a 0.001 us start-up makes that possible):
    # the DES blocks there, so the source must run event-driven.
    _, profile = _run_hand_built(
        monkeypatch,
        [
            ([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)], [(5, 0)]),
            ([(0, 0), (0, 1), (1, 1)], [(1, 1)]),
            ([(1, 1), (2, 1), (2, 0), (3, 0)], [(3, 0)]),
        ],
        (6, 2),
        64,
        startup_latency=0.001,
    )
    assert profile.batch_sources_fallback == 1


def test_remerging_worms_of_one_launcher_fall_back(monkeypatch):
    # Two worms leave (0, 0) on different channels and meet on
    # (2, 1)->(3, 1), claiming it at the same instant: not a
    # first-channel handover, so the source must run event-driven.
    _, profile = _run_hand_built(
        monkeypatch,
        [
            ([(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)], [(3, 1)]),
            ([(0, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)], [(3, 2)]),
        ],
        (4, 3),
        32,
    )
    assert profile.batch_sources_fallback == 1


# --------------------------------------------------------------- faults
def check_unused_fault_falls_back(name, sources):
    """A fault on a channel no schedule uses: all sources fall back."""
    from repro.core.registry import get_algorithm
    from repro.network.topology import Mesh
    from repro.sim.batch import plan_broadcast

    dims = (4, 4)
    mesh = Mesh(dims)
    nodes = list(mesh.nodes())
    node_index = {coord: i for i, coord in enumerate(nodes)}
    cls = get_algorithm(name)
    algorithm = cls(mesh)
    routing = cls.make_routing(mesh) if cls.adaptive else None
    used = set()
    for source in sources:
        plan = plan_broadcast(
            algorithm.schedule(source), node_index, len(nodes), routing
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
    pristine = run_single_broadcasts(name, dims, sources, 64)
    batched = run_batch_broadcasts(
        name, dims, sources, 64, faults=[unused], profile=profile
    )
    assert_outcomes_identical(batched, pristine)
    assert profile.batch_sources_batched == 0
    assert profile.batch_sources_fallback == len(sources)


def test_faulty_topology_forces_event_fallback():
    # Any declared fault disqualifies the whole batch: the event
    # engine is the defined semantics for faulty topologies.  A fault
    # on a channel no schedule uses must leave results identical to
    # the pristine run while every source reports as fallback.
    check_unused_fault_falls_back("DB", [(0, 0), (1, 1)])


def test_faulty_topology_forces_event_fallback_for_adaptive():
    # AB batches on a pristine mesh; a declared fault still sends every
    # source to the event engine, whose adaptive worms route around it.
    check_unused_fault_falls_back("AB", [(1, 1), (2, 2)])


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


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("algorithm", ["RD", "DB"])
def test_zero_port_unit_fails_like_a_negative_one(engine, algorithm):
    # ports_override=0 is a port count, not "unset": it hashes to its
    # own unit, so it must not quietly run with the default ports.
    def spec(ports):
        return UnitSpec(
            experiment="ablation",
            kind="broadcast",
            algorithm=algorithm,
            dims=(4, 4),
            length_flits=32,
            seed=0,
            replication=0,
            params=freeze_params(ports_override=ports),
        )

    for ports in (-1, 0):
        with pytest.raises(ValueError, match="ports_per_node must be >= 1"):
            execute_unit(spec(ports), engine=engine)
    assert execute_unit(spec(1), engine=engine).result["delivered"] == 15


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "params, barrier_cv, barrier_latency",
    [
        ({}, 0.06976460768076856, 5.526),
        ({"max_destinations_per_path": 8}, 0.16956339716187482, 7.371),
        ({"ports_override": 1}, 0.070462638352075, 9.141),
    ],
)
def test_barrier_twin_measures_the_declared_broadcast(
    engine, params, barrier_cv, barrier_latency
):
    # The barrier twin runs the same AB (destination limit) on the same
    # port budget as the unit's event-driven broadcast.
    spec = UnitSpec(
        experiment="service",
        kind="broadcast",
        algorithm="AB",
        dims=(8, 8, 8),
        length_flits=100,
        seed=0,
        replication=0,
        params=freeze_params(barrier=True, **params),
    )
    result = execute_unit(spec, engine=engine).result
    assert result["barrier_cv"] == pytest.approx(barrier_cv, rel=1e-12)
    assert result["barrier_network_latency"] == pytest.approx(
        barrier_latency, rel=1e-12
    )


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


# ------------------------------------------------------------ end to end
def test_fig1_smoke_rows_identical_across_engines(monkeypatch):
    from repro.experiments.fig1 import run_fig1

    monkeypatch.setenv(BROADCAST_ENGINE_ENV, "event")
    event = run_fig1("smoke", 0)
    monkeypatch.setenv(BROADCAST_ENGINE_ENV, "batched")
    batched = run_fig1("smoke", 0)
    assert event == batched
