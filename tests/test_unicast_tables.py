"""Tests for the unicast-table path of RD and EDN.

RD and EDN emit each step's sends once, as integer ``(sender,
receiver)`` pairs.  The batch engine plans straight from the walk table
routed from those pairs (:func:`repro.core.base.unicast_walk_table`,
then :func:`repro.sim.batch.plan_walks`) and ``schedule()``
materialises the same table into ``PathSend`` objects.  These tests
hold both ends:

* the plan equals ``plan_broadcast(algorithm.schedule(s))`` — the
  object path, which stays the oracle — field for field, dtypes
  included;
* the object schedules equal, send for send, the ones the per-holder
  recursions built before the table existed (sha256 pins of their
  flattened sends);
* a batched RD/EDN run whose sources all batch builds no object at all.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from repro.core import ExtendedDominatingNodes, RecursiveDoubling
from repro.core.base import unicast_walk_table
from repro.core.batch_broadcast import run_batch_broadcasts
from repro.core.registry import get_algorithm
from repro.core.schedule import BroadcastSchedule, BroadcastStep, PathSend
from repro.experiments.common import random_sources, run_single_broadcasts
from repro.network.topology import Mesh
from repro.obs.simprof import SimProfile
from repro.routing.dimension_ordered import DimensionOrdered, unicast_walks
from repro.routing.paths import Path
from repro.sim.batch import plan_broadcast, plan_walks


def plan_unicasts(algorithm, source, dims, table, step_count=None):
    """Plan a unicast table the way the batch engine does."""
    return plan_walks(
        algorithm, source, dims, unicast_walk_table(dims, table), step_count
    )


def every_source(dims):
    return list(itertools.product(*(range(d) for d in dims)))


def assert_plans_equal(table_plan, object_plan):
    assert type(table_plan) is type(object_plan)
    for field in dataclasses.fields(object_plan):
        got = getattr(table_plan, field.name)
        want = getattr(object_plan, field.name)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), field.name
            assert got.dtype == want.dtype, field.name
            assert got.shape == want.shape, field.name
            assert np.array_equal(got, want), field.name
        else:
            assert type(got) is type(want), field.name
            assert got == want, field.name


def check_oracle(name, dims, sources):
    mesh = Mesh(dims)
    algorithm = get_algorithm(name)(mesh)
    node_index = {coord: i for i, coord in enumerate(mesh.nodes())}
    for source in sources:
        table = algorithm.unicast_table(source)
        assert len(table) == algorithm.step_count()
        table_plan = plan_unicasts(
            algorithm.name, source, dims, table, algorithm.step_count()
        )
        object_plan = plan_broadcast(
            algorithm.schedule(source), node_index, mesh.num_nodes
        )
        assert object_plan is not None
        assert_plans_equal(table_plan, object_plan)


# ------------------------------------------------------------- oracle
@pytest.mark.parametrize("name", ["RD", "EDN"])
@pytest.mark.parametrize("dims", [(4, 4, 4), (8, 8, 8)])
def test_table_plan_equals_object_plan_for_every_source(name, dims):
    check_oracle(name, dims, every_source(dims))


@pytest.mark.parametrize(
    "name, dims",
    [("EDN", (8, 8)), ("EDN", (6, 10)), ("RD", (5, 3, 7))],
)
def test_table_plan_equals_object_plan_on_odd_meshes(name, dims):
    check_oracle(name, dims, every_source(dims))


@pytest.mark.parametrize("name", ["RD", "EDN"])
@pytest.mark.parametrize("dims, count", [((10, 10, 10), 8), ((16, 16, 16), 3)])
def test_table_plan_equals_object_plan_on_sampled_sources(name, dims, count):
    check_oracle(name, dims, random_sources(dims, count, seed=21))


def test_unicast_walks_follow_dimension_ordered_routes():
    dims = (3, 5, 4)
    mesh = Mesh(dims)
    coords = list(mesh.nodes())
    pairs = [(a, b) for a in range(0, 60, 7) for b in range(0, 60, 5) if a != b]
    src = np.asarray([a for a, _ in pairs])
    dst = np.asarray([b for _, b in pairs])
    walk_ptr, walk_node = unicast_walks(dims, src, dst)
    dor = DimensionOrdered(mesh)
    for k, (a, b) in enumerate(pairs):
        walk = [coords[i] for i in walk_node[walk_ptr[k] : walk_ptr[k + 1]]]
        assert walk == dor.path(coords[a], coords[b])


# ------------------------------------------------------ static checks
def _table(*steps):
    return [
        (np.asarray(senders, dtype=np.int64), np.asarray(receivers, dtype=np.int64))
        for senders, receivers in steps
    ]


def test_plan_unicasts_enforces_the_closed_form_step_count():
    table = _table(([0], [1]), ([0, 1], [2, 3]))
    with pytest.raises(AssertionError, match="closed form"):
        plan_unicasts("X", (0,), (4,), table, step_count=3)
    assert plan_unicasts("X", (0,), (4,), table, step_count=2) is not None


def test_plan_unicasts_rejects_a_self_send():
    with pytest.raises(ValueError, match="own source"):
        plan_unicasts("X", (0,), (4,), _table(([0, 1], [1, 1])))


def test_plan_unicasts_rejects_a_send_off_the_mesh():
    with pytest.raises(ValueError, match="mesh"):
        plan_unicasts("X", (0,), (4,), _table(([0], [4])))


@pytest.mark.parametrize(
    "table",
    [
        _table(([0], [1]), ([0, 1], [2, 2])),  # node 2 delivered twice
        _table(([1], [0])),  # the source delivered (and 1 never is)
        _table(([0], [1]), ([3], [2])),  # launcher 3 never delivered to
        _table(([], [])),  # nothing to send
        [],
    ],
)
def test_plan_unicasts_declines_ineligible_tables(table):
    assert plan_unicasts("X", (0,), (4,), table) is None


def test_both_planners_decline_a_source_that_sends_nothing():
    # Nodes 1 and 2 feed each other and the source never sends: the
    # event engine never starts them and raises, so the sweep, which
    # starts every broadcast at its source, must not take the source.
    table = _table(([1, 2], [2, 1]))
    assert plan_unicasts("X", (0,), (3,), table) is None
    schedule = BroadcastSchedule(
        "X",
        (0,),
        [
            BroadcastStep(
                1,
                [
                    PathSend(source=(a,), deliveries={(b,)}, path=Path([(a,), (b,)]))
                    for a, b in ((1, 2), (2, 1))
                ],
            )
        ],
    )
    node_index = {(i,): i for i in range(3)}
    assert plan_broadcast(schedule, node_index, 3) is None


# --------------------------------------------------------------- pins
#: sha256 over every send of ``schedule()`` for each source in order,
#: flattened to (step, source, path nodes, sorted deliveries, control).
#: Computed from the per-holder recursions that built RD and EDN
#: schedules before the unicast table replaced them.
SAMPLED_10 = [(0, 9, 0), (5, 0, 5), (1, 2, 2), (4, 6, 8), (4, 1, 4), (9, 0, 0)]
SAMPLED_16 = [(0, 14, 0), (8, 1, 8), (2, 4, 4)]
SCHEDULE_PINS = [
    ("RD", (4, 4, 4), None,
     "a29aed4a911f59621c4e5e3ee37395cd23c3a628a1f158e3ec8b82bfed9e3e99"),
    ("RD", (6, 10), None,
     "acf387794ea8c5ced1287cb12b0837dbc4de8837e35657769bed44af7e5cf8c1"),
    ("RD", (5, 3, 7), None,
     "75d075cbeafb6f903fef340769dbb48fc752ac7286b3a57e76f7829d8d4b7d93"),
    ("RD", (10, 10, 10), SAMPLED_10,
     "be6ae89a42e8f9cf0b5f064b645b3093c9893f69dad1e9ec54584dccb81511b9"),
    ("RD", (16, 16, 16), SAMPLED_16,
     "79a7d42a8b7e990dc2dded88b79684d3776066d5e275c6fac64002dda70c818c"),
    ("EDN", (4, 4, 4), None,
     "f01a3ceb96cfbf1f3d596dc1a6fb7c62fe5f90aa076d67fd56f6e5cf10c2d440"),
    ("EDN", (6, 10), None,
     "a5fd683502eba650bb781f0b83d081750a158193626d07bb4ff7105641a42a0a"),
    ("EDN", (10, 10, 10), SAMPLED_10,
     "7ac69a68f06811c6b5290c1cf3f058bf25fb9e1390724b4146a02ac69b96e11b"),
    ("EDN", (16, 16, 16), SAMPLED_16,
     "166bce34ef759f53a5a9a6a66882208f73158eddbdeda64b18f5b804ed3d6597"),
]


def schedule_digest(name, dims, sources):
    algorithm = get_algorithm(name)(Mesh(dims))
    digest = hashlib.sha256()
    for source in sources:
        for step, send in algorithm.schedule(source).all_sends():
            flat = (
                step,
                send.source,
                send.path.nodes,
                tuple(sorted(send.deliveries)),
                send.control.name,
            )
            digest.update(repr(flat).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name, dims, sources, expected",
    SCHEDULE_PINS,
    ids=[f"{name}-{'x'.join(map(str, dims))}" for name, dims, _, _ in SCHEDULE_PINS],
)
def test_schedules_match_the_pinned_recursions(name, dims, sources, expected):
    sources = every_source(dims) if sources is None else sources
    assert schedule_digest(name, dims, sources) == expected


def test_sampled_pin_sources_are_the_seeded_draws():
    # The pins' sampled sources are spelled out; they are the seeded
    # draws they were taken from.
    assert random_sources((10, 10, 10), 6, 11) == SAMPLED_10
    assert random_sources((16, 16, 16), 3, 11) == SAMPLED_16


# ---------------------------------------------------- no object layer
@pytest.mark.parametrize(
    "name, dims, length",
    [
        ("RD", (8, 8, 8), 100),
        ("EDN", (8, 8, 8), 100),
        ("EDN", (6, 10), 32),
        ("DB", (8, 8, 8), 100),
        ("AB", (8, 8, 8), 100),
        ("DB", (6, 10), 128),
        ("AB", (6, 10), 32),
    ],
)
def test_batched_unicast_runs_build_no_path_objects(
    monkeypatch, name, dims, length
):
    # Every algorithm plans from its walk table (RD and EDN from the
    # unicast table's routes): no source that batches builds objects.
    sources = random_sources(dims, 4, seed=3)
    event = run_single_broadcasts(name, dims, sources, length)
    built = []

    def refuse(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            built.append(cls.__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    refuse(Path)
    refuse(PathSend)
    profile = SimProfile()
    batched = run_batch_broadcasts(name, dims, sources, length, profile=profile)
    assert profile.batch_sources_fallback == 0
    assert built == []
    assert [b.arrivals for b in batched] == [e.arrivals for e in event]


def test_a_falling_back_unicast_source_builds_its_schedule(monkeypatch):
    # A declared fault sends every source to the event engine, which
    # needs the object schedule: it is built then, once per distinct
    # source.  From y = 0, RD moves along x only in row y = 0, so the
    # faulty link is unused and the event runs complete.
    dims = (4, 4)
    sources = [(0, 0), (2, 0), (0, 0)]
    calls = []
    original = RecursiveDoubling.build_schedule

    def counted(self, source):
        calls.append(source)
        return original(self, source)

    monkeypatch.setattr(RecursiveDoubling, "build_schedule", counted)
    run_batch_broadcasts("RD", dims, sources, 32)
    assert calls == []
    run_batch_broadcasts("RD", dims, sources, 32, faults=[((3, 3), (2, 3))])
    assert calls == [(0, 0), (2, 0)]


def test_unicast_table_rejects_an_outside_source():
    with pytest.raises(ValueError, match="outside"):
        ExtendedDominatingNodes(Mesh((8, 8))).unicast_table((8, 0))
