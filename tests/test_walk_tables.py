"""Tests for the walk-table path of DB and AB.

DB and AB emit each step's sends once, as integer walks of row-major
node indices with a delivery mask (:class:`repro.core.base.WalkTable`).
The batch engine plans straight from that table
(:func:`repro.sim.batch.plan_walks`) and ``schedule()`` materialises the
same table into ``PathSend`` objects.  These tests hold both ends:

* the plan equals ``plan_broadcast(algorithm.schedule(s))`` — the
  object path, which stays the oracle — field for field, dtypes
  included;
* the object schedules equal, send for send, the ones the constructions
  built before the table existed (sha256 pins of their flattened sends);
* the planner declines degenerate tables and raises on malformed ones;
* a source that falls back builds its object schedule once.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.core import AdaptiveBroadcast
from repro.core.base import StepWalks, WalkTable
from repro.core.batch_broadcast import run_batch_broadcasts
from repro.core.registry import make_algorithm
from repro.experiments.common import random_sources, run_single_broadcasts
from repro.network.message import ControlField
from repro.network.topology import Mesh
from repro.obs.simprof import SimProfile
from repro.sim.batch import plan_broadcast, plan_walks
from test_unicast_tables import assert_plans_equal


def every_source(dims):
    return list(itertools.product(*(range(d) for d in dims)))


# --------------------------------------------------------------- pins
#: Seeded draws ``random_sources(dims, count, 11)``, as in the RD/EDN pins.
SAMPLED_10 = [(0, 9, 0), (5, 0, 5), (1, 2, 2), (4, 6, 8), (4, 1, 4), (9, 0, 0)]
SAMPLED_16 = [(0, 14, 0), (8, 1, 8), (2, 4, 4)]
PIN_MESHES = [
    ((4, 4, 4), None),
    ((5, 3, 7), None),
    ((4, 4, 16), None),
    ((8, 8), None),
    ((6, 10), None),
    ((10, 10, 10), SAMPLED_10),
    ((16, 16, 16), SAMPLED_16),
]
PIN_VARIANTS = [
    ("DB", None), ("AB", None), ("AB", 32), ("AB", 16), ("AB", 8), ("AB", 3),
]


def schedule_digest(name, dims, sources, max_dest=None):
    """sha256 over every send of ``schedule()`` for each source in order.

    A send is flattened to (step, source, path nodes, waypoints, sorted
    deliveries, control); exactly one of path nodes and waypoints is
    ``None``.
    """
    algorithm = make_algorithm(name, Mesh(dims), max_dest)
    digest = hashlib.sha256()
    for source in sources:
        for step, send in algorithm.schedule(source).all_sends():
            flat = (
                step,
                send.source,
                None if send.path is None else send.path.nodes,
                send.waypoints,
                tuple(sorted(send.deliveries)),
                send.control.name,
            )
            digest.update(repr(flat).encode() + b"\n")
    return digest.hexdigest()


SCHEDULE_PINS = {
    ("DB", None, (4, 4, 4)):
        "3a48eabf2eb51bd92ff301ffa7ccf66a9dad3f7254728663c1b374c5673a01cc",
    ("DB", None, (5, 3, 7)):
        "50e1df9555588dbc2c1a4a1f7421a31c400e5e9de7bddf38642d88c3017ee5c8",
    ("DB", None, (4, 4, 16)):
        "b11b32fe9376b1e332b025ce42230e05f1c46d7aacf117d0ebe12e4e1cf4bb60",
    ("DB", None, (8, 8)):
        "8b910447dd5592871b4fb957117c8677ef857267411a977840b8fa00353e658e",
    ("DB", None, (6, 10)):
        "f4697708756fbdb561f6139c0b4b1698f79944911a7e13b2d5160b406f1d96e8",
    ("DB", None, (10, 10, 10)):
        "c2c2d7bb0b1ccedd5092ba84f1ec56d2bfecea4eefaf0bdc218a2c74822b0f58",
    ("DB", None, (16, 16, 16)):
        "15da38f5d0ff9180a08fcc9d6aacd6519346bcc332b5c302d7e476bf56885842",
    ("AB", None, (4, 4, 4)):
        "9a1973fa402f68e01525416415b2ecd77a1c5eeeff27b80bfaf2e4aa0d43606b",
    ("AB", None, (5, 3, 7)):
        "507d2adf3356951c5f9d39b4683b8359be71646dec85698fb6965a228e1e7735",
    ("AB", None, (4, 4, 16)):
        "dad442dac1004a3b73ffe928f158da7a8735e6c1f0f68d3b9725f6b2276cb1b2",
    ("AB", None, (8, 8)):
        "32b2d109ba7e475930db157bee2d0121e54b19e99a843f783c6b28b96214c92b",
    ("AB", None, (6, 10)):
        "00413ac4a036993872280f0f4b4a069f3e96bc2297e605f817bc3e9661d8868b",
    ("AB", None, (10, 10, 10)):
        "7a25810ca24fbfa65722671b1e51240e90d1f9c0b580604cc7fcf9a04bf53f54",
    ("AB", None, (16, 16, 16)):
        "be17d551b270e068bf7bf36628b9bdf7e52ffebabd5ab1980e0559fc0e9fb3a2",
    ("AB", 32, (4, 4, 4)):
        "9a1973fa402f68e01525416415b2ecd77a1c5eeeff27b80bfaf2e4aa0d43606b",
    ("AB", 32, (5, 3, 7)):
        "507d2adf3356951c5f9d39b4683b8359be71646dec85698fb6965a228e1e7735",
    ("AB", 32, (4, 4, 16)):
        "dad442dac1004a3b73ffe928f158da7a8735e6c1f0f68d3b9725f6b2276cb1b2",
    ("AB", 32, (8, 8)):
        "32b2d109ba7e475930db157bee2d0121e54b19e99a843f783c6b28b96214c92b",
    ("AB", 32, (6, 10)):
        "00413ac4a036993872280f0f4b4a069f3e96bc2297e605f817bc3e9661d8868b",
    ("AB", 32, (10, 10, 10)):
        "08b7ad914501381934bc1e94f6c1c946efde26d4121a270f85d5e65171b19b69",
    ("AB", 32, (16, 16, 16)):
        "06191ef3fd424b7272329acf3a303f5b1548dbe6d8ce224d11f3c7976ea762ac",
    ("AB", 16, (4, 4, 4)):
        "9a1973fa402f68e01525416415b2ecd77a1c5eeeff27b80bfaf2e4aa0d43606b",
    ("AB", 16, (5, 3, 7)):
        "507d2adf3356951c5f9d39b4683b8359be71646dec85698fb6965a228e1e7735",
    ("AB", 16, (4, 4, 16)):
        "dad442dac1004a3b73ffe928f158da7a8735e6c1f0f68d3b9725f6b2276cb1b2",
    ("AB", 16, (8, 8)):
        "51097a2efa97c23da1ed6479ae4f43b1ab868bab406cc1b4fe6cdc75213789aa",
    ("AB", 16, (6, 10)):
        "63615497c63ca8be1692a2b5662394e4104c7625a09da879ed567b6a9401e465",
    ("AB", 16, (10, 10, 10)):
        "6246ff64877cdf67c40aa6efdc5feba125bf2fedc67b205f479d4b717a932cb0",
    ("AB", 16, (16, 16, 16)):
        "a8160d6e623822f3b9ec5c8b251259d0983724fce7182ee6a38e5bec53ac9827",
    ("AB", 8, (4, 4, 4)):
        "9a1973fa402f68e01525416415b2ecd77a1c5eeeff27b80bfaf2e4aa0d43606b",
    ("AB", 8, (5, 3, 7)):
        "52c0427eefa7c3602f4ae50368a7f1721b4667fc17f5a03275dcc0ad35e2d1f1",
    ("AB", 8, (4, 4, 16)):
        "dad442dac1004a3b73ffe928f158da7a8735e6c1f0f68d3b9725f6b2276cb1b2",
    ("AB", 8, (8, 8)):
        "676f5f495d3b0302682e8d7096e766aee3f7c2cc13ad4054b80edc9572d67736",
    ("AB", 8, (6, 10)):
        "b1f7b90a0cb64e7750c7ac67bb674f4600b844b5cf24c5baf26b8374e6921f45",
    ("AB", 8, (10, 10, 10)):
        "e012ed9a83f843cf608981e81f1a48b2e16974c935cadce3526adf5480162f0f",
    ("AB", 8, (16, 16, 16)):
        "c02cf2041ab588eb25544b1a3ac62f938043efc0d64b4c08dd070addd9dc075a",
    ("AB", 3, (4, 4, 4)):
        "bb64605bd833500aeb7702d69d655020468989309f47dde036441719f319a77e",
    ("AB", 3, (5, 3, 7)):
        "d25e9e8e702464aadc0cbd3da00411d378d29a86c11278fd80a49445b8187eee",
    ("AB", 3, (4, 4, 16)):
        "3d1472c99fcba7f8582873e00a55f26968dd3ff7de32e449cdc23f7c8facde9c",
    ("AB", 3, (8, 8)):
        "06c5532ec5a61c3abf272ed12b81c68f8e7d97e49c743cde8161fbe77383e9a4",
    ("AB", 3, (6, 10)):
        "5959df38b6a0181105b07d37e6f11a3b5f21e88e7d9ffa18693881ccbabc6091",
    ("AB", 3, (10, 10, 10)):
        "b9709be67df40c36b1b2272ad645412027e634908eb9e33b8e6be182b96630c0",
    ("AB", 3, (16, 16, 16)):
        "907b4abeef30425a867a4c969568e165b021337fd58ac68289b1ef71b9926661",
}


@pytest.mark.parametrize(
    "name, max_dest", PIN_VARIANTS,
    ids=[f"{name}-{max_dest}" for name, max_dest in PIN_VARIANTS],
)
@pytest.mark.parametrize(
    "dims, sources", PIN_MESHES,
    ids=["x".join(map(str, dims)) for dims, _ in PIN_MESHES],
)
def test_schedules_match_the_pinned_constructions(name, max_dest, dims, sources):
    sources = every_source(dims) if sources is None else sources
    expected = SCHEDULE_PINS[name, max_dest, dims]
    assert schedule_digest(name, dims, sources, max_dest) == expected


# ------------------------------------------------------------- oracle
ORACLE_VARIANTS = [("DB", None), ("AB", None), ("AB", 32), ("AB", 16), ("AB", 8)]


@pytest.mark.parametrize(
    "name, max_dest", ORACLE_VARIANTS,
    ids=[f"{name}-{max_dest}" for name, max_dest in ORACLE_VARIANTS],
)
@pytest.mark.parametrize(
    "dims, sources", PIN_MESHES,
    ids=["x".join(map(str, dims)) for dims, _ in PIN_MESHES],
)
def test_walk_plan_equals_object_plan(name, max_dest, dims, sources):
    mesh = Mesh(dims)
    algorithm = make_algorithm(name, mesh, max_dest)
    routing = algorithm.make_routing(mesh) if algorithm.adaptive else None
    node_index = {coord: i for i, coord in enumerate(mesh.nodes())}
    for source in every_source(dims) if sources is None else sources:
        table = algorithm.walk_table(source)
        assert table.step_ptr.size - 1 == algorithm.step_count()
        walk_plan = plan_walks(
            algorithm.name, source, dims, table, algorithm.step_count()
        )
        object_plan = plan_broadcast(
            algorithm.schedule(source), node_index, mesh.num_nodes, routing
        )
        assert object_plan is not None
        assert_plans_equal(walk_plan, object_plan)


def test_adaptive_worms_carry_their_first_hop_choice():
    # From (1, 1) of 4x4 the step-1 worms head for (0, 0) (west: one
    # candidate) and (3, 3) (east or north: a choice); pillars and
    # coverage worms never choose.
    table = make_algorithm("AB", Mesh((4, 4))).walk_table((1, 1))
    assert table.routed == (True, False)
    assert table.first_choice.tolist()[:2] == [False, True]
    assert not table.first_choice[2:].any()
    table = make_algorithm("AB", Mesh((4, 4, 4))).walk_table((1, 1, 1))
    assert table.routed == (True, True, False)
    assert table.controls == (
        ControlField.PASS_AND_RECEIVE,
        ControlField.RECEIVE_AND_REPLICATE,
        ControlField.PASS_AND_RECEIVE,
    )


@pytest.mark.parametrize("name", ["DB", "AB"])
@pytest.mark.parametrize("ports", [1, 2, 3])
@pytest.mark.parametrize(
    "dims, length", [((4, 4, 8), 100), ((6, 10), 64), ((5, 3, 7), 32)]
)
def test_port_overrides_match_the_event_engine(name, ports, dims, length):
    sources = random_sources(dims, 6, seed=7)
    event = run_single_broadcasts(
        name, dims, sources, length, ports_override=ports
    )
    batched = run_batch_broadcasts(
        name, dims, sources, length, ports_override=ports
    )
    for b, e in zip(batched, event):
        assert b == e
        assert list(b.arrivals.values()) == list(e.arrivals.values())


# ------------------------------------------------------ static checks
def _table(*walks):
    """One step of pre-routed walks, each ``(nodes, delivered flags)``."""
    ptr = np.cumsum([0] + [len(nodes) for nodes, _ in walks])
    return WalkTable.join([
        StepWalks(
            ptr.astype(np.int64),
            np.asarray([n for nodes, _ in walks for n in nodes], dtype=np.int64),
            np.asarray([d for _, flags in walks for d in flags], dtype=bool),
            ControlField.PASS_AND_RECEIVE,
        )
    ])


@pytest.mark.parametrize(
    "table",
    [
        # Nodes 1 and 2 feed each other; the source never sends.
        _table(([1, 2, 3], [0, 1, 1]), ([2, 1], [0, 1])),
        # Node 2 is delivered by both worms.
        _table(([0, 1, 2], [0, 1, 1]), ([0, 1, 2, 3], [0, 0, 1, 1])),
        # Launcher 3 is never delivered to.
        _table(([0, 1], [0, 1]), ([3, 2], [0, 1])),
        # The source is delivered.
        _table(([0, 1], [0, 1]), ([1, 0], [0, 1])),
        # Nothing to send.
        WalkTable.join([]),
    ],
    ids=["source-sends-nothing", "delivered-twice", "unreachable-launcher",
         "source-delivered", "empty"],
)
def test_plan_walks_declines_degenerate_tables(table):
    assert plan_walks("X", (0,), (4,), table) is None


@pytest.mark.parametrize(
    "table, message",
    [
        (_table(([0, 1, 2, 3, 4], [0, 1, 1, 1, 1])), "mesh"),
        (_table(([0, 1], [0, 1]), ([1, 2], [0, 0])), "at least one"),
        (_table(([0, 1], [0, 1]), ([1, 2, 1], [0, 1, 1])), "own source"),
    ],
    ids=["off-mesh", "delivers-nowhere", "delivers-to-launcher"],
)
def test_plan_walks_rejects_malformed_tables(table, message):
    with pytest.raises(ValueError, match=message):
        plan_walks("X", (0,), (4,), table)


def test_plan_walks_enforces_the_closed_form_step_count():
    table = _table(([0, 1, 2, 3], [0, 1, 1, 1]))
    with pytest.raises(AssertionError, match="closed form"):
        plan_walks("X", (0,), (4,), table, step_count=2)
    assert plan_walks("X", (0,), (4,), table, step_count=1) is not None


# --------------------------------------------------------- fallback
@pytest.mark.parametrize(
    "dims, sources, contended",
    [
        ((4, 4), [(0, 0), (1, 1), (0, 3), (0, 0)], [(0, 0), (0, 3)]),
        ((8, 8), [(3, 4), (0, 7)], [(0, 7)]),
    ],
)
def test_a_contended_ab_source_builds_its_schedule_once(
    monkeypatch, dims, sources, contended
):
    # A west-edge corner source of a 2-D mesh sends its step-1 worm and
    # its own coverage worm onto one channel, so the sweep hands it
    # back: only then is its object schedule built, once per distinct
    # source, and the event engine's outcome is the batched one.
    event = run_single_broadcasts("AB", dims, sources, 100)
    calls = []
    original = AdaptiveBroadcast.build_schedule

    def counted(self, source):
        calls.append(source)
        return original(self, source)

    monkeypatch.setattr(AdaptiveBroadcast, "build_schedule", counted)
    profile = SimProfile()
    batched = run_batch_broadcasts("AB", dims, sources, 100, profile=profile)
    assert calls == contended
    assert profile.batch_sources_fallback == sum(
        source in contended for source in sources
    )
    for b, e in zip(batched, event):
        assert b == e
        assert list(b.arrivals.values()) == list(e.arrivals.values())
