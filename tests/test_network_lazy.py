"""The lazily built channel map of :class:`NetworkSimulator`.

Channels are created on first lookup.  Everything observable — the
mapping views, lookups, faults, simulated times and channel
utilisations — must read exactly as with every channel built up front.
"""

import itertools

import numpy as np
import pytest

from repro.core.adaptive_broadcast import AdaptiveBroadcast
from repro.core.deterministic_broadcast import DeterministicBroadcast
from repro.core.executors import EventDrivenExecutor
from repro.network import Mesh, NetworkConfig, NetworkSimulator
from repro.network.faults import FaultModel
from repro.network.topology import Topology
from repro.traffic import MixedTrafficConfig, MixedTrafficSimulation


def built(net):
    """Channels created so far (``len`` itself would build them all)."""
    return dict.__len__(net.channels)


def eager(net):
    """Turn ``net`` into an eagerly built network: create every channel."""
    len(net.channels)
    assert built(net) == sum(1 for _ in net.topology.channels())
    return net


# --------------------------------------------------------- mapping views
@pytest.mark.parametrize("topology", [Mesh((3, 4)), Mesh((2, 3, 2))])
def test_views_equal_an_eager_dict(topology):
    reference = {key: None for key in topology.channels()}
    net = NetworkSimulator(topology)
    # Touch a channel late in topology order first: full views must
    # still come back in topology order.
    last = list(reference)[-1]
    late = net.channel(*last)
    assert built(net) == 1
    probes = list(reference) + [
        ((0, 0), (0, 0)),
        ((0,) * topology.ndim, (5,) * topology.ndim),
        ((-1,) + (0,) * (topology.ndim - 1), (0,) * topology.ndim),
        ("not", "a channel"),
        (1, 2, 3),
    ]
    for key in probes:
        assert (key in net.channels) == (key in reference)
        assert (net.channels.get(key) is None) == (key not in reference)
    assert len(net.channels) == len(reference)
    assert list(net.channels) == list(reference)
    assert list(net.channels.keys()) == list(reference)
    assert [(c.src, c.dst) for c in net.channels.values()] == list(reference)
    assert [k for k, _ in net.channels.items()] == list(reference)
    assert net.channels[last] is late


def test_lookup_builds_one_channel_with_plain_int_coordinates():
    net =NetworkSimulator(Mesh((4, 4)))
    channel = net.channel(np.array([1, 1]), np.array([1, 2]))
    assert built(net) == 1
    assert channel.src == (1, 1) and type(channel.src[0]) is int
    assert net.channel((1, 1), (1, 2)) is channel


def test_channel_lookup_rejects_non_channels():
    net = NetworkSimulator(Mesh((3, 3)))
    for u, v in [((0, 0), (2, 2)), ((0, 0), (0, 0)), ((2, 0), (3, 0)),
                 ((3, 0), (2, 0)), ((0, 0), (0, 0, 1))]:
        with pytest.raises(KeyError):
            net.channel(u, v)
    with pytest.raises(KeyError):
        net.channels[(0, 0)]
    assert built(net) == 0


# ----------------------------------------------------------------- faults
def test_fail_channel_on_a_channel_never_built():
    net = NetworkSimulator(Mesh((4, 4)))
    model = FaultModel(net)
    model.fail_channel((2, 2), (2, 3))
    assert built(net) == 2
    assert net.channel((2, 2), (2, 3)).faulty
    assert net.channel((2, 3), (2, 2)).faulty
    assert net.channel_load((2, 2), (2, 3)) == float("inf")
    model.repair_all()
    assert not net.channel((2, 2), (2, 3)).faulty
    with pytest.raises(KeyError):
        model.fail_channel((0, 0), (2, 2))


def test_fail_random_links_keeps_the_draws_and_stays_lazy():
    net = NetworkSimulator(Mesh((8, 8, 8)), seed=11)
    chosen = FaultModel(net).fail_random_links(6)
    # The links an eagerly built network drew for this seed.
    assert chosen == [
        ((7, 3, 6), (7, 4, 6)),
        ((2, 6, 5), (3, 6, 5)),
        ((5, 5, 0), (5, 6, 0)),
        ((6, 6, 4), (6, 7, 4)),
        ((5, 1, 4), (5, 2, 4)),
        ((7, 0, 3), (7, 0, 4)),
    ]
    assert built(net) == 12  # both directions of the six links
    assert built(net) < sum(1 for _ in net.topology.channels())


# ---------------------------------------------------- simulated exactness
def _db_run(net, mesh, source):
    algorithm = DeterministicBroadcast(mesh)
    return EventDrivenExecutor(net).execute(algorithm.schedule(source), 128)


def test_idle_adaptive_broadcast_builds_a_fraction_of_the_channels():
    mesh = Mesh((16, 16, 16))
    net = NetworkSimulator(mesh, NetworkConfig(ports_per_node=2))
    algorithm = AdaptiveBroadcast(mesh)
    executor = EventDrivenExecutor(
        net, adaptive_routing=AdaptiveBroadcast.make_routing(mesh)
    )
    outcome = executor.execute(algorithm.schedule((3, 9, 5)), 64)
    assert len(outcome.arrivals) == mesh.num_nodes - 1
    assert built(net) < 23_040


@pytest.mark.parametrize("source", [(0, 0, 0), (5, 2, 7), (3, 6, 1)])
def test_event_broadcast_identical_to_an_eager_network(source):
    mesh = Mesh((8, 8, 8))
    config = NetworkConfig(ports_per_node=2)
    lazy_net = NetworkSimulator(mesh, config)
    eager_net = eager(NetworkSimulator(mesh, config))
    lazy = _db_run(lazy_net, mesh, source)
    reference = _db_run(eager_net, mesh, source)
    assert built(lazy_net) < built(eager_net)
    assert lazy == reference
    assert list(lazy.arrivals.values()) == list(reference.arrivals.values())
    for name in ("max_channel_utilisation", "mean_channel_utilisation"):
        assert getattr(lazy_net, name)() == getattr(eager_net, name)()
    assert [ch.resource.grants for ch in lazy_net.channels.values()] == [
        ch.resource.grants for ch in eager_net.channels.values()
    ]


def test_mixed_traffic_identical_to_an_eager_network():
    def simulation():
        config = MixedTrafficConfig(
            load_messages_per_ms=3.0,
            broadcast_fraction=0.3,
            batch_size=8,
            num_batches=3,
            discard=1,
            seed=5,
        )
        return MixedTrafficSimulation(Mesh((4, 4, 2)), "DB", config)

    lazy_sim, eager_sim = simulation(), simulation()
    lazy_net, eager_net = lazy_sim.network, eager(eager_sim.network)
    assert lazy_sim.run() == eager_sim.run()
    for name in ("max_channel_utilisation", "mean_channel_utilisation"):
        assert getattr(lazy_net, name)() == getattr(eager_net, name)()


# ------------------------------------------------------ Mesh.are_adjacent
@pytest.mark.parametrize("dims", [(3, 4), (2, 3, 2)])
def test_mesh_are_adjacent_matches_the_generic_test(dims):
    mesh = Mesh(dims)
    nodes = list(mesh.nodes())
    for u, v in itertools.product(nodes, nodes):
        assert mesh.are_adjacent(u, v) == Topology.are_adjacent(mesh, u, v)
    outside = [
        (-1,) + (0,) * (len(dims) - 1),
        tuple(dims),
        (dims[0],) + (0,) * (len(dims) - 1),
        (0,) * (len(dims) + 1),
        (0,) * (len(dims) - 1),
    ]
    for u in nodes:
        for v in outside:
            assert mesh.are_adjacent(u, v) is False
            assert Topology.are_adjacent(mesh, u, v) is False
    for u in outside:
        with pytest.raises(ValueError):
            mesh.are_adjacent(u, nodes[0])
        with pytest.raises(ValueError):
            Topology.are_adjacent(mesh, u, nodes[0])
