"""The assembled network simulator.

:class:`NetworkSimulator` wires a topology to the simulation kernel:
one :class:`~repro.network.node.Node` per coordinate, one
:class:`~repro.network.channel.Channel` per directed link (built on
first use), shared timing constants, and delivery bookkeeping.  It is the object every
executor, traffic generator and experiment works through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.network.channel import Channel, ChannelTiming
from repro.network.coordinates import Coordinate
from repro.network.message import DeliveryRecord
from repro.network.node import Node
from repro.network.topology import Topology
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams

__all__ = ["NetworkConfig", "NetworkSimulator"]

#: Paper constants (§3): start-up latencies examined, per-flit time.
PAPER_STARTUP_LATENCY_HIGH = 1.5  # µs
PAPER_STARTUP_LATENCY_LOW = 0.15  # µs
PAPER_FLIT_TIME = 0.003  # µs


@dataclass(frozen=True)
class NetworkConfig:
    """Simulator-wide parameters (times in µs, as in the paper).

    Parameters
    ----------
    startup_latency:
        Software send overhead ``Ts`` paid once per injected worm.
        The paper studies 0.15 and 1.5 µs (Cray T3D-class values).
    flit_time:
        Channel time per flit (``β`` = 0.003 µs in the paper).
    router_delay:
        Additional per-hop header delay (0 in the paper's model).
    ports_per_node:
        Injection-port budget of each router (algorithm-dependent:
        RD 1, EDN 3, DB/AB 2).
    """

    startup_latency: float = PAPER_STARTUP_LATENCY_HIGH
    flit_time: float = PAPER_FLIT_TIME
    router_delay: float = 0.0
    ports_per_node: int = 1

    def __post_init__(self) -> None:
        if self.startup_latency < 0:
            raise ValueError("startup_latency must be >= 0")
        if self.flit_time <= 0:
            raise ValueError("flit_time must be positive")
        if self.router_delay < 0:
            raise ValueError("router_delay must be >= 0")
        if self.ports_per_node < 1:
            raise ValueError("ports_per_node must be >= 1")

    @property
    def timing(self) -> ChannelTiming:
        """Channel-level timing view of this configuration."""
        return ChannelTiming(flit_time=self.flit_time, router_delay=self.router_delay)


class _LazyChannels(dict):
    """The ``(u, v) → Channel`` mapping, each channel built on first use.

    A single-source broadcast touches a fifth to a quarter of a 3-D
    mesh's channels, so building all of them up front dominated the
    cost of a fresh simulator.  A channel created mid-run is exactly
    the one an eager build would hold at that moment: a pristine
    ``Resource`` has no holders, no queue and 0 busy time whenever it
    is created.

    Hits are plain C-level dict lookups (the wormhole walk's hot
    ``channels[(current, nxt)]``); only a miss reaches
    :meth:`__missing__`, which asks the topology whether the channel
    exists.  Every whole-mapping view — ``len``, iteration, ``keys`` /
    ``values`` / ``items`` — first builds the rest and re-orders the
    dict to ``topology.channels()`` order, so it reads exactly as the
    eager dict did; ``in`` and ``get`` answer per key.
    """

    __slots__ = ("_topology", "_env", "_timing", "_complete")

    def __init__(
        self, topology: Topology, env: Environment, timing: ChannelTiming
    ) -> None:
        super().__init__()
        self._topology = topology
        self._env = env
        self._timing = timing
        self._complete = False

    def __missing__(self, key) -> Channel:
        # Stored under plain-int coordinates, as the eager build keyed
        # them, whatever integer type the caller looked up with.
        try:
            u, v = key
            u, v = tuple(map(int, u)), tuple(map(int, v))
        except (TypeError, ValueError):
            raise KeyError(key) from None
        topology = self._topology
        if (u, v) != key or not (
            topology.contains(u) and topology.are_adjacent(u, v)
        ):
            raise KeyError(key)
        channel = Channel(self._env, u, v, self._timing)
        dict.__setitem__(self, (u, v), channel)
        return channel

    def __contains__(self, key) -> bool:
        try:
            self[key]
        except KeyError:
            return False
        return True

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def _build_all(self) -> None:
        if self._complete:
            return
        env, timing = self._env, self._timing
        # Pop-and-reinsert every channel in topology order: built ones
        # keep their state, the rest are created pristine.
        for key in self._topology.channels():
            channel = dict.pop(self, key, None)
            if channel is None:
                channel = Channel(env, key[0], key[1], timing)
            dict.__setitem__(self, key, channel)
        self._complete = True

    def __len__(self) -> int:
        self._build_all()
        return dict.__len__(self)

    def __iter__(self):
        self._build_all()
        return dict.__iter__(self)

    def keys(self):
        self._build_all()
        return dict.keys(self)

    def values(self):
        self._build_all()
        return dict.values(self)

    def items(self):
        self._build_all()
        return dict.items(self)


class NetworkSimulator:
    """A simulated wormhole-switched interconnection network.

    Parameters
    ----------
    topology:
        The network shape.
    config:
        Timing/port parameters (defaults to the paper's constants).
    seed:
        Master seed for all randomness drawn through the simulator.

    Examples
    --------
    >>> from repro.network import Mesh, NetworkConfig
    >>> net = NetworkSimulator(Mesh((4, 4, 4)), NetworkConfig(ports_per_node=2))
    >>> net.num_nodes
    64
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[NetworkConfig] = None,
        seed: Optional[int] = 0,
        rng_namespace: str = "",
    ):
        self.topology = topology
        self.config = config or NetworkConfig()
        self.env = Environment()
        # The namespace scopes every stream drawn through this network
        # (traffic generators, routing tie-breaks, fault injection) to
        # e.g. one shard of a sharded unit; "" is the root namespace
        # and leaves stream names — and therefore all draws — exactly
        # as an un-namespaced simulator would make them.
        self.random = RandomStreams(seed, namespace=rng_namespace)
        timing = self.config.timing
        self.nodes: Dict[Coordinate, Node] = {
            coord: Node(self.env, coord, ports=self.config.ports_per_node)
            for coord in topology.nodes()
        }
        # Nodes are eager (every broadcast delivers to every node);
        # channels are built on first lookup — see _LazyChannels.
        self.channels: Dict[Tuple[Coordinate, Coordinate], Channel] = _LazyChannels(
            topology, self.env, timing
        )
        self._delivery_hooks: List[Callable[[DeliveryRecord], None]] = []
        self._uid_hooks: Dict[int, Callable[[DeliveryRecord], None]] = {}

    # -- shape shortcuts --------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    @property
    def now(self) -> float:
        return self.env.now

    def node(self, coord: Coordinate) -> Node:
        """The node at ``coord`` (KeyError when outside the network)."""
        return self.nodes[tuple(coord)]

    def channel(self, u: Coordinate, v: Coordinate) -> Channel:
        """The directed channel ``u → v`` (KeyError when absent)."""
        return self.channels[(tuple(u), tuple(v))]

    def channel_load(self, u: Coordinate, v: Coordinate) -> float:
        """Congestion oracle for adaptive routing (occupancy + queue).

        Faulty channels report infinite load, so an adaptive worm takes
        any healthy alternative its routing function allows and only
        aborts when every legal candidate is broken.
        """
        channel = self.channel(u, v)
        if channel.faulty:
            return float("inf")
        return float(channel.load_metric)

    # -- delivery plumbing -------------------------------------------------
    def add_delivery_hook(self, hook: Callable[[DeliveryRecord], None]) -> None:
        """Register a callback invoked on every message delivery."""
        self._delivery_hooks.append(hook)

    def add_uid_hook(self, uid: int, hook: Callable[[DeliveryRecord], None]) -> None:
        """Register a callback for deliveries of one message only.

        A message's deliveries concern exactly one consumer (the
        executor that launched it), so uid-keyed dispatch replaces the
        every-hook-filters-every-delivery broadcast of the generic hook
        list — O(1) per delivery however many broadcasts are in flight.
        """
        self._uid_hooks[uid] = hook

    def remove_uid_hook(self, uid: int) -> None:
        """Deregister a per-message hook (missing uids are ignored)."""
        self._uid_hooks.pop(uid, None)

    def record_delivery(self, record: DeliveryRecord) -> None:
        """Deliver a copy to its node and notify hooks."""
        self.nodes[record.node].deliver(record)
        hook = self._uid_hooks.get(record.message_uid)
        if hook is not None:
            hook(record)
        for hook in self._delivery_hooks:
            hook(record)

    # -- statistics -------------------------------------------------------
    def reset_statistics(self) -> None:
        """Clear all node delivery records (between measurement batches)."""
        for node in self.nodes.values():
            node.reset_statistics()

    def max_channel_utilisation(self) -> float:
        """Highest per-channel utilisation (bottleneck indicator)."""
        return max(ch.utilisation() for ch in self.channels.values())

    def mean_channel_utilisation(self) -> float:
        """Average utilisation over all channels."""
        values = [ch.utilisation() for ch in self.channels.values()]
        return sum(values) / len(values)

    def run(self, until=None):
        """Advance the simulation (delegates to the kernel)."""
        return self.env.run(until=until)

    def close(self) -> None:
        """Abandon the simulation once its results have been read.

        Closes every suspended process (:meth:`Environment.close
        <repro.sim.engine.Environment.close>`) and empties every port
        and built channel.  A worm stopped mid-flight leaves granted
        and queued requests there, and each one forms a reference
        cycle with its resource.
        """
        self.env.close()
        resources = [node.ports for node in self.nodes.values()]
        resources += [channel.resource for channel in dict.values(self.channels)]
        for resource in resources:
            resource.users.clear()
            resource.queue.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NetworkSimulator {self.topology!r} t={self.env.now}"
            f" ports={self.config.ports_per_node}>"
        )
