"""The mixed unicast/broadcast workload of §3.3.

Every node runs a Poisson generator.  Each generated operation is a
unicast (probability 0.9) to a uniformly random destination, or a
broadcast (probability 0.1) of the configured algorithm from that node.
Communication latencies are measured per completed operation and fed
to the paper's batch-means procedure (21 batches, first discarded).

The generator is *open-loop*: operations are injected at their arrival
instant regardless of network state, so queueing at injection ports and
channels shows up as latency — exactly how the paper's latency-vs-load
curves saturate.

Measurement protocol: the run generates exactly
``batch_size × num_batches`` operations, then waits for all of them to
complete (bounded by ``max_sim_time_us``).  Batches are formed in
*generation* order, not completion order — otherwise, near saturation,
fast unicasts would fill the quota while the slow broadcasts that
define the knee went uncounted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.base import BroadcastAlgorithm
from repro.core.executors import EventDrivenExecutor
from repro.core.registry import get_algorithm
from repro.metrics.batch_means import BatchMeans
from repro.metrics.collectors import LatencyCollector, ThroughputCollector
from repro.network.message import Message, MessageKind
from repro.network.network import NetworkConfig, NetworkSimulator
from repro.network.topology import Mesh
from repro.network.wormhole import PathTransmission
from repro.routing.dimension_ordered import DimensionOrdered
from repro.routing.paths import Path
from repro.traffic.arrivals import ExponentialArrivals, rate_per_us
from repro.traffic.patterns import DestinationPattern, UniformPattern

#: Process-wide broadcast-schedule memo (pure construction results,
#: shared across simulations; bounded to keep long campaigns lean).
_SCHEDULE_MEMO: Dict = {}
_SCHEDULE_MEMO_MAX = 512

__all__ = ["MixedTrafficConfig", "MixedTrafficSimulation", "TrafficStats"]


@dataclass(frozen=True)
class MixedTrafficConfig:
    """Parameters of one traffic-sweep point.

    Parameters
    ----------
    load_messages_per_ms:
        Per-node generation rate on the paper's load axis.
    broadcast_fraction:
        Share of operations that are broadcasts (paper: 0.1).
    message_length_flits:
        Worm length ``L`` (paper Figs. 3-4: 32 flits).
    batch_size:
        Operations per measurement batch.
    num_batches / discard:
        Batch-means protocol (paper: 21 collected, 1 discarded).
    max_sim_time_us:
        Safety cap on simulated time (saturated networks may never
        drain; the run then reports what completed).
    seed:
        Master seed for all randomness.
    shard:
        ``None`` (the default) draws from the master seed's root
        streams — bit-for-bit today's serial protocol.  An integer
        ``k`` scopes *every* stream to the ``shard{k}`` namespace, so
        the run is an independent replication that is a pure function
        of ``(config minus shard, k)`` — the per-replica substream
        trick that makes sharded units deterministic (see
        :mod:`repro.campaigns.shards`).
    """

    load_messages_per_ms: float
    broadcast_fraction: float = 0.1
    message_length_flits: int = 32
    batch_size: int = 25
    num_batches: int = 21
    discard: int = 1
    max_sim_time_us: float = 2_000_000.0
    seed: int = 0
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.load_messages_per_ms <= 0:
            raise ValueError("load must be positive")
        if not 0.0 <= self.broadcast_fraction <= 1.0:
            raise ValueError("broadcast_fraction must be in [0, 1]")
        if self.message_length_flits < 1:
            raise ValueError("message_length_flits must be >= 1")
        if self.shard is not None and self.shard < 0:
            raise ValueError("shard index must be >= 0")

    @property
    def rng_namespace(self) -> str:
        """Stream-name prefix implementing the shard substream."""
        return "" if self.shard is None else f"shard{self.shard}/"

    @property
    def target_operations(self) -> int:
        """Operations generated (and measured) per run."""
        return self.batch_size * self.num_batches


@dataclass
class TrafficStats:
    """Results of one traffic simulation point.

    Besides the reported summary figures, the stats carry their own
    *mergeable decomposition* — the generation-order latency stream as
    a :class:`~repro.metrics.partial.PartialStat`, per-bucket latency
    sums, and the throughput window — so a sharded campaign can store
    each shard's contribution and reduce shards into one point without
    access to the raw simulation.
    """

    load_messages_per_ms: float
    mean_latency_us: float
    unicast_mean_latency_us: Optional[float]
    broadcast_mean_latency_us: Optional[float]
    throughput_msgs_per_us: float
    operations_completed: int
    operations_generated: int
    batches_completed: int
    saturated: bool
    extras: Dict[str, float] = field(default_factory=dict)
    #: simulated time at the end of the run (µs).
    sim_time_us: float = 0.0
    #: generation-order latency stream (PartialStat.to_dict form).
    latency_partial: Optional[Dict] = None
    #: per-bucket observation counts / latency sums (mergeable form of
    #: the bucket means).
    bucket_counts: Dict[str, int] = field(default_factory=dict)
    bucket_totals: Dict[str, float] = field(default_factory=dict)
    #: mergeable form of ``throughput_msgs_per_us`` (count over span).
    throughput_count: int = 0
    throughput_span_us: float = 0.0


class MixedTrafficSimulation:
    """One (algorithm, network, load) traffic-sweep point.

    Parameters
    ----------
    topology:
        The mesh under test.
    algorithm_name:
        "RD" / "EDN" / "DB" / "AB" — the broadcast algorithm carried
        by the broadcast share of the traffic.
    config:
        Load-point parameters.
    network_config:
        Timing/port parameters; when omitted, the algorithm's own port
        requirement and the paper's timing constants are used.
    pattern:
        Destination pattern for unicasts (default uniform, as in the
        paper).
    """

    def __init__(
        self,
        topology: Mesh,
        algorithm_name: str,
        config: MixedTrafficConfig,
        network_config: Optional[NetworkConfig] = None,
        pattern: Optional[DestinationPattern] = None,
    ):
        self.topology = topology
        self.config = config
        algorithm_cls = get_algorithm(algorithm_name)
        self.network_config = network_config or NetworkConfig(
            ports_per_node=algorithm_cls.ports_required
        )
        self.network = NetworkSimulator(
            topology,
            self.network_config,
            seed=config.seed,
            rng_namespace=config.rng_namespace,
        )
        self.algorithm: BroadcastAlgorithm = algorithm_cls(topology)
        self.pattern = pattern or UniformPattern(topology)
        self._dor = DimensionOrdered(topology)
        self._adaptive_routing = (
            type(self.algorithm).make_routing(topology)
            if hasattr(type(self.algorithm), "make_routing")
            else None
        )
        self._executor = EventDrivenExecutor(
            self.network, adaptive_routing=self._adaptive_routing
        )
        self.latencies = LatencyCollector()
        self.throughput = ThroughputCollector()
        self._schedule_cache: Dict = {}
        self._path_cache: Dict = {}
        self._generated = 0
        self._completed: Dict[int, float] = {}
        self._done = self.network.env.event()

    # -- generator processes ---------------------------------------------
    def _node_generator(self, source):
        env = self.network.env
        rng = self.network.random[f"traffic{source}"]
        arrivals = ExponentialArrivals(
            rng, rate_per_us(self.config.load_messages_per_ms)
        )
        while True:
            yield env.hold(arrivals.next_gap())
            if self._generated >= self.config.target_operations:
                return
            op_id = self._generated
            self._generated += 1
            if rng.random() < self.config.broadcast_fraction:
                self._launch_broadcast(source, op_id)
            else:
                self._launch_unicast(source, rng, op_id)

    def _launch_unicast(self, source, rng, op_id: int) -> None:
        destination = self.pattern.pick(source, rng)
        message = Message(
            source=source,
            destinations=frozenset({destination}),
            length_flits=self.config.message_length_flits,
            kind=MessageKind.UNICAST,
            created_at=self.network.env.now,
        )
        # DOR paths are pure functions of (source, destination): cache
        # the immutable Path objects across the run's many unicasts.
        path = self._path_cache.get((source, destination))
        if path is None:
            nodes = self._dor.path(source, destination)
            path = Path(nodes, deliveries=[destination])
            self._path_cache[(source, destination)] = path
        transmission = PathTransmission(self.network, message, path=path)
        process = transmission.start()
        process.add_callback(
            lambda event: self._operation_done(event, op_id, "unicast")
        )

    def _launch_broadcast(self, source, op_id: int) -> None:
        schedule = self._schedule_cache.get(source)
        if schedule is None:
            # Schedules are pure functions of (algorithm, mesh, source):
            # share them process-wide so every load point of a sweep
            # reuses the sibling points' construction work.
            key = (type(self.algorithm).__name__, self.topology.dims, source)
            schedule = _SCHEDULE_MEMO.get(key)
            if schedule is None:
                if len(_SCHEDULE_MEMO) >= _SCHEDULE_MEMO_MAX:
                    _SCHEDULE_MEMO.clear()
                schedule = self.algorithm.schedule(source)
                _SCHEDULE_MEMO[key] = schedule
            self._schedule_cache[source] = schedule
        process = self._executor.launch(
            schedule, self.config.message_length_flits
        )
        process.add_callback(
            lambda event: self._operation_done(event, op_id, "broadcast")
        )

    def _operation_done(self, event, op_id: int, bucket: str) -> None:
        if not event.ok:  # pragma: no cover - transmissions never fail here
            return
        latency = event.value.network_latency
        self._completed[op_id] = latency
        self.latencies.record(latency, bucket)
        self.latencies.record(latency, "all")
        self.throughput.record(self.network.env.now)
        if (
            len(self._completed) >= self.config.target_operations
            and not self._done.triggered
        ):
            self._done.succeed()

    # -- running -------------------------------------------------------------
    def run(self) -> TrafficStats:
        """Generate the target operations and drain them (or hit the cap)."""
        env = self.network.env
        for node in self.topology.nodes():
            env.process(self._node_generator(node))
        cap = env.timeout(self.config.max_sim_time_us)
        env.run(until=env.any_of([self._done, cap]))
        saturated = len(self._completed) < self.config.target_operations

        # Batch means in generation order (paper protocol, minus the
        # ops a saturated run never finished).
        batches = BatchMeans(
            batch_size=self.config.batch_size,
            num_batches=self.config.num_batches,
            discard=self.config.discard,
        )
        for op_id in sorted(self._completed):
            batches.add(self._completed[op_id])

        def bucket_mean(bucket: str) -> Optional[float]:
            try:
                return self.latencies.summary(bucket).mean
            except KeyError:
                return None

        completed = len(self._completed)
        try:
            mean_latency = batches.result().mean
        except ValueError:
            mean_latency = (
                self.latencies.summary("all").mean if completed else float("nan")
            )
        throughput_count, throughput_span = self.throughput.window(env.now)
        stats = TrafficStats(
            load_messages_per_ms=self.config.load_messages_per_ms,
            mean_latency_us=mean_latency,
            unicast_mean_latency_us=bucket_mean("unicast"),
            broadcast_mean_latency_us=bucket_mean("broadcast"),
            throughput_msgs_per_us=self.throughput.throughput(env.now),
            operations_completed=completed,
            operations_generated=self._generated,
            batches_completed=batches.batches_collected,
            saturated=saturated,
            sim_time_us=float(env.now),
            latency_partial=batches.partial().to_dict(),
            bucket_counts={
                bucket: self.latencies.count(bucket)
                for bucket in ("unicast", "broadcast")
            },
            bucket_totals={
                bucket: math.fsum(self.latencies.values(bucket))
                for bucket in ("unicast", "broadcast")
            },
            throughput_count=throughput_count,
            throughput_span_us=throughput_span,
        )
        # The node generators (and, after a capped run, worms still in
        # flight) are suspended in reference cycles through the heap
        # and the channel queues; close them.
        self.network.close()
        return stats
