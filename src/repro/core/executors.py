"""Broadcast executors.

Two ways to turn a :class:`~repro.core.schedule.BroadcastSchedule` into
arrival times:

:class:`UnitStepExecutor`
    closed-form, contention-free: every send begins the moment its
    sender holds the message and a free port, and takes
    ``Ts + hops·(β + tr) + (L−1)·β``.  This is the timing analysis the
    paper verifies its simulator against, and the oracle our tests
    compare the event-driven executor to.

:class:`EventDrivenExecutor`
    full wormhole simulation on :mod:`repro.sim`: worms are
    *locally causal* — a node launches its scheduled sends the instant
    its own copy arrives — and contend for channels and ports exactly
    as the paper's CSIM path processes do.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.schedule import BroadcastSchedule, PathSend
from repro.network.coordinates import Coordinate
from repro.network.message import DeliveryRecord, Message, MessageKind
from repro.network.network import NetworkConfig, NetworkSimulator
from repro.network.topology import Topology
from repro.network.wormhole import PathTransmission
from repro.routing.base import RoutingFunction

__all__ = [
    "BroadcastOutcome",
    "UnitStepExecutor",
    "BarrierStepExecutor",
    "EventDrivenExecutor",
]


@dataclass
class BroadcastOutcome:
    """Arrival times and derived statistics of one broadcast operation.

    Parameters
    ----------
    algorithm:
        Name of the algorithm that produced the schedule.
    source:
        Broadcasting node.
    start_time:
        Simulation time the broadcast was initiated.
    arrivals:
        Absolute full-message arrival time per destination node.
    total_sends:
        Worms launched by the schedule.
    """

    algorithm: str
    source: Coordinate
    start_time: float
    arrivals: Dict[Coordinate, float]
    total_sends: int

    @property
    def delivered_count(self) -> int:
        return len(self.arrivals)

    def latencies(self) -> np.ndarray:
        """Per-destination latency (arrival − start), unsorted."""
        return np.asarray(
            [t - self.start_time for t in self.arrivals.values()], dtype=float
        )

    @property
    def network_latency(self) -> float:
        """The paper's network-level metric: time until the last arrival."""
        if not self.arrivals:
            raise ValueError("broadcast delivered nothing")
        return max(self.arrivals.values()) - self.start_time

    @property
    def mean_latency(self) -> float:
        """Mean destination latency (the paper's ``Mnl``)."""
        return float(self.latencies().mean())

    @property
    def latency_std(self) -> float:
        """Standard deviation of destination latencies (``SD``)."""
        return float(self.latencies().std())

    @property
    def coefficient_of_variation(self) -> float:
        """The paper's node-level metric ``CV = SD / Mnl``."""
        mean = self.mean_latency
        if mean == 0:
            return 0.0 if self.latency_std == 0 else math.inf
        return self.latency_std / mean

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BroadcastOutcome {self.algorithm} from {self.source}:"
            f" {self.delivered_count} delivered,"
            f" net={self.network_latency:.3f}, cv={self.coefficient_of_variation:.3f}>"
        )


def _delivery_offsets(
    send: PathSend, topology: Topology
) -> Tuple[List[Tuple[Coordinate, int]], int]:
    """Hop offset of each delivery along the send's route, plus total hops."""
    if send.path is not None:
        offsets = [
            (node, i)
            for i, node in enumerate(send.path.nodes)
            if node in send.deliveries
        ]
        return offsets, send.path.hop_count
    offsets = []
    hops = 0
    previous = send.waypoints[0]
    for waypoint in send.waypoints[1:]:
        hops += topology.distance(previous, waypoint)
        previous = waypoint
        if waypoint in send.deliveries:
            offsets.append((waypoint, hops))
    return offsets, hops


class UnitStepExecutor:
    """Contention-free closed-form execution of a broadcast schedule.

    Parameters
    ----------
    topology:
        Shape the schedule runs on (for adaptive waypoint distances).
    config:
        Timing constants and the port budget.
    """

    def __init__(self, topology: Topology, config: Optional[NetworkConfig] = None):
        self.topology = topology
        self.config = config or NetworkConfig()

    def execute(
        self,
        schedule: BroadcastSchedule,
        length_flits: int,
        start_time: float = 0.0,
    ) -> BroadcastOutcome:
        """Compute every node's arrival time analytically."""
        timing = self.config.timing
        startup = self.config.startup_latency
        hop_time = timing.header_hop_time
        body = timing.body_time(length_flits)

        ready: Dict[Coordinate, float] = {schedule.source: start_time}
        port_heaps: Dict[Coordinate, List[float]] = {}
        arrivals: Dict[Coordinate, float] = {}

        for step in schedule.steps:
            for send in step.sends:
                sender_ready = ready.get(send.source)
                if sender_ready is None:
                    raise ValueError(
                        f"sender {send.source} acts in step {step.index} without"
                        " having received — schedule violates causality"
                    )
                heap = port_heaps.get(send.source)
                if heap is None:
                    heap = [sender_ready] * self.config.ports_per_node
                    port_heaps[send.source] = heap
                port_free = heapq.heappop(heap)
                begin = max(port_free, sender_ready)
                offsets, total_hops = _delivery_offsets(send, self.topology)
                for node, hops in offsets:
                    arrival = begin + startup + hops * hop_time + body
                    arrivals[node] = arrival
                    ready.setdefault(node, arrival)
                completion = begin + startup + total_hops * hop_time + body
                heapq.heappush(heap, completion)

        return BroadcastOutcome(
            algorithm=schedule.algorithm,
            source=schedule.source,
            start_time=start_time,
            arrivals=arrivals,
            total_sends=schedule.total_sends(),
        )


class BarrierStepExecutor:
    """Step-synchronised closed-form execution.

    Models the literal "message-passing step" abstraction: step ``t+1``
    begins only when *every* worm of step ``t`` has completed (a global
    barrier).  This is the semantics under which the paper's step-count
    arguments — and its node-level CV comparisons — are exact: a node's
    arrival time is determined by the step it receives in plus its
    position on its worm's path, with no cross-plane pipelining skew.

    Compare with :class:`UnitStepExecutor` (locally causal, no
    barriers) and :class:`EventDrivenExecutor` (locally causal with
    channel contention); EXPERIMENTS.md discusses how the choice
    affects the CV tables.
    """

    def __init__(self, topology: Topology, config: Optional[NetworkConfig] = None):
        self.topology = topology
        self.config = config or NetworkConfig()

    def execute(
        self,
        schedule: BroadcastSchedule,
        length_flits: int,
        start_time: float = 0.0,
    ) -> BroadcastOutcome:
        """Compute arrival times under global step barriers."""
        timing = self.config.timing
        startup = self.config.startup_latency
        hop_time = timing.header_hop_time
        body = timing.body_time(length_flits)

        barrier = start_time
        arrivals: Dict[Coordinate, float] = {}
        for step in schedule.steps:
            port_heaps: Dict[Coordinate, List[float]] = {}
            step_end = barrier
            for send in step.sends:
                heap = port_heaps.get(send.source)
                if heap is None:
                    heap = [barrier] * self.config.ports_per_node
                    port_heaps[send.source] = heap
                begin = heapq.heappop(heap)
                offsets, total_hops = _delivery_offsets(send, self.topology)
                for node, hops in offsets:
                    arrivals[node] = begin + startup + hops * hop_time + body
                completion = begin + startup + total_hops * hop_time + body
                heapq.heappush(heap, completion)
                step_end = max(step_end, completion)
            barrier = step_end

        return BroadcastOutcome(
            algorithm=schedule.algorithm,
            source=schedule.source,
            start_time=start_time,
            arrivals=arrivals,
            total_sends=schedule.total_sends(),
        )


class EventDrivenExecutor:
    """Event-driven execution of broadcast schedules on a network.

    Parameters
    ----------
    network:
        The simulator (provides the clock, channels, ports).
    adaptive_routing:
        Routing function for adaptive (waypoint) sends; required when
        the schedule contains any.

    Notes
    -----
    Launching is *locally causal*: a node's scheduled sends are issued
    (in step order, through its FIFO injection ports) the moment its
    own copy fully arrives.  No global step barrier exists — exactly
    like a real implementation, where the arriving header's control
    field tells the router what to forward next.
    """

    def __init__(
        self,
        network: NetworkSimulator,
        adaptive_routing: Optional[RoutingFunction] = None,
    ):
        self.network = network
        self.adaptive_routing = adaptive_routing

    # -- public API -------------------------------------------------------
    def launch(
        self,
        schedule: BroadcastSchedule,
        length_flits: int,
        kind: MessageKind = MessageKind.BROADCAST,
    ):
        """Start the broadcast now; returns a process yielding the outcome."""
        return self.network.env.process(
            self._run(schedule, length_flits, kind)
        )

    def execute(
        self, schedule: BroadcastSchedule, length_flits: int
    ) -> BroadcastOutcome:
        """Run the network until this broadcast completes; return outcome."""
        process = self.launch(schedule, length_flits)
        return self.network.env.run(until=process)

    # -- internals -----------------------------------------------------------
    def _make_transmission(
        self, send: PathSend, step: int, length_flits: int, kind: MessageKind
    ) -> PathTransmission:
        message = Message(
            source=send.source,
            destinations=send.deliveries,
            length_flits=length_flits,
            kind=kind,
            control=send.control,
            created_at=self.network.env.now,
            step=step,
        )
        if send.path is not None:
            return PathTransmission(self.network, message, path=send.path)
        if self.adaptive_routing is None:
            raise ValueError(
                "schedule contains adaptive sends but no adaptive_routing"
                " was supplied"
            )
        return PathTransmission(
            self.network,
            message,
            waypoints=send.waypoints,
            routing=self.adaptive_routing,
            adaptive=True,
        )

    def _run(self, schedule: BroadcastSchedule, length_flits: int, kind: MessageKind):
        env = self.network.env
        start_time = env.now
        run = _BroadcastRun(self, schedule, length_flits, kind)
        try:
            run.launch_from(schedule.source)
            if run.expected:
                yield run.done
            # Let the last worms drain their channels before reporting,
            # so back-to-back broadcasts see a consistent network.
            alive = [p for p in run.transmissions if p.is_alive]
            if alive:
                yield env.all_of(alive)
        finally:
            for uid in run.uids:
                self.network.remove_uid_hook(uid)

        return BroadcastOutcome(
            algorithm=schedule.algorithm,
            source=schedule.source,
            start_time=start_time,
            arrivals=run.arrivals,
            total_sends=schedule.total_sends(),
        )


class _BroadcastRun:
    """The state of one event-driven broadcast in flight.

    Its bound :meth:`on_delivery` is the uid hook of every worm the
    broadcast launches.  A pair of closures that call each other would
    do the same, but they form a reference cycle that only the cyclic
    collector can free; this object holds no reference back to itself.
    """

    __slots__ = (
        "executor", "pending", "expected", "arrivals", "uids", "done",
        "transmissions", "length_flits", "kind",
    )

    def __init__(
        self,
        executor: EventDrivenExecutor,
        schedule: BroadcastSchedule,
        length_flits: int,
        kind: MessageKind,
    ):
        self.executor = executor
        self.pending = schedule.sends_by_node()
        self.expected = len(schedule.covered_nodes()) - 1
        self.arrivals: Dict[Coordinate, float] = {}
        self.uids: set = set()
        self.done = executor.network.env.event()
        self.transmissions: list = []
        self.length_flits = length_flits
        self.kind = kind

    def launch_from(self, node: Coordinate) -> None:
        executor = self.executor
        network = executor.network
        hook = self.on_delivery
        for step, send in self.pending.pop(node, ()):
            transmission = executor._make_transmission(
                send, step, self.length_flits, self.kind
            )
            uid = transmission.message.uid
            self.uids.add(uid)
            # uid-keyed dispatch: this broadcast's deliveries reach
            # only this hook, however many run concurrently.
            network.add_uid_hook(uid, hook)
            self.transmissions.append(transmission.start())

    def on_delivery(self, record: DeliveryRecord) -> None:
        arrivals = self.arrivals
        if record.node in arrivals:  # pragma: no cover - exactly-once guard
            return
        arrivals[record.node] = record.time
        self.launch_from(record.node)
        if len(arrivals) == self.expected and not self.done.triggered:
            self.done.succeed()
