"""Wormhole path transmission.

:class:`PathTransmission` is the paper's *path process*: the simulation
process that carries one worm from its source across the network,
delivering a copy to every destination on its path.

Mechanics (matching the paper's path-level model):

1. acquire an injection port at the source, pay the start-up latency
   ``Ts``;
2. advance the header one channel at a time — each channel is a
   single-queue FIFO resource, and while the header waits for a busy
   channel the worm *keeps holding* every channel behind it (wormhole
   blocking);
3. once the header reaches the end of the path, the body pipelines
   behind it: a node on the path holds the complete message
   ``(L-1)·β`` after the header passed it;
4. destinations absorb their copy as the body streams past
   (coded-path delivery);
5. the worm releases its channels when the tail drains.

The release model holds the full path until the tail arrives at the
terminus.  For the paper's parameters (L = 32–2048 flits vs. path
lengths ≤ ~45 hops) the worm genuinely spans its whole path during
transmission, so this is exact, not an approximation, except for worms
shorter than their path — a regime the paper does not enter.

Hop batching
------------
The header walk is *hop-batched*: while no other simulation event can
fire before the header's next arrival time (``env.peek()`` strictly
later), consecutive free channels are claimed eventlessly with
``Resource.claim`` and the worm pays one combined ``hold_until``
instead of a per-hop request/yield/timeout triple.  The no-interleaving guard
makes this provably unobservable — per-hop times are accumulated with
the same float arithmetic, channel state is untouched by third parties
inside the batched window, and adaptive routing samples
``channel_load`` against exactly the state it would have seen hop by
hop.  The walk falls back to the per-hop slow path at the first busy
or faulty channel, or whenever another event is due in the window.
``docs/performance.md`` spells out the invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.network.coordinates import Coordinate
from repro.network.message import DeliveryRecord, Message
from repro.routing.base import RoutingFunction
from repro.routing.paths import Path

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import NetworkSimulator
    from repro.sim.process import Process

__all__ = ["PathTransmission", "TransmissionResult"]


@dataclass(frozen=True)
class TransmissionResult:
    """Outcome of one worm's journey.

    Parameters
    ----------
    message:
        The transmitted message.
    queued_at:
        When the send was initiated (before port wait).
    injected_at:
        When the header entered the network (after port wait + ``Ts``).
    completed_at:
        When the tail arrived at the path terminus.
    arrivals:
        Full-message arrival time at every delivered node.
    visited:
        The nodes the header traversed, in order.
    """

    message: Message
    queued_at: float
    injected_at: float
    completed_at: float
    arrivals: Dict[Coordinate, float]
    visited: Tuple[Coordinate, ...]

    @property
    def network_latency(self) -> float:
        """Queued-to-last-delivery latency of this worm."""
        return self.completed_at - self.queued_at

    def latency_to(self, node: Coordinate) -> float:
        """Queued-to-delivery latency for one destination."""
        return self.arrivals[node] - self.queued_at


class PathTransmission:
    """A path process: transmits one worm, possibly multidestination.

    Exactly one of ``path`` / ``waypoints`` must be given:

    ``path``
        a pre-built :class:`~repro.routing.paths.Path`; the worm
        follows it hop for hop (deterministic schemes build these
        offline);
    ``waypoints``
        an ordered list of nodes to visit (first entry = source); the
        route between consecutive waypoints is resolved hop-by-hop by
        ``routing`` at simulation time — when ``adaptive`` is true the
        least-loaded legal channel is chosen at each branch, which is
        how the AB algorithm exploits the west-first turn model.

    Parameters
    ----------
    network:
        The simulator to transmit on.
    message:
        The worm; ``message.destinations`` must lie on the route.
    batch_hops:
        Batch the header walk over consecutive free channels (default).
        The batched and per-hop walks give every node the same arrival
        time and every channel the same utilisation and grant count,
        but same-time hooks (deliveries, walk ends) may fire in a
        different order: a resumed batched walk claims its next channel
        without the grant event the per-hop walk waits for.  The flag
        exists for the determinism tests.
    """

    def __init__(
        self,
        network: "NetworkSimulator",
        message: Message,
        *,
        path: Optional[Path] = None,
        waypoints: Optional[Sequence[Coordinate]] = None,
        routing: Optional[RoutingFunction] = None,
        adaptive: bool = False,
        batch_hops: bool = True,
    ):
        if (path is None) == (waypoints is None):
            raise ValueError("give exactly one of path= or waypoints=")
        if waypoints is not None:
            if routing is None:
                raise ValueError("waypoints= requires a routing function")
            waypoints = [tuple(w) for w in waypoints]
            if waypoints[0] != message.source:
                raise ValueError(
                    f"waypoints must start at the source {message.source},"
                    f" got {waypoints[0]}"
                )
            if len(waypoints) < 2:
                raise ValueError("waypoints must include at least one target")
        if path is not None:
            if path.source != message.source:
                raise ValueError(
                    f"path starts at {path.source}, message source is {message.source}"
                )
            # Destinations covered by the path's declared deliveries
            # (the common case) need no set materialisation at all.
            if not (message.destinations <= path.deliveries):
                stray = (
                    message.destinations - path.deliveries - set(path.nodes)
                )
                if stray:
                    raise ValueError(
                        f"destinations {sorted(stray)} are not on the path"
                    )
        self.network = network
        self.message = message
        self.path = path
        self.waypoints = waypoints
        self.routing = routing
        self.adaptive = adaptive
        self.batch_hops = batch_hops
        self.result: Optional[TransmissionResult] = None

    # -- launching ---------------------------------------------------------
    def start(self) -> "Process":
        """Spawn the path process; its value is the TransmissionResult."""
        return self.network.env.process(self._run())

    def _next_nodes(self):
        """Yield the nodes after the source, resolving adaptivity live."""
        if self.path is not None:
            for node in self.path.nodes[1:]:
                yield node
            return
        net = self.network
        load = net.channel_load if self.adaptive else None
        current = self.message.source
        for target in self.waypoints[1:]:
            guard = 0
            while current != target:
                current = self.routing.next_hop(current, target, load)
                guard += 1
                if guard > net.num_nodes:  # pragma: no cover - defensive
                    raise RuntimeError("routing made no progress")
                yield current

    def _run(self):
        net = self.network
        env = net.env
        msg = self.message
        timing = net.config.timing
        source_node = net.node(msg.source)

        queued_at = env.now
        # 1. injection port + start-up latency.
        port_req = source_node.ports.request()
        if not port_req.consume_inline():
            yield port_req
        yield env.hold(net.config.startup_latency)
        injected_at = env.now
        source_node.sent_count += 1

        # 2. header walk: acquire channels in order, holding all behind.
        held = []
        current = tuple(msg.source)
        visited: List[Coordinate] = [current]
        header_times: Dict[Coordinate, float] = {}
        remaining = set(msg.destinations)
        hop_time = timing.header_hop_time
        batching = self.batch_hops and env._fastpath
        heap = env._heap
        channels = net.channels
        profile = env._profile
        # Pre-built paths walk their node tuple by index — no generator
        # machinery on the per-hop fast path; adaptive waypoint routes
        # resolve lazily through _next_nodes() as before.
        if self.path is not None:
            route = self.path.nodes
            route_len = len(route)
            route_idx = 1
            next_nodes = None
            nxt = route[1] if route_len > 1 else None
        else:
            route = None
            next_nodes = self._next_nodes()
            nxt = next(next_nodes, None)
        claim_token = object() if batching else None
        while nxt is not None:
            channel = channels[(current, nxt)]
            if batching:
                # Greedily claim consecutive free channels, then pay one
                # combined hold.  `t` accumulates per-hop times with the
                # slow path's exact float arithmetic.  Both the *routing
                # decision* for a hop and its channel claim happen at
                # the header's arrival time `t`; they may run early only
                # when no other event fires at or before `t`
                # (`heap[0][0] > t`): the heap cannot change before its
                # own head pops, so channel state — including the
                # `channel_load` samples adaptive routing reads — is
                # provably what the hop-by-hop walk would have seen.
                # The first hop was resolved within the current
                # execution slice — synchronous either way, no guard.
                # When the guard fails, the next decision is deferred
                # until the clock catches up (`deferred` below).
                t = start = env._now
                deferred = False
                while True:
                    if channel.faulty:
                        break  # the hop-by-hop path raises, at time t
                    resource = channel.resource
                    if not resource.claim(claim_token, t):
                        break  # busy: the slow path queues at this hop
                    profile.worm_hops_batched += 1
                    held.append((resource, claim_token))
                    t = t + hop_time
                    current = nxt
                    visited.append(current)
                    if current in remaining:
                        header_times[current] = t
                        remaining.discard(current)
                    if heap and heap[0][0] <= t:
                        # Another event interleaves before the header
                        # reaches `current`: the next routing decision
                        # and claim must wait for real time t.
                        deferred = True
                        break
                    if route is not None:
                        route_idx += 1
                        nxt = route[route_idx] if route_idx < route_len else None
                    else:
                        nxt = next(next_nodes, None)
                    if nxt is None:
                        break
                    channel = channels[(current, nxt)]
                if t > start:
                    yield env.hold_until(t)
                if deferred:
                    # env.now == t: resolve the next hop at its exact
                    # per-hop decision time, then retry (batch or slow).
                    if route is not None:
                        route_idx += 1
                        nxt = route[route_idx] if route_idx < route_len else None
                    else:
                        nxt = next(next_nodes, None)
                    continue
                if nxt is None:
                    break
            if channel.faulty:
                for res, req in reversed(held):
                    res.release(req)
                source_node.ports.release(port_req)
                from repro.network.faults import FaultyChannelError

                raise FaultyChannelError(channel)
            request = channel.resource.request()
            if not request.consume_inline():
                yield request
            held.append((channel.resource, request))
            profile.worm_hops_slow += 1
            yield env.hold(hop_time)
            current = nxt
            visited.append(current)
            if current in remaining:
                header_times[current] = env.now
                remaining.discard(current)
            if route is not None:
                route_idx += 1
                nxt = route[route_idx] if route_idx < route_len else None
            else:
                nxt = next(next_nodes, None)

        if remaining:
            for res, req in reversed(held):
                res.release(req)
            source_node.ports.release(port_req)
            raise RuntimeError(
                f"worm #{msg.uid} finished its path without reaching {sorted(remaining)}"
            )

        # 3-4. body pipelining + coded-path deliveries in arrival order.
        body = timing.body_time(msg.length_flits)
        arrivals: Dict[Coordinate, float] = {}
        if len(header_times) > 1:
            deliveries = sorted(header_times.items(), key=lambda kv: kv[1])
        else:  # unicast fast path: nothing to sort
            deliveries = header_times.items()
        for node, header_t in deliveries:
            arrival = header_t + body
            if arrival > env.now:
                yield env.hold(arrival - env.now)
            arrivals[node] = arrival
            net.record_delivery(
                DeliveryRecord(
                    message_uid=msg.uid, node=node, time=arrival, step=msg.step
                )
            )

        # 5. tail drains at the terminus; free the path and the port.
        completed_at = env.now
        for res, request in reversed(held):
            res.release(request)
        source_node.ports.release(port_req)

        self.result = TransmissionResult(
            message=msg,
            queued_at=queued_at,
            injected_at=injected_at,
            completed_at=completed_at,
            arrivals=arrivals,
            visited=tuple(visited),
        )
        return self.result
