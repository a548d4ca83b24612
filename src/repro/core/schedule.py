"""Broadcast schedules.

A broadcast algorithm's output is a :class:`BroadcastSchedule`: an
ordered list of :class:`BroadcastStep`\\ s, each holding the
:class:`PathSend`\\ s issued in that message-passing step.  The schedule
is *declarative* — executors decide how steps map to simulated time
(locally causal launching for the event-driven executor, closed-form
accumulation for the analytic one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.network.coordinates import Coordinate
from repro.network.message import ControlField
from repro.routing.paths import Path

__all__ = ["PathSend", "BroadcastStep", "BroadcastSchedule"]


@dataclass(frozen=True)
class PathSend:
    """One worm launched during a broadcast step.

    Exactly one of ``path`` (deterministic, pre-routed) or
    ``waypoints`` (adaptive, routed at simulation time) is set.

    Parameters
    ----------
    source:
        The launching node.
    deliveries:
        Nodes that absorb a copy of this worm.
    path:
        Pre-built route (deterministic algorithms).
    waypoints:
        Nodes the worm must visit in order, source first; the route
        between consecutive waypoints is chosen by the executor's
        adaptive routing function.
    control:
        CPR control field the worm's header carries.
    """

    source: Coordinate
    deliveries: FrozenSet[Coordinate]
    path: Optional[Path] = None
    waypoints: Optional[Tuple[Coordinate, ...]] = None
    control: ControlField = ControlField.RECEIVE

    def __post_init__(self) -> None:
        if (self.path is None) == (self.waypoints is None):
            raise ValueError("PathSend needs exactly one of path= or waypoints=")
        object.__setattr__(self, "deliveries", frozenset(self.deliveries))
        if not self.deliveries:
            raise ValueError("PathSend must deliver to at least one node")
        if self.source in self.deliveries:
            raise ValueError("a send cannot deliver to its own source")
        if self.path is not None:
            if self.path.source != self.source:
                raise ValueError(
                    f"path source {self.path.source} != send source {self.source}"
                )
            # The path already checked its own deliveries are on it.
            if not self.deliveries <= self.path.deliveries:
                stray = self.deliveries - set(self.path.nodes)
                if stray:
                    raise ValueError(
                        f"deliveries {sorted(stray)} not on the path"
                    )
        else:
            wp = tuple(tuple(w) for w in self.waypoints)
            object.__setattr__(self, "waypoints", wp)
            if wp[0] != self.source:
                raise ValueError(f"waypoints must start at source {self.source}")
            stray = self.deliveries - set(wp)
            if stray:
                raise ValueError(
                    f"deliveries {sorted(stray)} are not waypoints; adaptive"
                    " sends must pin every delivery as a waypoint"
                )

    @property
    def is_adaptive(self) -> bool:
        return self.waypoints is not None

    @property
    def fanout(self) -> int:
        """Number of nodes this worm delivers to."""
        return len(self.deliveries)

    def min_hops(self, topology) -> int:
        """Lower bound on the worm's path length."""
        if self.path is not None:
            return self.path.hop_count
        total = 0
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            total += topology.distance(a, b)
        return total


@dataclass
class BroadcastStep:
    """All worms launched in one message-passing step."""

    index: int
    sends: List[PathSend] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("step indices are 1-based")

    def senders(self) -> Set[Coordinate]:
        return {s.source for s in self.sends}

    def deliveries(self) -> Set[Coordinate]:
        out: Set[Coordinate] = set()
        for send in self.sends:
            out |= send.deliveries
        return out

    def sends_from(self, node: Coordinate) -> List[PathSend]:
        return [s for s in self.sends if s.source == node]


@dataclass
class BroadcastSchedule:
    """A complete broadcast plan for one (algorithm, topology, source).

    Parameters
    ----------
    algorithm:
        Producing algorithm's name (for reports).
    source:
        The broadcasting node.
    steps:
        Message-passing steps in execution order (indices 1..n).
    """

    algorithm: str
    source: Coordinate
    steps: List[BroadcastStep] = field(default_factory=list)

    def __post_init__(self) -> None:
        for expected, step in enumerate(self.steps, start=1):
            if step.index != expected:
                raise ValueError(
                    f"step indices must be 1..n in order; found {step.index}"
                    f" at position {expected}"
                )

    # -- shape ----------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def all_sends(self) -> List[Tuple[int, PathSend]]:
        """Every send as ``(step_index, send)`` in schedule order."""
        return [(step.index, send) for step in self.steps for send in step.sends]

    def total_sends(self) -> int:
        return sum(len(step.sends) for step in self.steps)

    def covered_nodes(self) -> Set[Coordinate]:
        """Source plus every delivery target."""
        cached = getattr(self, "_covered_cache", None)
        if cached is None:
            cached = {self.source}
            for step in self.steps:
                cached |= step.deliveries()
            self._covered_cache = frozenset(cached)
        # Fresh set per call: schedules are shared (and memoised across
        # simulations), so callers must be free to mutate the result.
        return set(cached)

    def receive_step(self) -> Dict[Coordinate, int]:
        """Step at which each node first receives (source maps to 0)."""
        seen: Dict[Coordinate, int] = {self.source: 0}
        for step in self.steps:
            for send in step.sends:
                for node in send.deliveries:
                    seen.setdefault(node, step.index)
        return seen

    def sends_by_node(self) -> Dict[Coordinate, List[Tuple[int, PathSend]]]:
        """Map sender → its sends (with step indices), in step order.

        The mapping is built once and shallow-copied per call (every
        broadcast launch consumes one by popping nodes as they
        receive); the per-sender lists are shared and must not be
        mutated.
        """
        template = getattr(self, "_by_node_cache", None)
        if template is None:
            template = {}
            for step in self.steps:
                for send in step.sends:
                    template.setdefault(send.source, []).append(
                        (step.index, send)
                    )
            self._by_node_cache = template
        return dict(template)

    def max_concurrent_sends(self) -> int:
        """Largest per-node send count within a single step."""
        worst = 0
        for step in self.steps:
            per_node: Dict[Coordinate, int] = {}
            for send in step.sends:
                per_node[send.source] = per_node.get(send.source, 0) + 1
            if per_node:
                worst = max(worst, max(per_node.values()))
        return worst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BroadcastSchedule {self.algorithm} from {self.source}:"
            f" {self.num_steps} steps, {self.total_sends()} sends>"
        )
