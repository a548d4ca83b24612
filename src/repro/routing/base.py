"""The routing-function interface.

A :class:`RoutingFunction` answers one question: *from this node,
heading for that node, which adjacent nodes may the header advance to?*
Deterministic schemes return exactly one candidate; adaptive schemes
return several, and the router picks among them with a selection
function (here: least channel load, as is standard for wormhole
adaptive routers).

All routing functions here are *minimal*: every candidate reduces the
distance to the target, so path lengths equal the topology distance and
livelock is impossible.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.network.coordinates import Coordinate
from repro.network.topology import Topology

__all__ = ["RoutingError", "RoutingFunction"]

#: Signature of the congestion oracle handed to :meth:`RoutingFunction.next_hop`:
#: maps a directed channel ``(u, v)`` to its current load (occupancy + queue).
LoadOracle = Callable[[Coordinate, Coordinate], float]


class RoutingError(RuntimeError):
    """Raised when no legal move exists (malformed request or faults)."""


class RoutingFunction:
    """Abstract routing function over a topology.

    Parameters
    ----------
    topology:
        The network shape routes are computed on.
    """

    #: Human-readable scheme name (subclasses override).
    name = "abstract"

    def __init__(self, topology: Topology):
        self.topology = topology

    def candidates(self, current: Coordinate, target: Coordinate) -> List[Coordinate]:
        """Legal next nodes from ``current`` towards ``target``.

        Must be non-empty whenever ``current != target``; order encodes
        the scheme's preference for deterministic tie-breaking.
        """
        raise NotImplementedError

    # -- derived operations ------------------------------------------------
    def next_hop(
        self,
        current: Coordinate,
        target: Coordinate,
        load: Optional[LoadOracle] = None,
    ) -> Coordinate:
        """Pick the next node, using ``load`` to break adaptive choices.

        With no oracle (or a deterministic scheme) the first candidate
        wins; otherwise the least-loaded candidate channel wins, with
        candidate order breaking ties.
        """
        options = self.candidates(current, target)
        if not options:
            raise RoutingError(f"{self.name}: no legal move {current} -> {target}")
        if load is None or len(options) == 1:
            return options[0]
        best = options[0]
        best_load = load(current, best)
        for option in options[1:]:
            option_load = load(current, option)
            if option_load < best_load:
                best, best_load = option, option_load
        return best

    def path(self, source: Coordinate, target: Coordinate) -> List[Coordinate]:
        """The deterministic (first-candidate) route, inclusive of both ends."""
        if source == target:
            return [source]
        route = [source]
        current = source
        limit = self.topology.num_nodes + 1
        while current != target:
            current = self.next_hop(current, target)
            route.append(current)
            if len(route) > limit:  # pragma: no cover - defensive
                raise RoutingError(
                    f"{self.name}: no progress routing {source} -> {target}"
                )
        return route

    def idle_route(
        self, waypoints: Sequence[Coordinate]
    ) -> Tuple[List[Coordinate], bool]:
        """The route a waypoint send takes on an idle network.

        Each leg follows the first candidate at every hop — what
        :meth:`path` returns, and what the least-loaded choice picks
        while that candidate's channel is idle.  Also reports whether
        the first hop had more than one candidate.  Raises
        :class:`RoutingError` where a hop has no legal move.
        """
        nodes = [waypoints[0]]
        current = waypoints[0]
        first_choice = False
        for target in waypoints[1:]:
            while current != target:
                options = self.candidates(current, target)
                if not options:
                    raise RoutingError(
                        f"{self.name}: no legal move {current} -> {target}"
                    )
                if len(nodes) == 1:
                    first_choice = len(options) > 1
                current = options[0]
                nodes.append(current)
        return nodes, first_choice

    def is_legal_hop(
        self, current: Coordinate, nxt: Coordinate, target: Coordinate
    ) -> bool:
        """True when ``nxt`` is among the legal moves towards ``target``."""
        return nxt in self.candidates(current, target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} on {self.topology!r}>"
