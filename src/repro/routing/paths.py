"""Path objects.

A :class:`Path` is the alternating node/channel sequence a worm
traverses — the paper's "path is an alternating sequence of nodes and
channels traversed by a message".  Paths know how to validate
themselves against a topology and enumerate their channels, and CPR
multidestination paths carry the subset of on-path nodes that must
absorb a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Sequence, Tuple

from repro.network.coordinates import Coordinate
from repro.network.topology import Topology

__all__ = ["Path"]


@dataclass(frozen=True)
class Path:
    """An ordered walk through the network.

    Parameters
    ----------
    nodes:
        Visited nodes, source first.  Consecutive nodes must be
        adjacent in the topology the path is used on.
    deliveries:
        The on-path nodes that absorb a copy (CPR).  Defaults to just
        the final node (plain unicast semantics).
    """

    nodes: Tuple[Coordinate, ...]
    deliveries: FrozenSet[Coordinate] = field(default_factory=frozenset)

    def __init__(
        self,
        nodes: Sequence[Coordinate],
        deliveries: Sequence[Coordinate] | None = None,
    ):
        nodes_t = tuple(map(tuple, nodes))
        if len(nodes_t) < 1:
            raise ValueError("a path needs at least one node")
        if deliveries is None:
            deliveries_f = frozenset({nodes_t[-1]}) if len(nodes_t) > 1 else frozenset()
        else:
            deliveries_f = frozenset(map(tuple, deliveries))
        on_path = set(nodes_t)
        stray = deliveries_f - on_path
        if stray:
            raise ValueError(f"deliveries {sorted(stray)} are not on the path")
        if nodes_t[0] in deliveries_f:
            raise ValueError("the source cannot be a delivery target")
        object.__setattr__(self, "nodes", nodes_t)
        object.__setattr__(self, "deliveries", deliveries_f)

    # -- shape ------------------------------------------------------------
    @property
    def source(self) -> Coordinate:
        return self.nodes[0]

    @property
    def terminus(self) -> Coordinate:
        return self.nodes[-1]

    @property
    def hop_count(self) -> int:
        """Number of channels traversed."""
        return len(self.nodes) - 1

    def channels(self) -> Iterator[Tuple[Coordinate, Coordinate]]:
        """The directed channels the worm occupies, in order."""
        for i in range(len(self.nodes) - 1):
            yield (self.nodes[i], self.nodes[i + 1])

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Coordinate]:
        return iter(self.nodes)

    # -- validation --------------------------------------------------------
    def validate(self, topology: Topology) -> None:
        """Raise ``ValueError`` unless every hop is a real channel."""
        for node in self.nodes:
            if not topology.contains(node):
                raise ValueError(f"path node {node} is outside {topology!r}")
        seen = set()
        for u, v in self.channels():
            if not topology.are_adjacent(u, v):
                raise ValueError(f"path hop {u} -> {v} is not a channel")
            if (u, v) in seen:
                raise ValueError(f"path reuses channel {u} -> {v}")
            seen.add((u, v))

    def is_minimal(self, topology: Topology) -> bool:
        """True when the walk length equals the topological distance."""
        return self.hop_count == topology.distance(self.source, self.terminus)

    def prefix_lengths(self) -> List[int]:
        """Hop index at which each node is reached (0 for the source)."""
        return list(range(len(self.nodes)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Path {self.source}->{self.terminus} hops={self.hop_count}"
            f" deliveries={len(self.deliveries)}>"
        )
