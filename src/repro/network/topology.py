"""Network topologies.

:class:`Topology` is the abstract shape of an interconnection network:
a set of node coordinates plus a directed-adjacency relation.  Physical
channels are *unidirectional*: each bidirectional mesh link contributes
two directed channels, matching the router model in Duato et al. that
the paper builds on.

:class:`Mesh` is the paper's subject — the k-ary n-dimensional mesh —
and the only topology the package implements.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.network.coordinates import (
    Coordinate,
    coordinate_iter,
    from_index,
    manhattan_distance,
    to_index,
    validate_coordinate,
    validate_dims,
)

__all__ = ["Topology", "Mesh"]


class Topology:
    """Abstract interconnection-network shape.

    Subclasses implement :meth:`neighbors` (and may override
    :meth:`distance`).  Everything else — channel enumeration, index
    mapping, containment — is shared.
    """

    def __init__(self, dims: Sequence[int]):
        self.dims: Tuple[int, ...] = validate_dims(dims)
        self.ndim = len(self.dims)
        n = 1
        for d in self.dims:
            n *= d
        self.num_nodes = n

    # -- shape ------------------------------------------------------------
    def nodes(self) -> Iterator[Coordinate]:
        """All node coordinates in linear-index order."""
        return coordinate_iter(self.dims)

    def contains(self, coord: Sequence[int]) -> bool:
        """True when ``coord`` is a valid node address."""
        return len(coord) == self.ndim and all(
            0 <= c < d for c, d in zip(coord, self.dims)
        )

    def index(self, coord: Sequence[int]) -> int:
        """Linear index of a node."""
        return to_index(coord, self.dims)

    def coordinate(self, index: int) -> Coordinate:
        """Node coordinate for a linear index."""
        return from_index(index, self.dims)

    # -- adjacency ----------------------------------------------------------
    def neighbors(self, coord: Coordinate) -> List[Coordinate]:
        """Nodes with a direct channel from ``coord``."""
        raise NotImplementedError

    def channels(self) -> Iterator[Tuple[Coordinate, Coordinate]]:
        """All directed channels ``(u, v)``."""
        for u in self.nodes():
            for v in self.neighbors(u):
                yield (u, v)

    def are_adjacent(self, u: Coordinate, v: Coordinate) -> bool:
        """True when the directed channel ``u → v`` exists."""
        return v in self.neighbors(u)

    def distance(self, u: Coordinate, v: Coordinate) -> int:
        """Minimal hop count between two nodes."""
        raise NotImplementedError

    def diameter(self) -> int:
        """Largest minimal distance over all node pairs."""
        corners = [tuple(0 for _ in self.dims), tuple(d - 1 for d in self.dims)]
        return max(
            self.distance(a, b) for a in corners for b in corners
        )

    # -- conversion --------------------------------------------------------------
    def degree_histogram(self) -> Dict[int, int]:
        """Map node degree → count (diagnostic / test helper)."""
        hist: Dict[int, int] = {}
        for u in self.nodes():
            d = len(self.neighbors(u))
            hist[d] = hist.get(d, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {'x'.join(map(str, self.dims))}>"


class Mesh(Topology):
    """The k-ary n-dimensional mesh.

    Nodes differing by exactly 1 in exactly one dimension are joined by
    a pair of opposite unidirectional channels.  No wraparound.

    Parameters
    ----------
    dims:
        Radix per dimension, e.g. ``(8, 8, 8)`` for the paper's
        512-node 3-D mesh.

    Examples
    --------
    >>> m = Mesh((4, 4, 4))
    >>> m.num_nodes
    64
    >>> m.distance((0, 0, 0), (3, 3, 3))
    9
    """

    def neighbors(self, coord: Coordinate) -> List[Coordinate]:
        coord = validate_coordinate(coord, self.dims)
        out: List[Coordinate] = []
        for axis, (c, d) in enumerate(zip(coord, self.dims)):
            if c > 0:
                out.append(coord[:axis] + (c - 1,) + coord[axis + 1 :])
            if c < d - 1:
                out.append(coord[:axis] + (c + 1,) + coord[axis + 1 :])
        return out

    def channels(self) -> Iterator[Tuple[Coordinate, Coordinate]]:
        """All directed channels, generated without per-node validation.

        Yields exactly the base-class order (nodes linearly, per axis
        the ``c-1`` then ``c+1`` neighbour) — full channel views and
        fault enumeration iterate this, so it skips the re-validation
        ``neighbors()`` performs on arbitrary input.
        """
        dims = self.dims
        for coord in self.nodes():
            for axis, (c, d) in enumerate(zip(coord, dims)):
                if c > 0:
                    yield coord, coord[:axis] + (c - 1,) + coord[axis + 1 :]
                if c < d - 1:
                    yield coord, coord[:axis] + (c + 1,) + coord[axis + 1 :]

    def are_adjacent(self, u: Coordinate, v: Coordinate) -> bool:
        """O(ndim) test: ``v`` differs from ``u`` by 1 on exactly one axis.

        Same answers as the base class (and the same ``ValueError`` on
        an invalid ``u``) without building ``u``'s neighbour list — a
        lazily built network asks this once per channel it creates.
        """
        u = validate_coordinate(u, self.dims)
        if len(v) != self.ndim:
            return False
        differing = 0
        for a, b, d in zip(u, v, self.dims):
            if a != b:
                if abs(a - b) != 1 or not 0 <= b < d:
                    return False
                differing += 1
        return differing == 1

    def distance(self, u: Coordinate, v: Coordinate) -> int:
        u = validate_coordinate(u, self.dims)
        v = validate_coordinate(v, self.dims)
        return manhattan_distance(u, v)

    def corners(self) -> List[Coordinate]:
        """The 2^n corner nodes."""
        out = [()]
        for d in self.dims:
            out = [c + (e,) for c in out for e in (0, d - 1)]
        # Degenerate dimensions (radix 1) duplicate corners; dedupe.
        seen: Dict[Coordinate, None] = {}
        for c in out:
            seen[c] = None
        return list(seen)

    def nearest_corner(self, coord: Coordinate) -> Coordinate:
        """The corner minimising hop distance from ``coord``."""
        coord = validate_coordinate(coord, self.dims)
        return tuple(0 if c <= (d - 1) / 2 else d - 1 for c, d in zip(coord, self.dims))

    def opposite_corner(self, corner: Coordinate) -> Coordinate:
        """The corner diagonally opposite ``corner``."""
        corner = validate_coordinate(corner, self.dims)
        return tuple(d - 1 - c for c, d in zip(corner, self.dims))

    def plane(self, axis: int, value: int) -> List[Coordinate]:
        """All nodes whose ``axis`` coordinate equals ``value``."""
        if not 0 <= axis < self.ndim:
            raise ValueError(f"axis {axis} out of range")
        if not 0 <= value < self.dims[axis]:
            raise ValueError(f"plane {value} outside dimension {axis}")
        return [c for c in self.nodes() if c[axis] == value]

    def line(self, coord: Coordinate, axis: int) -> List[Coordinate]:
        """All nodes sharing every coordinate of ``coord`` except ``axis``."""
        coord = validate_coordinate(coord, self.dims)
        return [
            coord[:axis] + (v,) + coord[axis + 1 :] for v in range(self.dims[axis])
        ]
