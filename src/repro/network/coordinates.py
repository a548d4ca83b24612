"""Coordinate arithmetic for n-dimensional grids.

A node in a ``d1 × d2 × … × dn`` network is addressed by an integer
tuple ``(x1, …, xn)`` with ``0 <= xi < di``.  Linear indices use
row-major (C) order: the *last* dimension varies fastest, matching
``numpy.ravel_multi_index``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence, Tuple

__all__ = [
    "Coordinate",
    "to_index",
    "from_index",
    "row_major_strides",
    "coordinate_iter",
    "manhattan_distance",
    "chebyshev_distance",
    "add",
    "validate_dims",
    "validate_coordinate",
]

#: A node address: one integer per dimension.
Coordinate = Tuple[int, ...]


def validate_dims(dims: Sequence[int]) -> Tuple[int, ...]:
    """Check and normalise a dimension vector."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("network must have at least one dimension")
    if any(d < 1 for d in dims):
        raise ValueError(f"all dimensions must be >= 1, got {dims}")
    return dims


def validate_coordinate(coord: Sequence[int], dims: Sequence[int]) -> Coordinate:
    """Check ``coord`` lies inside the grid defined by ``dims``."""
    coord = tuple(int(c) for c in coord)
    if len(coord) != len(dims):
        raise ValueError(f"coordinate {coord} has wrong arity for dims {tuple(dims)}")
    for c, d in zip(coord, dims):
        if not 0 <= c < d:
            raise ValueError(f"coordinate {coord} outside grid {tuple(dims)}")
    return coord


def to_index(coord: Sequence[int], dims: Sequence[int]) -> int:
    """Linear (row-major) index of ``coord`` in a grid of shape ``dims``."""
    coord = validate_coordinate(coord, dims)
    index = 0
    for c, d in zip(coord, dims):
        index = index * d + c
    return index


def row_major_strides(dims: Sequence[int]) -> Tuple[int, ...]:
    """Index step of one hop along each axis: ``to_index`` is ``Σ c·s``."""
    strides = [1] * len(dims)
    for axis in range(len(dims) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * dims[axis + 1]
    return tuple(strides)


def from_index(index: int, dims: Sequence[int]) -> Coordinate:
    """Inverse of :func:`to_index`."""
    dims = validate_dims(dims)
    total = 1
    for d in dims:
        total *= d
    if not 0 <= index < total:
        raise ValueError(f"index {index} outside grid of {total} nodes")
    out = []
    for d in reversed(dims):
        out.append(index % d)
        index //= d
    return tuple(reversed(out))


def coordinate_iter(dims: Sequence[int]) -> Iterator[Coordinate]:
    """Iterate all coordinates in linear-index order."""
    dims = validate_dims(dims)
    # product() yields row-major order (last dimension fastest) — the
    # same sequence as from_index(0..total), without re-deriving each
    # coordinate from its index.
    return iter(product(*(range(d) for d in dims)))


def manhattan_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Sum of per-dimension offsets — the mesh hop distance."""
    if len(a) != len(b):
        raise ValueError("coordinates of different arity")
    return sum(abs(x - y) for x, y in zip(a, b))


def chebyshev_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Maximum per-dimension offset."""
    if len(a) != len(b):
        raise ValueError("coordinates of different arity")
    return max(abs(x - y) for x, y in zip(a, b))


def add(coord: Sequence[int], delta: Sequence[int]) -> Coordinate:
    """Component-wise sum (no bounds check)."""
    if len(coord) != len(delta):
        raise ValueError("coordinates of different arity")
    return tuple(c + d for c, d in zip(coord, delta))
