"""Recursive Doubling (RD) — Barnett et al. [2].

The classic dimension-sweep broadcast: dimensions are processed in
order, and inside each dimension every holder repeatedly halves the
line segment it is responsible for, sending one unicast to the node at
its own relative position in the other half.  ``⌈log2 k⌉`` steps per
radix-``k`` dimension, so ``log2 N`` steps on power-of-two meshes —
the step count the paper quotes.

All sends are single-destination worms on dimension-ordered routes
(each is in fact a straight line within one dimension).  RD needs only
one injection port; the paper notes it cannot exploit multiport
routers.

Every holder of a dimension runs the same halving of the same line
from the same position (the source's), so the recursion runs once per
``(radix, position)`` (:func:`line_levels`) and each step's sends are
the holders shifted by its pairs of positions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.core.base import UnicastBroadcast, UnicastTable
from repro.network.coordinates import Coordinate, row_major_strides

__all__ = ["RecursiveDoubling", "line_levels"]


def _frozen(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def line_levels(
    n: int, pos: int
) -> Tuple[Tuple[Tuple[np.ndarray, np.ndarray], ...], Tuple[int, ...]]:
    """Recursive halving of a line of ``n`` positions held at ``pos``.

    A segment of ``size`` positions splits into a left part of
    ``⌈size/2⌉`` and a right part of ``⌊size/2⌋``; its holder sends to its own
    relative position in the opposite part — or, when the smaller right
    part has no such position, to that part's last, so the part still
    gains a holder — and both parts recurse.

    Returns ``(levels, reached)``: ``levels[l]`` is the ``(from, to)``
    position arrays of the sends at recursion depth ``l``, in
    depth-first order, and ``reached`` lists the positions in the order
    the recursion hands them a copy.  Results are cached and read-only.
    """
    levels: List[Tuple[List[int], List[int]]] = [
        ([], []) for _ in range(math.ceil(math.log2(n)) if n > 1 else 0)
    ]
    reached: List[int] = []
    _halve(pos, 0, n, 0, levels, reached)
    return (
        tuple((_frozen(frm), _frozen(to)) for frm, to in levels),
        tuple(reached),
    )


def _halve(holder, lo, hi, level, levels, reached) -> None:
    """One segment of :func:`line_levels`' recursion."""
    size = hi - lo
    if size <= 1:
        return
    half = (size + 1) // 2
    left, right = (lo, lo + half), (lo + half, hi)
    if holder < lo + half:
        partner = min(holder + half, hi - 1)
        own, other = left, right
    else:
        partner = holder - half
        own, other = right, left
    levels[level][0].append(holder)
    levels[level][1].append(partner)
    reached.append(partner)
    _halve(holder, *own, level + 1, levels, reached)
    _halve(partner, *other, level + 1, levels, reached)


class RecursiveDoubling(UnicastBroadcast):
    """RD broadcast on an n-dimensional mesh.

    Examples
    --------
    >>> from repro.network import Mesh
    >>> rd = RecursiveDoubling(Mesh((8, 8, 8)))
    >>> rd.step_count()
    9
    >>> rd.schedule((0, 0, 0)).num_steps
    9
    """

    name = "RD"
    ports_required = 1
    adaptive = False

    def step_count(self) -> int:
        return sum(
            math.ceil(math.log2(d)) for d in self.topology.dims if d > 1
        )

    def _unicast_steps(self, source: Coordinate) -> UnicastTable:
        """Dimensions in order; each step is one halving depth of a line.

        Holders are kept holder-major, as the recursion visits them: a
        step's sends are every holder's sends at that depth, holder by
        holder, and after a dimension each holder is replaced by its
        whole line.
        """
        dims = self.topology.dims
        strides = row_major_strides(dims)
        holders = np.asarray(
            [sum(c * s for c, s in zip(source, strides))], dtype=np.int64
        )
        steps: UnicastTable = []
        for axis, radix in enumerate(dims):
            if radix == 1:
                continue
            pos, stride = source[axis], strides[axis]
            line = holders[:, None] - pos * stride  # each holder's line start
            levels, _ = line_levels(radix, pos)
            for frm, to in levels:
                steps.append(
                    ((line + frm * stride).ravel(), (line + to * stride).ravel())
                )
            holders = (line + np.arange(radix) * stride).ravel()
        return steps
