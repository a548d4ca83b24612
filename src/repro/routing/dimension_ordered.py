"""Dimension-ordered (e-cube / XY / XYZ) routing.

The deterministic workhorse of practical mesh machines and the scheme
the paper's RD, EDN and DB algorithms rely on: the header corrects
dimension offsets in a fixed order, never revisiting a dimension.
Deadlock-free because the channel-dependence graph is acyclic (no turn
from a higher-ordered dimension back into a lower-ordered one).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.network.coordinates import Coordinate, row_major_strides
from repro.network.topology import Topology
from repro.routing.base import RoutingFunction

__all__ = ["DimensionOrdered", "unicast_walks"]


class DimensionOrdered(RoutingFunction):
    """Deterministic dimension-ordered routing on a mesh.

    Parameters
    ----------
    topology:
        The mesh to route on.
    order:
        Permutation of dimension indices giving the correction order.
        Defaults to ``(0, 1, …, n-1)`` — the classic XY/XYZ routing.

    Examples
    --------
    >>> from repro.network import Mesh
    >>> dor = DimensionOrdered(Mesh((4, 4)))
    >>> dor.path((0, 0), (2, 2))
    [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]
    """

    name = "dimension-ordered"

    def __init__(self, topology: Topology, order: Optional[Sequence[int]] = None):
        super().__init__(topology)
        ndim = topology.ndim
        self.order: Tuple[int, ...] = (
            tuple(range(ndim)) if order is None else tuple(order)
        )
        if sorted(self.order) != list(range(ndim)):
            raise ValueError(
                f"order {self.order} is not a permutation of 0..{ndim - 1}"
            )

    def candidates(self, current: Coordinate, target: Coordinate) -> List[Coordinate]:
        if current == target:
            return []
        for axis in self.order:
            delta = target[axis] - current[axis]
            if delta != 0:
                step = 1 if delta > 0 else -1
                nxt = (
                    current[:axis] + (current[axis] + step,) + current[axis + 1 :]
                )
                return [nxt]
        return []  # pragma: no cover - current == target handled above


def unicast_walks(
    dims: Sequence[int], src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Dimension-ordered routes of unicasts as flat node-index walks.

    ``src`` and ``dst`` are row-major node indices of a mesh of shape
    ``dims``.  Worm ``k`` corrects axis 0 first, then axis 1, … — the
    route :class:`DimensionOrdered` takes — and visits ``walk_node[walk_ptr[k] : walk_ptr[k + 1]]``,
    ``src[k]`` first and ``dst[k]`` last.  A hop along an axis adds that
    axis's signed row-major stride to the index.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    strides = np.asarray(row_major_strides(dims), dtype=np.int64)
    extent = np.asarray(dims, dtype=np.int64)
    delta = (dst[:, None] // strides) % extent - (src[:, None] // strides) % extent
    count = np.abs(delta)
    walk_ptr = np.zeros(src.size + 1, dtype=np.int64)
    np.cumsum(count.sum(axis=1) + 1, out=walk_ptr[1:])
    # One running sum draws every walk: each walk's first increment
    # jumps from the previous walk's last node to its own source, the
    # rest are its hops' signed strides in axis order.
    step = np.empty(int(walk_ptr[-1]), dtype=np.int64)
    heads = walk_ptr[:-1]
    hop = np.ones(step.size, dtype=bool)
    hop[heads] = False
    step[hop] = np.repeat((np.sign(delta) * strides).ravel(), count.ravel())
    step[heads] = src - np.concatenate(([0], dst[:-1]))
    return walk_ptr, np.cumsum(step)
