"""Extended Dominating Nodes (EDN) — Tsai & McKinley [20].

A multiport (3-port) broadcast built on dominating-node levels.  The
reproduction uses the three-phase construction documented below
(the full dominating-set tables of the original paper are not
reproduced in the paper under study, which only quotes the step-count
formula):

Phase A — *plane distribution* (``k`` steps on conforming sizes):
    the source's xy-plane is tiled into 4×4 blocks; recursive quadrant
    splitting of the block grid hands a representative of every block a
    copy, using up to 3 ports per step.
Phase B — *z spread* (``m + 2`` steps):
    each block representative recursively doubles along the z
    dimension, giving every (block, plane) pair a holder.
Phase C — *block coverage* (2 steps):
    each holder covers its ≤ 4×4 block with 3-port quadrant splitting
    (1 → 4 → 16 nodes in two steps).

On the paper's conforming sizes ``(4·2^k) × (4·2^k) × (4·2^m)`` the
total is exactly the quoted ``k + m + 4``.  Non-conforming sizes (the
paper's EDN "requires that the number of nodes along a given dimension
be a multiple of 4") are handled by uneven quadrant splits — e.g. the
10×10×10 point of Fig. 1 — with step counts from the same recursions.

All sends are unicast worms on dimension-ordered routes.  Phase B's
lines and phase C's blocks repeat one recursion over many holders, so
each recursion runs once per shape and holder position
(:func:`~repro.core.recursive_doubling.line_levels`,
:func:`quadrant_levels`) and a step's sends are its holders shifted by
the recursion's offsets.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.core.base import UnicastBroadcast, UnicastTable
from repro.core.recursive_doubling import line_levels
from repro.network.coordinates import Coordinate, row_major_strides
from repro.network.topology import Mesh

__all__ = ["ExtendedDominatingNodes", "quadrant_levels"]

#: Edge length of the basic dominated block.
BLOCK = 4

Rect = Tuple[int, int, int, int]  # x0, y0, width, height (in block units or cells)
XY = Tuple[int, int]


def _clog2(n: int) -> int:
    return math.ceil(math.log2(n)) if n > 1 else 0


@lru_cache(maxsize=None)
def quadrant_levels(
    w: int, h: int, hx: int, hy: int
) -> Tuple[Tuple[Tuple[Tuple[XY, XY], ...], ...], Tuple[XY, ...]]:
    """Quadrant recursion over a ``w × h`` grid held at ``(hx, hy)``.

    A rectangle splits into up to four quadrants, ``⌈w/2⌉`` then
    ``⌊w/2⌋`` wide and ``⌈h/2⌉`` then ``⌊h/2⌋`` high; its holder sends to
    its own relative position in every other quadrant (clipped into
    it), each such quadrant recurses from its new holder, and the
    holder's own quadrant recurses last.

    Returns ``(levels, reached)``: ``levels[l]`` is the ``(from, to)``
    grid positions of the sends at recursion depth ``l``, in depth-first
    order, and ``reached`` lists the positions in the order the
    recursion hands them a copy.  Results are cached.
    """
    levels: List[List[Tuple[XY, XY]]] = [[] for _ in range(_clog2(max(w, h)))]
    reached: List[XY] = []
    _split((0, 0, w, h), (hx, hy), 0, levels, reached)
    return tuple(map(tuple, levels)), tuple(reached)


def _split(rect: Rect, holder: XY, level: int, levels, reached) -> None:
    """One rectangle of :func:`quadrant_levels`' recursion."""
    x0, y0, w, h = rect
    if w <= 1 and h <= 1:
        return
    wx = (w + 1) // 2
    wy = (h + 1) // 2
    quads = [
        (qx0, qy0, qw, qh)
        for qx0, qw in ((x0, wx), (x0 + wx, w - wx))
        for qy0, qh in ((y0, wy), (y0 + wy, h - wy))
        if qw > 0 and qh > 0
    ]
    hx, hy = holder
    own = next(
        q for q in quads if q[0] <= hx < q[0] + q[2] and q[1] <= hy < q[1] + q[3]
    )
    for q in quads:
        if q is own:
            continue
        target = (
            min(q[0] + (hx - own[0]), q[0] + q[2] - 1),
            min(q[1] + (hy - own[1]), q[1] + q[3] - 1),
        )
        levels[level].append((holder, target))
        reached.append(target)
        _split(q, target, level + 1, levels, reached)
    _split(own, holder, level + 1, levels, reached)


class ExtendedDominatingNodes(UnicastBroadcast):
    """EDN broadcast on a 2-D or 3-D mesh.

    Examples
    --------
    >>> from repro.network import Mesh
    >>> edn = ExtendedDominatingNodes(Mesh((8, 8, 8)))   # k=1, m=1
    >>> edn.step_count()                                 # k + m + 4
    6
    """

    name = "EDN"
    ports_required = 3
    adaptive = False

    def __init__(self, topology):
        super().__init__(topology)
        mesh = self._require_mesh(min_dims=2)
        if mesh.ndim not in (2, 3):
            raise ValueError(f"EDN supports 2-D/3-D meshes, got {mesh.ndim}-D")
        kx, ky = mesh.dims[0], mesh.dims[1]
        self._kz = mesh.dims[2] if mesh.ndim == 3 else 1
        self._bx = math.ceil(kx / BLOCK)
        self._by = math.ceil(ky / BLOCK)

    # -- step count -------------------------------------------------------
    def phase_steps(self) -> Tuple[int, int, int]:
        """(phase A, phase B, phase C) step counts."""
        mesh: Mesh = self.topology  # checked in __init__
        kx, ky = mesh.dims[0], mesh.dims[1]
        a = _clog2(max(self._bx, self._by))
        b = _clog2(self._kz)
        wmax = min(BLOCK, kx)
        hmax = min(BLOCK, ky)
        c = _clog2(max(wmax, hmax))
        return a, b, c

    def step_count(self) -> int:
        return sum(self.phase_steps())

    @staticmethod
    def conforming_parameters(dims) -> Tuple[int, int] | None:
        """Return ``(k, m)`` when ``dims`` matches the paper's family.

        The paper's formula targets ``(4·2^k) × (4·2^k) × (4·2^m)``
        networks; for those this returns ``(k, m)`` with step count
        ``k + m + 4``; otherwise ``None``.
        """
        if len(dims) != 3:
            return None
        kx, ky, kz = dims
        if kx != ky:
            return None
        for base, out in ((kx, 0), (kz, 1)):
            if base < 4 or base % 4:
                return None
            q = base // 4
            if q & (q - 1):
                return None
        return (kx // 4).bit_length() - 1, (kz // 4).bit_length() - 1

    # -- geometry helpers ----------------------------------------------------
    def _block_cells(self, bx: int, by: int) -> Rect:
        """Cell rectangle (x0, y0, w, h) of block ``(bx, by)``."""
        mesh: Mesh = self.topology
        x0, y0 = bx * BLOCK, by * BLOCK
        w = min(BLOCK, mesh.dims[0] - x0)
        h = min(BLOCK, mesh.dims[1] - y0)
        return (x0, y0, w, h)

    # -- schedule construction --------------------------------------------------
    def _unicast_steps(self, source: Coordinate) -> UnicastTable:
        """Phases A, B and C in order, one step per recursion depth.

        Every block's dominating (representative) node sits at the
        centre of its cells, rounded down.  Phase A runs the quadrant
        recursion over the block grid of the source plane, from the
        source's block; the holder of the source's block is the source
        itself, every other block's is its representative.  Phase B
        doubles each block's holder along z, blocks in the order phase A
        reached them; every new holder is a representative.  Phase C
        runs the quadrant recursion over the cells of every
        ``(block, plane)`` holder, blocks in phase-A order and planes in
        the order phase B reached them.
        """
        _, _, c_steps = self.phase_steps()
        strides = row_major_strides(self.topology.dims)
        sx, sy = strides[0], strides[1]
        sz, z0 = (strides[2], source[2]) if len(strides) == 3 else (0, 0)
        source_idx = sum(c * s for c, s in zip(source, strides))
        steps: UnicastTable = []

        # Phase A: one quadrant recursion over the blocks.
        src_block = (source[0] // BLOCK, source[1] // BLOCK)
        levels, reached = quadrant_levels(self._bx, self._by, *src_block)
        blocks = [src_block, *reached]
        cells = [self._block_cells(*block) for block in blocks]
        rep = {
            block: (x0 + (w - 1) // 2) * sx + (y0 + (h - 1) // 2) * sy
            for block, (x0, y0, w, h) in zip(blocks, cells)
        }
        holder = {block: node + z0 * sz for block, node in rep.items()}
        holder[src_block] = source_idx
        for sends in levels:
            steps.append((
                np.asarray([holder[a] for a, _ in sends], dtype=np.int64),
                np.asarray([holder[b] for _, b in sends], dtype=np.int64),
            ))

        # Phase B: every block's holder doubles along its z column.
        column = (
            np.asarray([rep[block] for block in blocks], dtype=np.int64)[:, None]
            + np.arange(self._kz, dtype=np.int64) * sz
        )
        column[0, z0] = source_idx
        z_levels, z_reached = line_levels(self._kz, z0)
        for frm, to in z_levels:
            steps.append((column[:, frm].ravel(), column[:, to].ravel()))

        # Phase C: every (block, plane) holder covers its block's cells.
        # Holder ``rank * n_planes + plane`` keeps block-then-plane order;
        # holders that run one recursion (block shape and holder offset)
        # are shifted together, and each step is merged back into
        # holder order.
        planes = np.asarray((z0, *z_reached), dtype=np.int64) * sz
        n_planes = planes.size
        groups: Dict[Tuple[int, ...], List[Tuple[np.ndarray, np.ndarray]]] = {}
        for rank, (x0, y0, w, h) in enumerate(cells):
            ranks = rank * n_planes + np.arange(n_planes)
            origins = x0 * sx + y0 * sy + planes
            if rank == 0:  # the source holds its own block in its own plane
                key = (w, h, source[0] - x0, source[1] - y0)
                groups.setdefault(key, []).append((ranks[:1], origins[:1]))
                ranks, origins = ranks[1:], origins[1:]
            key = (w, h, (w - 1) // 2, (h - 1) // 2)
            groups.setdefault(key, []).append((ranks, origins))
        runs = [
            (
                quadrant_levels(*key)[0],
                np.concatenate([r for r, _ in members])[:, None],
                np.concatenate([o for _, o in members])[:, None],
            )
            for key, members in groups.items()
        ]
        for level in range(c_steps):
            order, senders, receivers = [], [], []
            for cell_levels, ranks, origins in runs:
                sends = cell_levels[level] if level < len(cell_levels) else ()
                frm = np.asarray(
                    [x * sx + y * sy for (x, y), _ in sends], dtype=np.int64
                )
                to = np.asarray(
                    [x * sx + y * sy for _, (x, y) in sends], dtype=np.int64
                )
                order.append((ranks * BLOCK * BLOCK + np.arange(frm.size)).ravel())
                senders.append((origins + frm).ravel())
                receivers.append((origins + to).ravel())
            by_holder = np.argsort(np.concatenate(order))
            steps.append((
                np.concatenate(senders)[by_holder],
                np.concatenate(receivers)[by_holder],
            ))
        return steps
