"""Deterministic Broadcast (DB) — Al-Dubai & Ould-Khaoua [28].

The coded-path deterministic broadcast, here in the 3-D form the paper
simulates (§2 describes the 2-D version and notes the extension):

Step 1 — the source unicasts to the two opposite corner nodes
    ``A = (0, 0, 0)`` and ``B = (kx-1, ky-1, kz-1)`` over
    dimension-ordered routes.
Step 2 — A and B each launch one multidestination worm along their
    z-pillar, handing two opposite corners of *every* xy-plane a copy
    in parallel.
Step 3 — in every plane, corner ``(0, 0, z)`` covers boundary row
    ``y = 0`` eastward and corner ``(kx-1, ky-1, z)`` covers boundary
    row ``y = ky-1`` westward, each with one coded-path worm.
Step 4 — every node of the two boundary rows launches one column worm
    toward the middle; the south row covers the lower interior rows,
    the north row the upper ones, splitting the interior into the
    "comparable partitions" the paper credits for DB's low
    arrival-time variance.

Steps that have nothing to do on degenerate dimensions (``kz = 1``,
``ky = 2``) are dropped, so the step count is
``2 + [kz > 1] + [ky > 2]`` — 4 on all the paper's 3-D configurations.
Every worm follows a dimension-ordered route; the source needs 2
injection ports, every other sender 1.

The sends are emitted once, as a walk table of node indices
(:class:`~repro.core.base.WalkBroadcast`), each step's straight worms
drawn together; ``schedule()`` materialises it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.base import StepWalks, WalkBroadcast, coded_path_walks
from repro.network.coordinates import Coordinate, row_major_strides
from repro.network.message import ControlField
from repro.routing.dimension_ordered import unicast_walks
from repro.routing.walks import straight_walks

__all__ = ["DeterministicBroadcast"]


class DeterministicBroadcast(WalkBroadcast):
    """DB broadcast on a 2-D or 3-D mesh (radix >= 2 in x and y).

    Examples
    --------
    >>> from repro.network import Mesh
    >>> db = DeterministicBroadcast(Mesh((8, 8, 8)))
    >>> db.step_count()
    4
    """

    name = "DB"
    ports_required = 2
    adaptive = False

    def __init__(self, topology):
        super().__init__(topology)
        mesh = self._require_mesh(min_dims=2)
        if mesh.ndim not in (2, 3):
            raise ValueError(f"DB supports 2-D/3-D meshes, got {mesh.ndim}-D")
        if mesh.dims[0] < 2 or mesh.dims[1] < 2:
            raise ValueError("DB needs radix >= 2 in the x and y dimensions")
        self._kz = mesh.dims[2] if mesh.ndim == 3 else 1

    def step_count(self) -> int:
        ky = self.topology.dims[1]
        return 2 + (1 if self._kz > 1 else 0) + (1 if ky > 2 else 0)

    # -- schedule -----------------------------------------------------------
    def _walk_steps(self, source: Coordinate) -> List[StepWalks]:
        """The four steps, each family of straight worms built at once.

        Every coded-path worm is a straight line that delivers to every
        node after its launcher but the source; a line left with nothing
        to deliver is dropped.
        """
        dims = self.topology.dims
        kx, ky, kz = dims[0], dims[1], self._kz
        strides = row_major_strides(dims)
        sx, sy = strides[0], strides[1]
        sz = strides[2] if len(dims) == 3 else 0
        source_idx = sum(c * s for c, s in zip(source, strides))
        corner_b = (kx - 1) * sx + (ky - 1) * sy + (kz - 1) * sz
        planes = np.arange(kz, dtype=np.int64) * sz
        steps: List[StepWalks] = []

        def lines(start, stride, hops, control):
            ptr, node = straight_walks(start, stride, hops)
            return coded_path_walks(ptr, node, source_idx, control)

        # Step 1: source -> the two opposite corners of the whole mesh.
        corners = np.asarray(
            [c for c in (0, corner_b) if c != source_idx], dtype=np.int64
        )
        ptr, node = unicast_walks(
            dims, np.full(corners.size, source_idx, dtype=np.int64), corners
        )
        deliver = np.zeros(node.size, dtype=bool)
        deliver[ptr[1:] - 1] = True
        steps.append(
            StepWalks(ptr, node, deliver, ControlField.PASS_AND_RECEIVE)
        )

        # Step 2: corner pillars hand every plane two opposite corners.
        if kz > 1:
            steps.append(lines(
                [0, corner_b], [sz, -sz], kz - 1,
                ControlField.RECEIVE_AND_REPLICATE,
            ))

        # Step 3: per plane, the two corners cover their boundary rows:
        # (0, 0, z) eastward, then (kx-1, ky-1, z) westward.
        north = (kx - 1) * sx + (ky - 1) * sy
        steps.append(lines(
            np.stack((planes, planes + north), axis=1).ravel(),
            np.tile([sx, -sx], kz), kx - 1,
            ControlField.RECEIVE_AND_REPLICATE,
        ))

        # Step 4: boundary rows fill the interior columns toward the
        # middle; per plane and column, south covers rows 1..mid, then
        # north covers mid+1..ky-2.
        if ky > 2:
            mid = (ky - 1) // 2
            columns = (planes[:, None] + np.arange(kx) * sx).ravel()
            if mid + 1 <= ky - 2:
                start = np.stack(
                    (columns, columns + (ky - 1) * sy), axis=1
                ).ravel()
                stride = np.tile([sy, -sy], columns.size)
                hops = np.tile([mid, ky - 2 - mid], columns.size)
            else:
                start, stride, hops = columns, sy, mid
            steps.append(
                lines(start, stride, hops, ControlField.PASS_AND_RECEIVE)
            )
        return steps
