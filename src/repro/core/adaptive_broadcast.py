"""Adaptive Broadcast (AB) — Al-Dubai, Ould-Khaoua & Mackenzie [27].

The coded-path adaptive broadcast, plane-based as the paper describes
(§2), running over west-first turn-model routing:

Step 1 — the source sends to the *nearest* corner of its own xy-plane
    and to the *opposite* corner of that plane (control field ``10``).
    These worms are routed adaptively (west-first, least-loaded
    channel) at simulation time.
Step 2 — each of the two corners relays along its z-pillar to the
    corresponding corners of every other plane (control field ``11``),
    so every plane receives the message via two corners in parallel.
Step 3 — every plane is divided into two halves of rows; each corner
    covers its half with a long coded-path worm.  The worms are
    *west-first legal*: a corner on the west edge sweeps its half with
    north/south column runs moving east; a corner on the east edge
    first exhausts all its west moves along its own row, then sweeps
    east — a west-first path may contain only one west phase, at the
    start.  The paper highlights exactly this property: AB needs only
    three steps but "uses longer paths in its third step".

``max_destinations_per_path`` reproduces AB's "strategy of limiting
the number of destination nodes for each message path": the coverage
worm is split into several bounded-fan-out worms that serialise on the
corner's two injection ports.

The sends are emitted once, as a walk table of node indices
(:class:`~repro.core.base.WalkBroadcast`); ``schedule()`` materialises
it, the step-1 and pillar worms as waypoint sends.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.core.base import StepWalks, WalkBroadcast, coded_path_walks
from repro.network.coordinates import Coordinate, row_major_strides
from repro.network.message import ControlField
from repro.network.topology import Mesh
from repro.routing.turn_model import WestFirst, WestFirstPlanar
from repro.routing.walks import csr_gather, csr_offsets

__all__ = ["AdaptiveBroadcast"]


class AdaptiveBroadcast(WalkBroadcast):
    """AB broadcast on a 2-D or 3-D mesh (radix >= 2 in x and y).

    Parameters
    ----------
    topology:
        The mesh to broadcast on.
    max_destinations_per_path:
        Optional bound on deliveries per step-3 worm (``None`` keeps
        one long worm per corner per plane, the paper's default
        behaviour whose cost/benefit §3.2–3.3 discusses).

    Examples
    --------
    >>> from repro.network import Mesh
    >>> ab = AdaptiveBroadcast(Mesh((8, 8, 8)))
    >>> ab.step_count()
    3
    """

    name = "AB"
    ports_required = 2
    adaptive = True

    def __init__(self, topology, max_destinations_per_path: Optional[int] = None):
        super().__init__(topology)
        mesh = self._require_mesh(min_dims=2)
        if mesh.ndim not in (2, 3):
            raise ValueError(f"AB supports 2-D/3-D meshes, got {mesh.ndim}-D")
        if mesh.dims[0] < 2 or mesh.dims[1] < 2:
            raise ValueError("AB needs radix >= 2 in the x and y dimensions")
        if max_destinations_per_path is not None and max_destinations_per_path < 1:
            raise ValueError("max_destinations_per_path must be >= 1")
        self.max_destinations_per_path = max_destinations_per_path
        self._kz = mesh.dims[2] if mesh.ndim == 3 else 1
        self._routing = self.make_routing(mesh)

    @classmethod
    def make_routing(cls, topology: Mesh):
        """The runtime routing function AB's adaptive worms use."""
        if topology.ndim == 3:
            return WestFirstPlanar(topology)
        return WestFirst(topology)

    def step_count(self) -> int:
        return 2 + (1 if self._kz > 1 else 0)

    # -- helpers ----------------------------------------------------------
    def _with_z(self, x: int, y: int, z: int) -> Coordinate:
        return (x, y) if self.topology.ndim == 2 else (x, y, z)

    def _plane_corners(self, source: Coordinate) -> Tuple[Coordinate, Coordinate]:
        """(nearest corner, opposite corner) of the source's plane."""
        kx, ky = self.topology.dims[0], self.topology.dims[1]
        sz = source[2] if self.topology.ndim == 3 else 0
        cx = 0 if source[0] <= (kx - 1) / 2 else kx - 1
        cy = 0 if source[1] <= (ky - 1) / 2 else ky - 1
        near = self._with_z(cx, cy, sz)
        far = self._with_z(kx - 1 - cx, ky - 1 - cy, sz)
        return near, far

    def _waypoint_sends(
        self, waypoints: List[Tuple[Coordinate, ...]], control: ControlField
    ) -> StepWalks:
        """Waypoint sends that deliver at every waypoint after the first.

        Each walk is the send's idle-network route: the routing
        function's first candidate at every hop.
        """
        dims = self.topology.dims
        nodes, deliver, ptr, choices = [], [], [0], []
        for points in waypoints:
            route, first_choice = self._routing.idle_route(points)
            targets = set(points[1:])
            nodes += route
            deliver += [n in targets for n in route]
            ptr.append(len(nodes))
            choices.append(first_choice)
        strides = np.asarray(row_major_strides(dims), dtype=np.int64)
        return StepWalks(
            np.asarray(ptr, dtype=np.int64),
            np.asarray(nodes, dtype=np.int64).reshape(-1, len(dims)) @ strides,
            np.asarray(deliver, dtype=bool),
            control,
            np.asarray(choices, dtype=bool),
        )

    def _split(self, walks: StepWalks) -> StepWalks:
        """Bound every worm's deliveries by ``max_destinations_per_path``.

        A worm with more deliveries is cut into consecutive pieces of at
        most that many, each launched from the same corner along the
        prefix of the walk that ends at its last delivery.
        """
        limit = self.max_destinations_per_path
        ptr, node, deliver = walks.ptr, walks.node, walks.deliver
        count = np.add.reduceat(deliver, ptr[:-1], dtype=np.int64)
        if limit is None or (count <= limit).all():
            return walks
        pieces = np.where(count > limit, -(-count // limit), 1)
        worm = np.repeat(np.arange(count.size), pieces)
        lo_rank = csr_offsets(pieces) * limit
        # Flat position of each worm's deliveries, and of each piece's
        # last one; a worm that is not cut keeps its whole walk.
        first_target = np.cumsum(count) - count
        at = np.flatnonzero(deliver)
        last = at[
            first_target[worm] + np.minimum(lo_rank + limit, count[worm]) - 1
        ]
        length = np.where(
            count[worm] > limit, last - ptr[worm] + 1, np.diff(ptr)[worm]
        )
        flat = csr_gather(ptr[worm], length)
        rank = np.cumsum(deliver) - 1 - np.repeat(first_target, np.diff(ptr))
        piece_ptr = np.zeros(length.size + 1, dtype=np.int64)
        np.cumsum(length, out=piece_ptr[1:])
        return StepWalks(
            piece_ptr,
            node[flat],
            deliver[flat] & (rank[flat] >= np.repeat(lo_rank, length)),
            walks.control,
        )

    # -- schedule -----------------------------------------------------------
    def _walk_steps(self, source: Coordinate) -> List[StepWalks]:
        """The three steps; one with nothing to send is dropped.

        Step-1 and pillar worms are waypoint sends, their walks the
        idle-network routes; every coverage walk is its corner's cached
        plane-0 walk shifted to its plane.
        """
        mesh: Mesh = self.topology
        kz = self._kz
        sz = source[2] if mesh.ndim == 3 else 0
        strides = row_major_strides(mesh.dims)
        source_idx = sum(c * s for c, s in zip(source, strides))
        near, far = self._plane_corners(source)

        steps: List[StepWalks] = []

        # Step 1: source -> nearest and opposite plane corners (adaptive).
        steps.append(self._waypoint_sends(
            [(source, corner) for corner in (near, far) if corner != source],
            ControlField.PASS_AND_RECEIVE,
        ))

        # Step 2: corner pillars to the corresponding corners of all
        # planes, downward then upward from the source plane.
        if kz > 1:
            pillars = [
                tuple(
                    (corner[0], corner[1], z)
                    for z in range(sz, z_end + step, step)
                )
                for corner in (near, far)
                for z_end, step in ((0, -1), (kz - 1, 1))
                if z_end != sz
            ]
            steps.append(self._waypoint_sends(
                pillars, ControlField.RECEIVE_AND_REPLICATE
            ))

        # Step 3: per plane, each corner covers its half of the rows.
        ptr, node = _coverage_walks(mesh.dims, near[0], near[1])
        steps.append(self._split(coded_path_walks(
            ptr, node, source_idx, ControlField.PASS_AND_RECEIVE
        )))
        return [step for step in steps if step.ptr.size > 1]


@lru_cache(maxsize=None)
def _coverage_walks(
    dims: Tuple[int, ...], cx: int, cy: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Step-3 walks ``(ptr, node)`` when the near corner is ``(cx, cy)``.

    Plane by plane, the near corner's walk and then the opposite
    corner's.  Cached per near corner (four per mesh), read-only.
    """
    kx, ky = dims[0], dims[1]
    kz = dims[2] if len(dims) == 3 else 1
    walks = [
        _half_cover_walk(dims, x0, y0)
        for x0, y0 in ((cx, cy), (kx - 1 - cx, ky - 1 - cy))
    ]
    planes = np.arange(kz, dtype=np.int64) * row_major_strides(dims)[-1]
    ptr = np.zeros(2 * kz + 1, dtype=np.int64)
    np.cumsum(np.tile([walk.size for walk in walks], kz), out=ptr[1:])
    node = np.concatenate(
        [walk + planes[:, None] for walk in walks], axis=1
    ).ravel()
    ptr.setflags(write=False)
    node.setflags(write=False)
    return ptr, node


def _half_cover_walk(dims: Tuple[int, ...], x0: int, y0: int) -> np.ndarray:
    """One west-first-legal walk from corner ``(x0, y0)`` over its half.

    A south corner (``y0 = 0``) covers rows ``0 .. ky//2 - 1``, a north
    one the rows above; the walk starts along the corner's own row.
    Node indices are those of plane 0; adding a plane's z stride moves
    the walk there.
    """
    kx, ky = dims[0], dims[1]
    sx, sy = row_major_strides(dims)[:2]
    half = ky // 2
    rows = range(0, half) if y0 == 0 else range(half, ky)
    ordered = rows if y0 == 0 else rows[::-1]
    nodes: List[int] = []
    if x0 == 0:
        # West-edge corner: pure column sweep moving east.
        sweep = ordered
    else:
        # East-edge corner: one west phase along the corner's own row,
        # then an eastward column sweep over the other rows.
        nodes.extend(x * sx + y0 * sy for x in range(kx - 1, -1, -1))
        sweep = ordered[1:]
    for x in range(kx):
        run = sweep if x % 2 == 0 else sweep[::-1]
        nodes.extend(x * sx + y * sy for y in run)
    return np.asarray(nodes, dtype=np.int64)
