"""The broadcast-algorithm interface.

Every algorithm is a factory of :class:`~repro.core.schedule.BroadcastSchedule`
objects plus a little static metadata (port budget, routing style,
closed-form step count where one exists).  The four paper algorithms
derive from :class:`WalkBroadcast`: they emit each step's sends once,
as a :class:`WalkTable` of integer node walks, and the schedule is
materialised from it.  RD and EDN, made only of dimension-ordered
unicasts, derive from :class:`UnicastBroadcast` and emit a plainer
table of ``(sender, receiver)`` pairs that their walks are routed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import BroadcastSchedule, BroadcastStep, PathSend
from repro.network.coordinates import Coordinate
from repro.network.message import ControlField
from repro.network.topology import Mesh, Topology
from repro.routing.dimension_ordered import unicast_walks
from repro.routing.paths import Path
from repro.routing.walks import csr_gather

__all__ = [
    "BroadcastAlgorithm",
    "StepWalks",
    "UnicastBroadcast",
    "UnicastTable",
    "WalkBroadcast",
    "WalkTable",
    "coded_path_walks",
    "unicast_walk_table",
]

#: Per message-passing step, ``(senders, receivers)``: equal-length int64
#: arrays of row-major node indices, one unicast per position, in
#: schedule order.
UnicastTable = List[Tuple[np.ndarray, np.ndarray]]


class StepWalks(NamedTuple):
    """One step's worms, in schedule order, as CSR walks.

    Worm ``k`` visits ``node[ptr[k] : ptr[k + 1]]`` (row-major node
    indices, launcher first) and delivers where ``deliver`` is set.
    ``first_choice`` is ``None`` for pre-routed paths.  A step of
    waypoint sends, which adaptive routing resolves at run time, walks
    their idle-network routes instead and sets ``first_choice`` to
    whether each one's first hop is a choice among several channels.
    """

    ptr: np.ndarray
    node: np.ndarray
    deliver: np.ndarray
    control: ControlField
    first_choice: Optional[np.ndarray] = None


@dataclass(frozen=True)
class WalkTable:
    """One broadcast's sends as integer walks, every step joined.

    Worm ``k`` visits ``walk_node[walk_ptr[k] : walk_ptr[k + 1]]`` and
    delivers where ``deliver`` is set; the worms of step ``s`` (0-based)
    are ``step_ptr[s]`` to ``step_ptr[s + 1]``.  ``first_choice`` holds,
    per worm, whether its first hop is an adaptive choice among several
    channels (see :mod:`repro.sim.batch`).  ``controls`` and ``routed``
    hold, per step, its worms' CPR control field and whether they are
    waypoint sends; :func:`repro.sim.batch.plan_walks` plans from the
    arrays, :meth:`WalkBroadcast.build_schedule` materialises them all.
    """

    step_ptr: np.ndarray
    walk_ptr: np.ndarray
    walk_node: np.ndarray
    deliver: np.ndarray
    first_choice: np.ndarray
    controls: Tuple[ControlField, ...]
    routed: Tuple[bool, ...]

    @classmethod
    def join(cls, steps: Sequence[StepWalks]) -> "WalkTable":
        """The table of ``steps`` in order."""
        counts = [step.ptr.size - 1 for step in steps]
        node_off = accumulate((step.node.size for step in steps), initial=0)
        return cls(
            step_ptr=np.asarray(
                list(accumulate(counts, initial=0)), dtype=np.int64
            ),
            walk_ptr=np.concatenate(
                [np.zeros(1, dtype=np.int64)]
                + [step.ptr[1:] + off for step, off in zip(steps, node_off)]
            ),
            walk_node=np.concatenate(
                [np.zeros(0, dtype=np.int64)] + [step.node for step in steps]
            ),
            deliver=np.concatenate(
                [np.zeros(0, dtype=bool)] + [step.deliver for step in steps]
            ),
            first_choice=np.concatenate(
                [np.zeros(0, dtype=bool)]
                + [
                    np.zeros(n, dtype=bool)
                    if step.first_choice is None
                    else step.first_choice
                    for step, n in zip(steps, counts)
                ]
            ),
            controls=tuple(step.control for step in steps),
            routed=tuple(step.first_choice is not None for step in steps),
        )


def unicast_walk_table(dims: Sequence[int], table: UnicastTable) -> WalkTable:
    """The walk table of a unicast table: dimension-ordered routes.

    Each ``(sender, receiver)`` pair becomes one worm on its
    :func:`~repro.routing.dimension_ordered.unicast_walks` route that
    delivers at its end, control field ``RECEIVE``.  A pair that leaves
    the mesh raises ``ValueError``.
    """
    n_nodes = int(np.prod(dims))
    src, dst = (
        np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [np.asarray(pair[side], dtype=np.int64) for pair in table]
        )
        for side in (0, 1)
    )
    if src.size and (
        min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n_nodes
    ):
        raise ValueError(f"a send leaves the {tuple(dims)} mesh")
    walk_ptr, walk_node = unicast_walks(dims, src, dst)
    deliver = np.zeros(walk_node.size, dtype=bool)
    deliver[walk_ptr[1:] - 1] = True
    step_ptr = np.zeros(len(table) + 1, dtype=np.int64)
    np.cumsum([len(senders) for senders, _ in table], out=step_ptr[1:])
    return WalkTable(
        step_ptr=step_ptr,
        walk_ptr=walk_ptr,
        walk_node=walk_node,
        deliver=deliver,
        first_choice=np.zeros(src.size, dtype=bool),
        controls=(ControlField.RECEIVE,) * len(table),
        routed=(False,) * len(table),
    )


def coded_path_walks(
    ptr: np.ndarray, node: np.ndarray, exclude: int, control: ControlField
) -> StepWalks:
    """Coded-path worms that deliver to every node after their launcher.

    Every walk delivers along its whole length but at ``exclude`` (the
    broadcast's source, which already holds the message); a worm left
    with nothing to deliver is dropped, since a send needs a delivery.
    """
    deliver = node != exclude
    deliver[ptr[:-1]] = False
    keep = np.logical_or.reduceat(deliver, ptr[:-1])
    if not keep.all():
        length = np.diff(ptr)[keep]
        flat = csr_gather(ptr[:-1][keep], length)
        ptr = np.zeros(length.size + 1, dtype=np.int64)
        np.cumsum(length, out=ptr[1:])
        node, deliver = node[flat], deliver[flat]
    return StepWalks(ptr, node, deliver, control)


class BroadcastAlgorithm:
    """Abstract broadcast algorithm.

    Subclasses set the class attributes and implement
    :meth:`build_schedule`; :meth:`schedule` adds shared validation.
    """

    #: Short name used by the registry and reports ("RD", "EDN", ...).
    name: str = "abstract"
    #: Injection ports the algorithm's router model assumes.
    ports_required: int = 1
    #: True when sends are resolved by adaptive routing at run time.
    adaptive: bool = False

    def __init__(self, topology: Topology):
        if topology.num_nodes < 2:
            raise ValueError("broadcast needs at least two nodes")
        self.topology = topology

    # -- hooks ------------------------------------------------------------
    def build_schedule(self, source: Coordinate) -> BroadcastSchedule:
        """Construct the schedule (subclass responsibility)."""
        raise NotImplementedError

    def step_count(self) -> Optional[int]:
        """Closed-form number of message-passing steps, if known."""
        return None

    # -- public entry -------------------------------------------------------
    def schedule(self, source: Coordinate) -> BroadcastSchedule:
        """Build and sanity-check the schedule for ``source``."""
        source = tuple(source)
        if not self.topology.contains(source):
            raise ValueError(f"source {source} is outside {self.topology!r}")
        built = self.build_schedule(source)
        expected = self.step_count()
        if expected is not None and built.num_steps != expected:
            raise AssertionError(
                f"{self.name}: built {built.num_steps} steps, closed form"
                f" says {expected} — constructor bug"
            )
        return built

    # -- shared helpers -------------------------------------------------------
    def _require_mesh(self, min_dims: int = 2) -> Mesh:
        if not isinstance(self.topology, Mesh):
            raise TypeError(f"{self.name} requires a Mesh topology")
        if self.topology.ndim < min_dims:
            raise ValueError(
                f"{self.name} requires a mesh of >= {min_dims} dimensions"
            )
        return self.topology

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} on {self.topology!r}>"


class WalkBroadcast(BroadcastAlgorithm):
    """A broadcast whose sends are emitted once, as a :class:`WalkTable`.

    Subclasses implement :meth:`_walk_steps`.  The batch engine plans
    straight from the table (:func:`repro.sim.batch.plan_walks`);
    :meth:`build_schedule` materialises the same table into
    :class:`~repro.core.schedule.PathSend`\\ s for every other consumer:
    a pre-routed worm becomes a send along its walk, a waypoint send's
    waypoints are its launcher and then its deliveries in walk order.
    """

    def _walk_steps(self, source: Coordinate) -> List[StepWalks]:
        """The steps for an in-mesh ``source`` (subclass responsibility)."""
        raise NotImplementedError

    def walk_table(self, source: Coordinate) -> WalkTable:
        """The joined walk table for ``source``."""
        source = tuple(source)
        if not self.topology.contains(source):
            raise ValueError(f"source {source} is outside {self.topology!r}")
        return WalkTable.join(self._walk_steps(source))

    def build_schedule(self, source: Coordinate) -> BroadcastSchedule:
        table = self.walk_table(source)
        coords = getattr(self, "_coords", None)
        if coords is None:
            coords = self._coords = list(self.topology.nodes())
        nodes = list(map(coords.__getitem__, table.walk_node.tolist()))
        deliver = table.deliver.tolist()
        bounds = table.walk_ptr.tolist()
        first = table.step_ptr.tolist()
        steps: List[BroadcastStep] = []
        for index, (control, routed) in enumerate(
            zip(table.controls, table.routed), start=1
        ):
            sends = []
            for k in range(first[index - 1], first[index]):
                walk = nodes[bounds[k] : bounds[k + 1]]
                targets = list(compress(walk, deliver[bounds[k] : bounds[k + 1]]))
                if routed:
                    send = PathSend(
                        source=walk[0],
                        deliveries=frozenset(targets),
                        waypoints=(walk[0], *targets),
                        control=control,
                    )
                else:
                    path = Path(walk, deliveries=targets)
                    send = PathSend(
                        source=walk[0],
                        deliveries=path.deliveries,
                        path=path,
                        control=control,
                    )
                sends.append(send)
            steps.append(BroadcastStep(index=index, sends=sends))
        return BroadcastSchedule(algorithm=self.name, source=source, steps=steps)


class UnicastBroadcast(WalkBroadcast):
    """A broadcast made only of unicasts on dimension-ordered routes.

    Subclasses implement :meth:`_unicast_steps`, which runs the
    algorithm's recursion once and returns its :data:`UnicastTable`;
    its walk table routes every pair (:func:`unicast_walk_table`).
    """

    def _unicast_steps(self, source: Coordinate) -> UnicastTable:
        """The table for an in-mesh ``source`` (subclass responsibility)."""
        raise NotImplementedError

    def unicast_table(self, source: Coordinate) -> UnicastTable:
        """The per-step ``(senders, receivers)`` table for ``source``."""
        source = tuple(source)
        if not self.topology.contains(source):
            raise ValueError(f"source {source} is outside {self.topology!r}")
        return self._unicast_steps(source)

    def walk_table(self, source: Coordinate) -> WalkTable:
        return unicast_walk_table(self.topology.dims, self.unicast_table(source))
