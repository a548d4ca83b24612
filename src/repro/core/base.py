"""The broadcast-algorithm interface.

Every algorithm is a factory of :class:`~repro.core.schedule.BroadcastSchedule`
objects plus a little static metadata (port budget, routing style,
closed-form step count where one exists).  Algorithms made only of
dimension-ordered unicasts (RD, EDN) derive from
:class:`UnicastBroadcast` instead: they emit each step's sends once, as
a table of integer node pairs, and the schedule is materialised from it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.schedule import BroadcastSchedule, BroadcastStep, PathSend
from repro.network.coordinates import Coordinate
from repro.network.message import ControlField
from repro.network.topology import Mesh, Topology
from repro.routing.dimension_ordered import unicast_walks
from repro.routing.paths import Path

__all__ = ["BroadcastAlgorithm", "UnicastBroadcast", "UnicastTable"]

#: Per message-passing step, ``(senders, receivers)``: equal-length int64
#: arrays of row-major node indices, one unicast per position, in
#: schedule order.
UnicastTable = List[Tuple[np.ndarray, np.ndarray]]


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


class UnicastBroadcast(BroadcastAlgorithm):
    """A broadcast made only of unicasts on dimension-ordered routes.

    Subclasses implement :meth:`_unicast_steps`, which runs the
    algorithm's recursion once and returns its :data:`UnicastTable`.
    The batch engine plans straight from that table
    (:func:`repro.sim.batch.plan_unicasts`); :meth:`build_schedule`
    materialises the same table into single-delivery
    :class:`~repro.core.schedule.PathSend`\\ s for every other consumer.
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

    def build_schedule(self, source: Coordinate) -> BroadcastSchedule:
        table = self.unicast_table(source)
        coords = getattr(self, "_coords", None)
        if coords is None:
            coords = self._coords = list(self.topology.nodes())
        src, dst = (np.concatenate(column) for column in zip(*table))
        walk_ptr, walk_node = unicast_walks(self.topology.dims, src, dst)
        nodes = list(map(coords.__getitem__, walk_node.tolist()))
        bounds = walk_ptr.tolist()
        steps: List[BroadcastStep] = []
        worm = 0
        for index, (senders, _) in enumerate(table, start=1):
            sends = [
                _unicast(nodes[bounds[k] : bounds[k + 1]])
                for k in range(worm, worm + len(senders))
            ]
            worm += len(senders)
            steps.append(BroadcastStep(index=index, sends=sends))
        return BroadcastSchedule(algorithm=self.name, source=source, steps=steps)


def _unicast(path: List[Coordinate]) -> PathSend:
    """The single-delivery send along ``path`` (source first)."""
    target = path[-1]
    return PathSend(
        source=path[0],
        deliveries=frozenset((target,)),
        path=Path(path, deliveries=(target,)),
        control=ControlField.RECEIVE,
    )
