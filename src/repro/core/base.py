"""The broadcast-algorithm interface.

Every algorithm is a factory of :class:`~repro.core.schedule.BroadcastSchedule`
objects plus a little static metadata (port budget, routing style,
closed-form step count where one exists).
"""

from __future__ import annotations

from typing import Optional

from repro.core.schedule import BroadcastSchedule
from repro.network.coordinates import Coordinate
from repro.network.topology import Mesh, Topology

__all__ = ["BroadcastAlgorithm"]


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
