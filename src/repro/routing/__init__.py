"""Routing algorithms.

Deterministic dimension-ordered routing (the baseline the paper's RD,
EDN and DB run on), the west-first turn model (the adaptive scheme AB
runs on), path objects, and channel-dependence-graph deadlock
analysis.  Coded-path (multidestination) walks are drawn as index
arrays in :mod:`repro.routing.walks`.
"""

from repro.routing.base import RoutingFunction, RoutingError
from repro.routing.dimension_ordered import DimensionOrdered
from repro.routing.turn_model import (
    NegativeFirst,
    NorthLast,
    WestFirst,
    WestFirstPlanar,
)
from repro.routing.paths import Path
from repro.routing.deadlock import (
    build_channel_dependence_graph,
    find_dependence_cycle,
    is_deadlock_free,
)

__all__ = [
    "DimensionOrdered",
    "NegativeFirst",
    "NorthLast",
    "Path",
    "RoutingError",
    "RoutingFunction",
    "WestFirst",
    "WestFirstPlanar",
    "build_channel_dependence_graph",
    "find_dependence_cycle",
    "is_deadlock_free",
]
