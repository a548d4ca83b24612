"""Algorithm registry.

Maps the paper's algorithm names ("RD", "EDN", "DB", "AB") to their
classes so experiments and the CLI can be parameterised by name.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.core.adaptive_broadcast import AdaptiveBroadcast
from repro.core.base import BroadcastAlgorithm
from repro.core.deterministic_broadcast import DeterministicBroadcast
from repro.core.edn import ExtendedDominatingNodes
from repro.core.recursive_doubling import RecursiveDoubling
from repro.network.topology import Mesh

__all__ = ["ALGORITHMS", "get_algorithm", "make_algorithm", "algorithm_names"]

#: The paper's four algorithms, in the order its figures list them.
ALGORITHMS: Dict[str, Type[BroadcastAlgorithm]] = {
    "RD": RecursiveDoubling,
    "EDN": ExtendedDominatingNodes,
    "DB": DeterministicBroadcast,
    "AB": AdaptiveBroadcast,
}


def get_algorithm(name: str) -> Type[BroadcastAlgorithm]:
    """Look up an algorithm class by (case-insensitive) name."""
    key = name.upper()
    try:
        return ALGORITHMS[key]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None


def make_algorithm(
    name: str, mesh: Mesh, max_destinations_per_path: Optional[int] = None
) -> BroadcastAlgorithm:
    """Build algorithm ``name`` on ``mesh``.

    ``max_destinations_per_path`` bounds AB's per-path destinations;
    the other algorithms have no such bound and ignore it.
    """
    cls = get_algorithm(name)
    if cls is AdaptiveBroadcast and max_destinations_per_path is not None:
        return cls(mesh, max_destinations_per_path=max_destinations_per_path)
    return cls(mesh)


def algorithm_names() -> List[str]:
    """The registered algorithm names, figure order."""
    return list(ALGORITHMS)
