"""repro — reproduction of Al-Dubai & Ould-Khaoua, ICPP 2005.

A wormhole-switched interconnection-network simulator and the four
broadcast algorithms the paper compares:

* **RD** — Recursive Doubling (Barnett et al.)
* **EDN** — Extended Dominating Nodes (Tsai & McKinley)
* **DB** — Deterministic Broadcast (coded-path routing)
* **AB** — Adaptive Broadcast (coded-path + west-first turn model)

Quickstart
----------
>>> from repro import Mesh, broadcast
>>> outcome = broadcast("AB", Mesh((8, 8, 8)), source=(3, 4, 5))
>>> outcome.delivered_count
511

Subpackages
-----------
``repro.sim``
    process-oriented discrete-event kernel (the CSIM substitute);
``repro.network``
    the mesh topology, channels, wormhole path transmission;
``repro.routing``
    dimension-ordered and turn-model routing, CPR paths, deadlock
    analysis;
``repro.core``
    the four broadcast algorithms, schedules, executors;
``repro.traffic``
    Poisson mixed unicast/broadcast workloads;
``repro.metrics``
    CV, confidence intervals, batch means;
``repro.analysis``
    closed-form step counts and latency models;
``repro.experiments``
    regenerates every table and figure of the paper.
"""

from typing import Optional, Sequence

from repro.core.adaptive_broadcast import AdaptiveBroadcast
from repro.core.base import BroadcastAlgorithm
from repro.core.deterministic_broadcast import DeterministicBroadcast
from repro.core.edn import ExtendedDominatingNodes
from repro.core.executors import (
    BroadcastOutcome,
    EventDrivenExecutor,
    UnitStepExecutor,
)
from repro.core.recursive_doubling import RecursiveDoubling
from repro.core.registry import ALGORITHMS, algorithm_names, get_algorithm
from repro.network.network import NetworkConfig, NetworkSimulator
from repro.network.topology import Mesh, Topology

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AdaptiveBroadcast",
    "BroadcastAlgorithm",
    "BroadcastOutcome",
    "DeterministicBroadcast",
    "EventDrivenExecutor",
    "ExtendedDominatingNodes",
    "Mesh",
    "NetworkConfig",
    "NetworkSimulator",
    "RecursiveDoubling",
    "Topology",
    "UnitStepExecutor",
    "algorithm_names",
    "broadcast",
    "get_algorithm",
]


def broadcast(
    algorithm: str,
    mesh: Mesh,
    source: Sequence[int],
    length_flits: int = 100,
    config: Optional[NetworkConfig] = None,
    seed: Optional[int] = 0,
) -> BroadcastOutcome:
    """One-call convenience API: simulate a single broadcast.

    Builds the algorithm's schedule from ``source``, runs it on a fresh
    event-driven network with the paper's timing constants, and returns
    the :class:`BroadcastOutcome` (arrival times, latency, CV).

    Parameters
    ----------
    algorithm:
        "RD", "EDN", "DB" or "AB".
    mesh:
        The target mesh.
    source:
        Broadcasting node.
    length_flits:
        Worm length ``L``.
    config:
        Optional timing/port overrides (defaults to the paper's
        constants with the algorithm's own port budget).
    seed:
        Master seed for the simulation's RNG streams.
    """
    cls = get_algorithm(algorithm)
    algo = cls(mesh)
    cfg = config or NetworkConfig(ports_per_node=algo.ports_required)
    network = NetworkSimulator(mesh, cfg, seed=seed)
    routing = AdaptiveBroadcast.make_routing(mesh) if algo.adaptive else None
    executor = EventDrivenExecutor(network, adaptive_routing=routing)
    return executor.execute(algo.schedule(tuple(source)), length_flits)
