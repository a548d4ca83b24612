"""Ablation studies.

The design choices the paper mentions but does not isolate:

* **start-up latency** — §3 examines Ts = 0.15 and 1.5 µs; this
  ablation quantifies how the algorithm ranking depends on the
  Ts/β ratio (the step-count argument weakens as Ts → 0);
* **message length** — the paper's stated range is 32–2048 flits;
* **AB's destination limit** — AB "limits the number of destination
  nodes for each message path"; sweeping the limit trades step-3
  parallelism against path length;
* **port count** — EDN is designed for multiport routers; giving every
  algorithm the same port budget isolates the benefit.

Each ablation is one row of :data:`ABLATIONS`: the broadcast-unit field
it sweeps, the values, and the algorithms.  :func:`ablation_campaign`
declares any of them as a value × algorithm × source unit grid on
8×8×8 and :func:`aggregate_ablation` folds the records back into
:class:`AblationRow`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.campaigns.aggregate import cells, series
from repro.campaigns.spec import CampaignSpec, UnitSpec
from repro.campaigns.store import UnitRecord
from repro.core.registry import algorithm_names
from repro.experiments.common import broadcast_units, campaign
from repro.experiments.config import ExperimentScale

__all__ = [
    "ABLATIONS",
    "Ablation",
    "AblationRow",
    "ablation_campaign",
    "aggregate_ablation",
]

DIMS = (8, 8, 8)
LENGTH_FLITS = 100  # the Fig. 1 message, where an ablation does not vary it
ALL = tuple(algorithm_names())


@dataclass(frozen=True)
class Ablation:
    """One ablation: a sweep of one broadcast-unit field on 8×8×8.

    ``field`` is the :func:`~repro.experiments.common.broadcast_units`
    argument the sweep sets (``length_flits`` or one of its keyword
    parameters); ``parameter`` labels the value in the rows.  A
    ``None`` value (no limit) reads as ``inf`` in the rows.
    """

    id: str
    title: str
    parameter: str
    values: Tuple[Optional[float], ...]
    algorithms: Tuple[str, ...]
    field: str


#: The four ablations, in ``repro --help`` order.
ABLATIONS: Tuple[Ablation, ...] = (
    Ablation(
        "ablation-startup", "start-up latency ablation (Ts = 0.15 vs 1.5 us)",
        "startup_latency_us", (0.15, 1.5), ALL, "startup_latency",
    ),
    Ablation(
        "ablation-length", "message-length ablation (32-2048 flits)",
        "message_length_flits", (32, 128, 512, 2048), ALL, "length_flits",
    ),
    Ablation(
        "ablation-maxdest", "AB per-path destination-limit ablation",
        "max_destinations_per_path", (None, 32, 16, 8), ("AB",),
        "max_destinations_per_path",
    ),
    Ablation(
        "ablation-ports", "port-count ablation (1-3 ports per node)",
        "ports_per_node", (1, 2, 3), ALL, "ports_override",
    ),
)


@dataclass(frozen=True)
class AblationRow:
    """One ablation point."""

    algorithm: str
    parameter: str
    value: float
    mean_latency_us: float
    mean_cv: float
    samples: int


def ablation_campaign(
    ablation: Ablation,
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    shards: int | str = 1,
) -> CampaignSpec:
    """Declare ``ablation``'s grid: every value × algorithm × source."""
    units: List[UnitSpec] = []
    for value in ablation.values:
        grid = {"length_flits": LENGTH_FLITS, ablation.field: value}
        units += broadcast_units(
            ablation.id,
            [DIMS],
            ablation.algorithms,
            scale=scale,
            seed=seed,
            shards=shards,
            **grid,
        )
    return campaign(ablation.id, units, scale, seed)


def aggregate_ablation(
    ablation: Ablation, records: Sequence[UnitRecord]
) -> List[AblationRow]:
    """One row per (value, algorithm) cell: mean latency and CV."""
    rows = []
    for spec, members in cells(records):
        if ablation.field == "length_flits":
            value = spec.length_flits
        else:
            value = spec.param(ablation.field)
        rows.append(
            AblationRow(
                algorithm=spec.algorithm,
                parameter=ablation.parameter,
                value=float("inf") if value is None else float(value),
                mean_latency_us=float(
                    np.mean(series(members, "network_latency"))
                ),
                mean_cv=float(np.mean(series(members, "cv"))),
                samples=len(members),
            )
        )
    return rows
