"""Fig. 2 — coefficient of variation of arrival times vs network size.

The paper's node-level parallelism metric: ``CV = SD / Mnl`` of the
per-destination arrival latencies of a single-source broadcast,
averaged over random sources, on meshes of 64–1024 nodes
(4×4×4, 4×4×16, 8×8×8, 8×8×16), L=100 flits, Ts=1.5 µs.

Shape targets: AB's CV is the lowest and DB's beats EDN's; the
proposed coded-path algorithms keep arrival times far tighter than
the step-heavy RD/EDN (the paper's Tables quantify this as 34–117 %
improvements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.campaigns.aggregate import cells, series
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import UnitRecord
from repro.core.registry import algorithm_names
from repro.experiments.common import broadcast_units, campaign
from repro.experiments.config import FIG2_SIZES, ExperimentScale

__all__ = ["Fig2Row", "aggregate_fig2", "fig2_campaign", "format_fig2"]

MESSAGE_LENGTH = 100  # flits, per the figure caption
STARTUP_LATENCY = 1.5  # µs


@dataclass(frozen=True)
class Fig2Row:
    """(algorithm, size) → mean coefficient of variation."""

    algorithm: str
    dims: Tuple[int, int, int]
    num_nodes: int
    mean_cv: float
    std_cv: float
    mean_cv_barrier: float
    samples: int


def fig2_campaign(
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    shards: int | str = 1,
) -> CampaignSpec:
    """Declare the Fig. 2 unit grid (each unit measures both the
    event-driven and the barrier CV of one broadcast; sharded cells
    keep each source's event-driven/barrier pair in one slice)."""
    units = broadcast_units(
        "fig2",
        FIG2_SIZES,
        algorithm_names(),
        MESSAGE_LENGTH,
        scale,
        seed,
        barrier=True,
        startup_latency=STARTUP_LATENCY,
        shards=shards,
    )
    return campaign("fig2", units, scale, seed)


def aggregate_fig2(records: Sequence[UnitRecord]) -> List[Fig2Row]:
    """One row per (size, algorithm) cell: its event-driven and barrier CVs."""
    rows = []
    for spec, members in cells(records):
        cvs = series(members, "cv")
        rows.append(
            Fig2Row(
                algorithm=spec.algorithm,
                dims=spec.dims,
                num_nodes=int(np.prod(spec.dims)),
                mean_cv=float(np.mean(cvs)),
                std_cv=float(np.std(cvs)),
                mean_cv_barrier=float(np.mean(series(members, "barrier_cv"))),
                samples=len(cvs),
            )
        )
    return rows


def format_fig2(rows: List[Fig2Row]) -> str:
    """Print the figure as series over network size."""
    sizes = sorted({r.num_nodes for r in rows})
    by_algo: Dict[str, Dict[int, float]] = {}
    for row in rows:
        by_algo.setdefault(row.algorithm, {})[row.num_nodes] = row.mean_cv
    lines = [
        "Fig. 2 — coefficient of variation of arrival times vs network size",
        "algo   " + "".join(f"{s:>10d}" for s in sizes),
    ]
    for name in ("RD", "EDN", "AB", "DB"):  # the paper's legend order
        series = by_algo.get(name, {})
        lines.append(
            f"{name:<6s} "
            + "".join(f"{series.get(s, float('nan')):>10.4f}" for s in sizes)
        )
    return "\n".join(lines)
