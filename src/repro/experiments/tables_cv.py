"""Tables 1 & 2 — CV of the baselines and DB/AB improvement percentages.

The paper's table protocol: L = 64 flits, sizes 64–1024 nodes, values
averaged over at least 40 experiments; the improvement column is
``IMR% = (CV_baseline − CV_proposed) / CV_proposed · 100``.

Table 1 compares DB against RD and EDN; Table 2 compares AB.  The
measured tables are printed side by side with the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.campaigns.aggregate import cells, series
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import UnitRecord
from repro.experiments.common import broadcast_units, campaign
from repro.experiments.config import (
    FIG2_SIZES,
    PAPER_TABLE1,
    PAPER_TABLE2,
    ExperimentScale,
)
from repro.metrics.stats import improvement_percent

__all__ = [
    "CVTableRow",
    "aggregate_cv_table",
    "cv_table_campaign",
    "format_cv_table",
]

MESSAGE_LENGTH = 64  # flits, per §3.2
STARTUP_LATENCY = 1.5  # µs


@dataclass(frozen=True)
class CVTableRow:
    """One cell group of a table: baseline × size."""

    baseline: str
    proposed: str
    dims: Tuple[int, int, int]
    num_nodes: int
    baseline_cv: float
    proposed_cv: float
    improvement_percent: float
    barrier_baseline_cv: float
    barrier_proposed_cv: float
    barrier_improvement_percent: float
    paper_baseline_cv: Optional[float]
    paper_improvement_percent: Optional[float]


def cv_table_campaign(
    proposed: str,
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    shards: int | str = 1,
) -> CampaignSpec:
    """Declare the unit grid of Table 1 (``"DB"``) or Table 2 (``"AB"``).

    One cell per (algorithm, size) with barrier twins; the aggregator
    pairs the proposed algorithm against both baselines.  ``shards``
    other than 1 declares the cells as sliceable cell units.
    """
    proposed = proposed.upper()
    if proposed not in ("DB", "AB"):
        raise ValueError(
            f"the paper's tables propose DB or AB, not {proposed!r}"
        )
    experiment = "table1" if proposed == "DB" else "table2"
    units = broadcast_units(
        experiment,
        FIG2_SIZES,
        ("RD", "EDN", proposed),
        MESSAGE_LENGTH,
        scale,
        seed,
        barrier=True,
        startup_latency=STARTUP_LATENCY,
        shards=shards,
    )
    return campaign(experiment, units, scale, seed)


def aggregate_cv_table(
    proposed: str, records: Sequence[UnitRecord]
) -> List[CVTableRow]:
    """Pair ``proposed`` against RD and EDN at every size, beside the
    paper's values."""
    paper = PAPER_TABLE1 if proposed == "DB" else PAPER_TABLE2
    mean_cv: Dict[Tuple[Tuple[int, ...], str], float] = {}
    mean_barrier_cv: Dict[Tuple[Tuple[int, ...], str], float] = {}
    dims_order: List[Tuple[int, ...]] = []
    for spec, members in cells(records):
        if spec.dims not in dims_order:
            dims_order.append(spec.dims)
        key = (spec.dims, spec.algorithm)
        mean_cv[key] = float(np.mean(series(members, "cv")))
        mean_barrier_cv[key] = float(np.mean(series(members, "barrier_cv")))

    rows = []
    for dims in dims_order:
        nodes = int(np.prod(dims))
        for baseline in ("RD", "EDN"):
            paper_cv, paper_imr = paper.get(baseline, {}).get(
                nodes, (None, None)
            )
            rows.append(
                CVTableRow(
                    baseline=baseline,
                    proposed=proposed,
                    dims=dims,
                    num_nodes=nodes,
                    baseline_cv=mean_cv[(dims, baseline)],
                    proposed_cv=mean_cv[(dims, proposed)],
                    improvement_percent=improvement_percent(
                        mean_cv[(dims, baseline)], mean_cv[(dims, proposed)]
                    ),
                    barrier_baseline_cv=mean_barrier_cv[(dims, baseline)],
                    barrier_proposed_cv=mean_barrier_cv[(dims, proposed)],
                    barrier_improvement_percent=improvement_percent(
                        mean_barrier_cv[(dims, baseline)],
                        mean_barrier_cv[(dims, proposed)],
                    ),
                    paper_baseline_cv=paper_cv,
                    paper_improvement_percent=paper_imr,
                )
            )
    return rows


def format_cv_table(rows: List[CVTableRow]) -> str:
    """Side-by-side measured vs paper table."""
    if not rows:
        return "(empty table)"
    proposed = rows[0].proposed
    label = "DBIMR%" if proposed == "DB" else "ABIMR%"
    lines = [
        f"Table ({proposed}) — CV and improvement over RD/EDN, L={MESSAGE_LENGTH}"
        " flits",
        f"{'base':<5s}{'nodes':>7s}{'CV':>9s}{label:>9s}{'bCV':>9s}"
        f"{'b' + label:>9s}{'paper CV':>10s}{'paper ' + label:>13s}",
        "(CV: locally-causal event-driven; bCV: step-barrier semantics)",
    ]
    for row in sorted(rows, key=lambda r: (r.baseline, r.num_nodes)):
        paper_cv = (
            f"{row.paper_baseline_cv:.4f}" if row.paper_baseline_cv else "-"
        )
        paper_imr = (
            f"{row.paper_improvement_percent:.2f}"
            if row.paper_improvement_percent
            else "-"
        )
        lines.append(
            f"{row.baseline:<5s}{row.num_nodes:>7d}{row.baseline_cv:>9.4f}"
            f"{row.improvement_percent:>9.2f}{row.barrier_baseline_cv:>9.4f}"
            f"{row.barrier_improvement_percent:>9.2f}"
            f"{paper_cv:>10s}{paper_imr:>13s}"
        )
    return "\n".join(lines)
