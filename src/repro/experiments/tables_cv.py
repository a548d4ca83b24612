"""Tables 1 & 2 — CV of the baselines and DB/AB improvement percentages.

The paper's table protocol: L = 64 flits, sizes 64–1024 nodes, values
averaged over at least 40 experiments; the improvement column is
``IMR% = (CV_baseline − CV_proposed) / CV_proposed · 100``.

Table 1 compares DB against RD and EDN; Table 2 compares AB.  The
measured tables are printed side by side with the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import CampaignStore
from repro.experiments.common import broadcast_units, campaign, run_units
from repro.experiments.config import FIG2_SIZES, ExperimentScale

__all__ = ["CVTableRow", "cv_table_campaign", "run_cv_table", "format_cv_table"]

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


def _table_id(proposed: str) -> str:
    proposed = proposed.upper()
    if proposed not in ("DB", "AB"):
        raise ValueError(f"the paper's tables propose DB or AB, not {proposed!r}")
    return "table1" if proposed == "DB" else "table2"


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
    experiment = _table_id(proposed)
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


def run_cv_table(
    proposed: str,
    scale: str | ExperimentScale = "quick",
    seed: int = 0,
    *,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    shards: int | str = 1,
) -> List[CVTableRow]:
    """Regenerate Table 1 (``proposed="DB"``) or Table 2 (``"AB"``)."""
    experiment = _table_id(proposed)
    return run_units(
        experiment,
        cv_table_campaign(proposed, scale, seed, shards),
        workers=workers,
        store=store,
        shards=shards,
    )


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
