"""Experiment dispatch.

``run_experiment(id, scale)`` regenerates any of the paper's tables or
figures (or one of our ablations) and returns ``(rows, rendered_text)``.
Every experiment is a *campaign* — a declarative grid of independent
simulation units — so all of them accept ``workers`` (process pool),
``store`` (any resumable :class:`~repro.campaigns.store.CampaignStore`
backend) and ``cache`` (prior stores to reuse overlapping results
from); see
:mod:`repro.campaigns`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaigns.pool import ProgressFn
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import CampaignStore
from repro.experiments.common import run_units
from repro.experiments.ablations import (
    length_ablation_campaign,
    maxdest_ablation_campaign,
    ports_ablation_campaign,
    startup_ablation_campaign,
)
from repro.experiments.fig1 import fig1_campaign, format_fig1
from repro.experiments.fig2 import fig2_campaign, format_fig2
from repro.experiments.reporting import format_table
from repro.experiments.tables_cv import cv_table_campaign, format_cv_table
from repro.experiments.traffic_sweep import format_traffic_sweep, traffic_campaign

__all__ = [
    "CAMPAIGNS",
    "EXPERIMENTS",
    "FORMATTERS",
    "campaign_for",
    "run_experiment",
]

CampaignBuilder = Callable[..., CampaignSpec]

#: Experiment id → campaign builder (scale, seed, shards=1) ->
#: CampaignSpec.  ``shards`` (an int or ``"auto"``) reaches every
#: grid: traffic points embed it as protocol (``auto`` declares them
#: unsharded), broadcast grids switch to
#: sliceable cell-level units whose actual fan-out the pool picks at
#: dispatch time.
CAMPAIGNS: Dict[str, CampaignBuilder] = {
    "fig1": lambda scale, seed, shards=1: fig1_campaign(
        scale, seed, shards
    ),
    "fig2": lambda scale, seed, shards=1: fig2_campaign(
        scale, seed, shards=shards
    ),
    "table1": lambda scale, seed, shards=1: cv_table_campaign(
        "DB", scale, seed, shards
    ),
    "table2": lambda scale, seed, shards=1: cv_table_campaign(
        "AB", scale, seed, shards
    ),
    "fig3": lambda scale, seed, shards=1: traffic_campaign(
        "fig3", scale, seed, shards=shards
    ),
    "fig4": lambda scale, seed, shards=1: traffic_campaign(
        "fig4", scale, seed, shards=shards
    ),
    "ablation-startup": lambda scale, seed, shards=1: (
        startup_ablation_campaign(scale, seed, shards=shards)
    ),
    "ablation-length": lambda scale, seed, shards=1: (
        length_ablation_campaign(scale, seed, shards=shards)
    ),
    "ablation-maxdest": lambda scale, seed, shards=1: (
        maxdest_ablation_campaign(scale, seed, shards=shards)
    ),
    "ablation-ports": lambda scale, seed, shards=1: (
        ports_ablation_campaign(scale, seed, shards=shards)
    ),
}

#: Experiment id → row formatter.
FORMATTERS: Dict[str, Callable[[List[Any]], str]] = {
    "fig1": format_fig1,
    "fig2": format_fig2,
    "table1": format_cv_table,
    "table2": format_cv_table,
    "fig3": format_traffic_sweep,
    "fig4": format_traffic_sweep,
    "ablation-startup": format_table,
    "ablation-length": format_table,
    "ablation-maxdest": format_table,
    "ablation-ports": format_table,
}

#: Experiment id → one-line description.  Ids match DESIGN.md's
#: experiment index; ``repro list`` prints this table.
EXPERIMENTS: Dict[str, str] = {
    "fig1": "broadcast latency vs network size (Fig. 1)",
    "fig2": "CV of arrival times vs network size (Fig. 2)",
    "table1": "DB improvement over RD/EDN (Table 1)",
    "table2": "AB improvement over RD/EDN (Table 2)",
    "fig3": "latency vs load, 8x8x8 mixed traffic (Fig. 3)",
    "fig4": "latency vs load, 16x16x8 mixed traffic (Fig. 4)",
    "ablation-startup": "start-up latency ablation (Ts = 0.15 vs 1.5 us)",
    "ablation-length": "message-length ablation (32-2048 flits)",
    "ablation-maxdest": "AB per-path destination-limit ablation",
    "ablation-ports": "port-count ablation (1-3 ports per node)",
}


def campaign_for(
    experiment_id: str,
    scale: str = "quick",
    seed: int = 0,
    shards: int | str = 1,
) -> CampaignSpec:
    """Declare (without running) an experiment's campaign.

    ``shards`` splits each heavy traffic point into that many
    mergeable sub-units (``"auto"`` leaves them whole) and declares
    broadcast grids as sliceable cell-level
    units; ``1`` is the original per-replication protocol everywhere.
    """
    experiment_id = experiment_id.lower()
    try:
        builder = CAMPAIGNS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r};"
            f" choose from {sorted(CAMPAIGNS)}"
        ) from None
    return builder(scale, seed, shards=shards)


def run_experiment(
    experiment_id: str,
    scale: str = "quick",
    seed: int = 0,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    progress: Optional[ProgressFn] = None,
    cache: Sequence[CampaignStore] = (),
    shards: int | str = 1,
    spec: Optional[CampaignSpec] = None,
    trace_dir: Optional[Any] = None,
    retries: int = 2,
    max_failures: Optional[int] = None,
) -> Tuple[List[Any], str]:
    """Regenerate one table/figure; returns (rows, rendered text).

    ``spec`` lets a caller that already declared the campaign (e.g.
    the CLI, which needs it for store naming and advisories) pass it
    through instead of rebuilding the grid.  ``trace_dir`` spools
    span/event traces of the run there (see :mod:`repro.obs.trace`).
    ``retries``/``max_failures`` set the failure budget (see
    :func:`repro.campaigns.run_campaign`): failing units retry with
    backoff, quarantine on exhaustion, and drop out of the rendered
    rows with a warning rather than aborting the run.
    """
    experiment_id = experiment_id.lower()
    if spec is None:
        spec = campaign_for(experiment_id, scale, seed, shards=shards)
    rows = run_units(
        experiment_id,
        spec,
        workers=workers,
        store=store,
        cache=cache,
        shards=shards,
        progress=progress,
        trace_dir=trace_dir,
        retries=retries,
        max_failures=max_failures,
    )
    return rows, FORMATTERS[experiment_id](rows)
