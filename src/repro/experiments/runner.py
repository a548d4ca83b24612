"""Experiment declarations and dispatch.

Each of the paper's artefacts — Figs. 1–4, Tables 1–2 and our four
ablations — is declared exactly once, as an :class:`Experiment` in
:data:`EXPERIMENTS`.  ``repro list``, the CLI's subcommands,
:func:`campaign_for`, :func:`run_experiment` and
:func:`repro.campaigns.aggregate.aggregate` all read that table.

``run_experiment(id, scale)`` regenerates any of them and returns
``(rows, rendered_text)``.  Every experiment is a *campaign* — a
declarative grid of independent simulation units — so all of them
accept ``workers`` (process pool), ``store`` (any resumable
:class:`~repro.campaigns.store.CampaignStore` backend) and ``cache``
(prior stores to reuse overlapping results from); see
:mod:`repro.campaigns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaigns.pool import ProgressFn
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import CampaignStore, UnitRecord
from repro.experiments.ablations import (
    ABLATIONS,
    ablation_campaign,
    aggregate_ablation,
)
from repro.experiments.common import run_units
from repro.experiments.fig1 import aggregate_fig1, fig1_campaign, format_fig1
from repro.experiments.fig2 import aggregate_fig2, fig2_campaign, format_fig2
from repro.experiments.reporting import format_table
from repro.experiments.tables_cv import (
    aggregate_cv_table,
    cv_table_campaign,
    format_cv_table,
)
from repro.experiments.traffic_sweep import (
    aggregate_traffic,
    format_traffic_sweep,
    traffic_campaign,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "campaign_for",
    "run_experiment",
]


@dataclass(frozen=True)
class Experiment:
    """One paper artefact: how to declare, aggregate and print it.

    ``campaign(scale, seed, shards=...)`` declares the unit grid.
    ``shards`` (an int or ``"auto"``) reaches every grid: traffic
    points embed it as protocol (``auto`` declares them unsharded),
    broadcast grids switch to sliceable cell-level units whose actual
    fan-out the pool picks at dispatch time.  ``aggregate(records)``
    folds the unit records into rows and ``format(rows)`` renders them
    as the paper prints them.  ``title`` is the ``repro list`` line
    and the subcommand's help.

    INVARIANT: the rows, the rendered text and every unit hash are a
    function of (scale, seed, shards) alone.
    """

    id: str
    title: str
    campaign: Callable[..., CampaignSpec]
    aggregate: Callable[[Sequence[UnitRecord]], List[Any]]
    format: Callable[[List[Any]], str]


#: Experiment id → declaration, in ``repro --help`` order.  Ids match
#: the README's experiment index.
EXPERIMENTS: Dict[str, Experiment] = {
    experiment.id: experiment
    for experiment in (
        Experiment(
            "fig1", "broadcast latency vs network size (Fig. 1)",
            fig1_campaign, aggregate_fig1, format_fig1,
        ),
        Experiment(
            "fig2", "CV of arrival times vs network size (Fig. 2)",
            fig2_campaign, aggregate_fig2, format_fig2,
        ),
        Experiment(
            "table1", "DB improvement over RD/EDN (Table 1)",
            partial(cv_table_campaign, "DB"),
            partial(aggregate_cv_table, "DB"), format_cv_table,
        ),
        Experiment(
            "table2", "AB improvement over RD/EDN (Table 2)",
            partial(cv_table_campaign, "AB"),
            partial(aggregate_cv_table, "AB"), format_cv_table,
        ),
        Experiment(
            "fig3", "latency vs load, 8x8x8 mixed traffic (Fig. 3)",
            partial(traffic_campaign, "fig3"),
            aggregate_traffic, format_traffic_sweep,
        ),
        Experiment(
            "fig4", "latency vs load, 16x16x8 mixed traffic (Fig. 4)",
            partial(traffic_campaign, "fig4"),
            aggregate_traffic, format_traffic_sweep,
        ),
        *(
            Experiment(
                ablation.id, ablation.title,
                partial(ablation_campaign, ablation),
                partial(aggregate_ablation, ablation), format_table,
            )
            for ablation in ABLATIONS
        ),
    )
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
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r};"
            f" choose from {sorted(EXPERIMENTS)}"
        ) from None
    return experiment.campaign(scale, seed, shards=shards)


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
    return rows, EXPERIMENTS[experiment_id].format(rows)
