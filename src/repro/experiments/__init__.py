"""Experiment harness: one declaration per table/figure of the paper.

Each experiment module holds an artefact's row type, its grid builder,
its aggregator and its formatter; ``runner.EXPERIMENTS`` joins them
into one :class:`~repro.experiments.runner.Experiment` per id ("fig1",
"fig2", "table1", "table2", "fig3", "fig4", plus the ablations), and
``runner.run_experiment`` regenerates any of them by id; the CLI wraps
it.

Every experiment supports three scales: ``smoke`` (seconds, for unit
tests), ``quick`` (seconds-to-minutes, for CI and benchmarks) and
``full`` (the paper's sample counts).
"""

from repro.experiments.config import (
    ExperimentScale,
    FIG1_SIZES,
    FIG2_SIZES,
    PAPER_TABLE1,
    PAPER_TABLE2,
    scale_by_name,
)
from repro.experiments.fig1 import Fig1Row, fig1_campaign, run_fig1
from repro.experiments.fig2 import Fig2Row, fig2_campaign
from repro.experiments.tables_cv import CVTableRow, cv_table_campaign
from repro.experiments.traffic_sweep import (
    TrafficSweepRow,
    run_traffic_sweep,
    traffic_campaign,
)
from repro.experiments.runner import EXPERIMENTS, campaign_for, run_experiment
from repro.experiments.reporting import format_table

__all__ = [
    "CVTableRow",
    "EXPERIMENTS",
    "ExperimentScale",
    "FIG1_SIZES",
    "FIG2_SIZES",
    "Fig1Row",
    "Fig2Row",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "TrafficSweepRow",
    "campaign_for",
    "cv_table_campaign",
    "fig1_campaign",
    "fig2_campaign",
    "format_table",
    "run_experiment",
    "run_fig1",
    "run_traffic_sweep",
    "scale_by_name",
    "traffic_campaign",
]
