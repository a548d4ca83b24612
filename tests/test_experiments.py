"""Tests for the experiment harness (`repro.experiments`).

These run everything at smoke scale: the goal is correctness of the
harness (rows well-formed, shape properties present, formatters sane),
not statistical precision — that is the benchmarks' job.
"""

import math
import re
from pathlib import Path

import pytest

from repro.experiments import (
    EXPERIMENTS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    format_table,
    cv_table_campaign,
    run_experiment,
    run_traffic_sweep,
    scale_by_name,
)
from repro.experiments.config import FIG1_SIZES, FIG2_SIZES
from repro.experiments.fig1 import format_fig1, run_fig1
from repro.experiments.reporting import rows_to_dicts

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------- config
def test_scales():
    assert scale_by_name("quick").sources_per_point == 5
    assert scale_by_name("full").sources_per_point == 40
    assert scale_by_name("full").num_batches == 21
    with pytest.raises(KeyError):
        scale_by_name("nope")


def test_paper_tables_are_consistent():
    """Tables 1 and 2 share their baseline CV columns in the paper."""
    for baseline in ("RD", "EDN"):
        for nodes, (cv1, _) in PAPER_TABLE1[baseline].items():
            cv2, _ = PAPER_TABLE2[baseline][nodes]
            assert cv1 == cv2


def test_paper_sizes_node_counts():
    assert [4 * 4 * 4, 8 * 8 * 8, 10 * 10 * 10, 16 * 16 * 16] == [
        a * b * c for a, b, c in FIG1_SIZES
    ]
    assert [64, 256, 512, 1024] == [a * b * c for a, b, c in FIG2_SIZES]


# ------------------------------------------------------------------- fig1
def test_fig1_smoke_rows():
    rows = run_fig1(scale="smoke", seed=1)
    assert len(rows) == 4 * len(FIG1_SIZES)
    for row in rows:
        assert row.mean_latency_us > 0
        assert row.samples == 2
    text = format_fig1(rows)
    assert "RD" in text and "4096" in text


# ------------------------------------------------------------------- fig2
def test_fig2_smoke_rows():
    rows, _ = run_experiment("fig2", "smoke", 1)
    assert len(rows) == 4 * len(FIG2_SIZES)
    for row in rows:
        assert 0 < row.mean_cv < 1
        assert 0 < row.mean_cv_barrier < 1


# ------------------------------------------------------------------ tables
def test_cv_table_rows_db():
    rows, _ = run_experiment("table1", "smoke", 1)
    assert len(rows) == 2 * len(FIG2_SIZES)
    for row in rows:
        assert row.proposed == "DB"
        assert row.baseline in ("RD", "EDN")
        assert row.paper_baseline_cv is not None
        assert math.isfinite(row.improvement_percent)


def test_cv_table_rejects_baselines():
    with pytest.raises(ValueError):
        cv_table_campaign("RD")


# ------------------------------------------------------------------ traffic
def test_traffic_sweep_rows():
    rows = run_traffic_sweep(
        "fig3", scale="smoke", seed=1, loads=[2.0], algorithms=["DB", "AB"]
    )
    assert len(rows) == 2
    for row in rows:
        assert row.load_messages_per_ms == 2.0
        assert row.operations > 0
        assert math.isfinite(row.mean_latency_us)


def test_traffic_sweep_bad_figure():
    with pytest.raises(ValueError):
        run_traffic_sweep("fig9")


# ------------------------------------------------------------------ runner
def test_runner_dispatch_unknown():
    with pytest.raises(KeyError):
        run_experiment("nope")


def test_runner_ids_match_readme_index():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    index = readme.split("## Experiment index", 1)[1].split("\n## ", 1)[0]
    expected = set(re.findall(r"^\| `([\w-]+)` \|", index, re.MULTILINE))
    assert len(expected) == 10
    assert expected == set(EXPERIMENTS)


def test_runner_returns_rows_and_text():
    rows, text = run_experiment("table2", scale="smoke", seed=2)
    assert rows and isinstance(text, str)
    assert "ABIMR%" in text


# ---------------------------------------------------------------- reporting
def test_format_table_from_dataclasses():
    rows = run_traffic_sweep(
        "fig3", scale="smoke", seed=1, loads=[2.0], algorithms=["AB"]
    )
    text = format_table(rows)
    assert "algorithm" in text and "AB" in text


def test_format_table_from_dicts():
    text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
    assert "a" in text and "0.125" in text


def test_format_table_empty():
    assert format_table([]) == "(no rows)"


def test_rows_to_dicts_rejects_other_types():
    with pytest.raises(TypeError):
        rows_to_dicts([42])
