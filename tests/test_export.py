"""Tests for result export (`repro.experiments.export`)."""

import math

import pytest

from repro.experiments.export import (
    load_csv_rows,
    load_json_rows,
    rows_to_csv,
    rows_to_json,
    save_rows,
)
from repro.experiments.fig1 import Fig1Row


def sample_rows():
    return [
        Fig1Row(
            algorithm="DB",
            dims=(4, 4, 4),
            num_nodes=64,
            mean_latency_us=7.23,
            std_latency_us=0.1,
            samples=5,
        ),
        Fig1Row(
            algorithm="AB",
            dims=(8, 8, 8),
            num_nodes=512,
            mean_latency_us=5.54,
            std_latency_us=0.05,
            samples=5,
        ),
    ]


def test_json_round_trip():
    text = rows_to_json(sample_rows())
    rows = load_json_rows(text)
    assert len(rows) == 2
    assert rows[0]["algorithm"] == "DB"
    assert rows[0]["dims"] == "4x4x4"
    assert rows[0]["mean_latency_us"] == pytest.approx(7.23)


def test_json_handles_inf_and_nan():
    text = rows_to_json([{"a": math.inf, "b": math.nan, "c": -math.inf}])
    row = load_json_rows(text)[0]
    assert row["a"] == math.inf
    assert math.isnan(row["b"])
    assert row["c"] == -math.inf


def test_load_json_rejects_non_array():
    with pytest.raises(ValueError):
        load_json_rows('{"a": 1}')


def test_csv_output():
    text = rows_to_csv(sample_rows())
    lines = text.strip().splitlines()
    assert lines[0].startswith("algorithm,dims,num_nodes")
    assert "DB,4x4x4,64" in lines[1]
    assert len(lines) == 3


def test_csv_round_trip():
    rows = load_csv_rows(rows_to_csv(sample_rows()))
    assert len(rows) == 2
    assert rows[0]["algorithm"] == "DB"
    assert rows[0]["dims"] == "4x4x4"
    assert rows[0]["num_nodes"] == 64
    assert rows[0]["mean_latency_us"] == pytest.approx(7.23)


def test_csv_round_trip_matches_json_round_trip():
    rows = sample_rows()
    assert load_csv_rows(rows_to_csv(rows)) == load_json_rows(rows_to_json(rows))


def test_csv_round_trip_bool_and_none_match_json():
    rows = [{"saturated": False, "note": None, "x": 1.5, "ok": True}]
    loaded = load_csv_rows(rows_to_csv(rows))
    assert loaded[0]["saturated"] is False
    assert loaded[0]["note"] is None
    assert loaded[0]["ok"] is True
    assert loaded == load_json_rows(rows_to_json(rows))


def test_csv_round_trip_real_traffic_rows():
    from repro.experiments import run_traffic_sweep

    rows = run_traffic_sweep(
        "fig3", scale="smoke", seed=0, loads=[2.0], algorithms=["AB"]
    )
    loaded = load_csv_rows(rows_to_csv(rows))
    assert loaded == load_json_rows(rows_to_json(rows))
    assert loaded[0]["saturated"] in (True, False)


def test_csv_handles_inf_and_nan():
    text = rows_to_csv([{"a": math.inf, "b": math.nan, "c": -math.inf}])
    row = load_csv_rows(text)[0]
    assert row["a"] == math.inf
    assert math.isnan(row["b"])
    assert row["c"] == -math.inf


def test_csv_empty():
    assert rows_to_csv([]) == ""
    assert load_csv_rows("") == []


def test_save_rows_json_and_csv(tmp_path):
    json_path = save_rows(sample_rows(), tmp_path / "out.json")
    csv_path = save_rows(sample_rows(), tmp_path / "out.csv")
    assert json_path.read_text().startswith("[")
    assert "algorithm" in csv_path.read_text()


def test_save_rows_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        save_rows(sample_rows(), tmp_path / "out.xlsx")


def test_export_real_experiment_rows(tmp_path):
    from repro.experiments import run_experiment

    rows, _ = run_experiment("table2", "smoke", 0)
    path = save_rows(rows, tmp_path / "table2.json")
    loaded = load_json_rows(path.read_text())
    assert len(loaded) == len(rows)
    assert {r["baseline"] for r in loaded} == {"RD", "EDN"}
