"""Tests for the learned unit-cost model (`repro.campaigns.costmodel`)."""

import json
import math

import pytest

from repro.campaigns.costmodel import (
    FEATURE_NAMES,
    CostModel,
    auto_shard_count,
    cost_features,
    fit_cost_model,
    load_cost_model,
    load_default_cost_model,
)
from repro.campaigns.pool import estimate_unit_cost, order_units
from repro.campaigns.spec import UnitSpec, freeze_params
from repro.campaigns.store import UnitRecord


def _unit(dims, length=100, load=None, kind="broadcast", rep=0, **params):
    return UnitSpec(
        experiment="fig1",
        kind=kind,
        algorithm="DB",
        dims=dims,
        length_flits=length,
        seed=0,
        replication=rep,
        load=load,
        params=freeze_params(**params),
    )


def _record(spec, elapsed):
    return UnitRecord(
        unit_hash=spec.unit_hash,
        experiment=spec.experiment,
        spec=spec.as_dict(),
        result={},
        elapsed_s=elapsed,
    )


def _synthetic_records():
    """Records following elapsed = 1e-6 * nodes^1.0 * length^0.5."""
    records = []
    for rep, dims in enumerate(
        [(4, 4, 4), (8, 8, 8), (10, 10, 10), (16, 16, 16), (4, 4), (32, 32)]
    ):
        for length in (32, 100, 512, 2048):
            spec = _unit(dims, length=length, rep=rep)
            elapsed = 1e-6 * math.prod(dims) * math.sqrt(length)
            records.append(_record(spec, elapsed))
    return records


def test_fit_recovers_power_law():
    model = fit_cost_model(_synthetic_records())
    weights = dict(zip(FEATURE_NAMES, model.weights))
    assert weights["log_nodes"] == pytest.approx(1.0, abs=1e-6)
    assert weights["log_length_flits"] == pytest.approx(0.5, abs=1e-6)
    assert model.r_squared == pytest.approx(1.0, abs=1e-9)
    big = _unit((16, 16, 16), length=2048, rep=99)
    small = _unit((4, 4), length=32, rep=99)
    assert model.predict(big) > model.predict(small)
    # Predictions reproduce the generating law.
    assert model.predict(big) == pytest.approx(
        1e-6 * 4096 * math.sqrt(2048), rel=1e-6
    )


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError, match="at least"):
        fit_cost_model(_synthetic_records()[:3])


def test_fit_skips_duplicates_and_nonpositive_timings():
    records = _synthetic_records()
    polluted = records + [records[0]] + [_record(_unit((6, 6), rep=50), 0.0)]
    assert fit_cost_model(polluted).samples == len(records)


def test_model_roundtrip_and_feature_mismatch(tmp_path):
    model = fit_cost_model(_synthetic_records())
    path = model.save(tmp_path / "cost_model.json")
    loaded = load_cost_model(path)
    assert loaded == model
    data = json.loads(path.read_text())
    data["features"] = ["something_else"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="fit-cost"):
        load_cost_model(path)


def test_load_default_cost_model_absent_or_corrupt(tmp_path):
    assert load_default_cost_model(tmp_path / "missing.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert load_default_cost_model(bad) is None


def test_estimate_unit_cost_uses_model_when_given():
    model = fit_cost_model(_synthetic_records())
    spec = _unit((8, 8, 8), length=100, rep=7)
    assert estimate_unit_cost(spec, model) == pytest.approx(model.predict(spec))
    assert estimate_unit_cost(spec) != estimate_unit_cost(spec, model)


def test_order_units_adaptive_with_model_is_deterministic():
    model = fit_cost_model(_synthetic_records())
    units = [
        _unit((4, 4), length=32, rep=1),
        _unit((16, 16, 16), length=2048, rep=2),
        _unit((8, 8, 8), length=100, rep=3),
    ]
    ordered = order_units(units, 2, model)
    assert [math.prod(u.dims) for u in ordered] == [4096, 512, 16]
    assert order_units(units, 2, model) == ordered
    # A serial run ignores the model entirely.
    assert order_units(units, 1, model) == units


def test_traffic_features_scale_with_batch_budget():
    light = _unit((8, 8, 8), load=4.0, kind="traffic", batch_size=5, num_batches=2)
    heavy = _unit(
        (8, 8, 8), load=4.0, kind="traffic", batch_size=50, num_batches=20, rep=1
    )
    names = dict(zip(FEATURE_NAMES, cost_features(heavy)))
    assert names["log_batch_budget"] == pytest.approx(math.log(1000))
    model = CostModel(weights=(0.0, 0.0, 0.0, 0.0, 1.0, 0.0), samples=1, r_squared=1.0)
    assert model.predict(heavy) > model.predict(light)


# ---------------------------------------------------------- --shards auto
def _flat_model(seconds):
    """A model predicting ``seconds`` per source/batch of budget.

    Weights: only the intercept and the budget term are non-zero, so a
    unit with budget B predicts ``seconds * B`` wall seconds — easy to
    reason about in cap/inversion tests.
    """
    return CostModel(
        weights=(math.log(seconds), 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
        samples=8,
        r_squared=1.0,
    )


def _cell(sources=8, **params):
    return _unit(
        (8, 8, 8), kind="broadcast-cell", sources_count=sources, **params
    )


def test_auto_caps_by_workers_and_replications():
    # No model: a broadcast cell maximises parallelism within the caps.
    assert auto_shard_count(_cell(sources=8), None, workers=4) == 4
    assert auto_shard_count(_cell(sources=3), None, workers=8) == 3
    assert auto_shard_count(_cell(sources=8), None) == 8  # no worker cap
    assert auto_shard_count(_cell(sources=1), None, workers=8) == 1
    assert auto_shard_count(_cell(sources=8), None, workers=1) == 1


def test_auto_inverts_per_shard_budget():
    # 1 s per source, 2 s minimum per shard: an 8-source cell supports
    # at most 4 shards of >= 2 sources each.
    model = _flat_model(1.0)
    assert auto_shard_count(_cell(sources=8), model, workers=8) == 4
    # Expensive sources justify the full fan-out...
    assert auto_shard_count(_cell(sources=8), _flat_model(5.0), workers=8) == 8
    # ...while cheap cells are not worth slicing at all.
    assert auto_shard_count(_cell(sources=8), _flat_model(0.01), workers=8) == 1
    # A custom per-shard budget moves the knee.
    assert (
        auto_shard_count(_cell(sources=8), model, workers=8, min_shard_s=4.0)
        == 2
    )


def test_auto_traffic_needs_model_evidence():
    """The shard count of a traffic point is measurement protocol, so
    without a fitted model `auto` must leave it unsharded — unlike a
    broadcast cell, whose fan-out cannot change the result."""
    point = _unit(
        (8, 8, 8), load=4.0, kind="traffic",
        batch_size=25, num_batches=21, discard=1,
    )
    assert auto_shard_count(point, None, workers=8) == 1
    # With evidence, the inversion applies (even the narrowest shard
    # of the 8-way plan — 2 retained + 1 warm-up batch of 25 obs —
    # clears the 2 s budget at 0.05 s per observation).
    assert auto_shard_count(point, _flat_model(0.05), workers=8) == 8
    # Capped by the retained batch budget, never beyond it.
    narrow = _unit(
        (8, 8, 8), load=4.0, kind="traffic",
        batch_size=25, num_batches=4, discard=1,
    )
    assert auto_shard_count(narrow, _flat_model(10.0), workers=16) == 3


def test_auto_other_kinds_never_shard():
    assert auto_shard_count(_unit((8, 8, 8)), _flat_model(99.0), workers=8) == 1


def test_broadcast_cell_features_scale_with_sources():
    cell = _cell(sources=40)
    names = dict(zip(FEATURE_NAMES, cost_features(cell)))
    assert names["log_batch_budget"] == pytest.approx(math.log(40))
    assert names["shard"] == 0.0
    from repro.campaigns.shards import shard_specs

    shard = shard_specs(cell, 4)[0]
    shard_names = dict(zip(FEATURE_NAMES, cost_features(shard)))
    assert shard_names["log_batch_budget"] == pytest.approx(math.log(10))
    assert shard_names["shard"] == 1.0
    assert estimate_unit_cost(shard) < estimate_unit_cost(cell)


def test_cli_fit_cost_end_to_end(tmp_path, monkeypatch, capsys):
    """fit-cost writes the model and pooled runs pick it up."""
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["campaign", "run", "fig1", "--scale", "smoke"]) == 0
    assert main(["campaign", "fit-cost", "fig1", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "cost model:" in out and "campaigns/cost_model.json" in out
    assert (tmp_path / "campaigns" / "cost_model.json").exists()
    assert load_default_cost_model() is not None
    # A later pooled run reports the fitted model in its progress.
    assert (
        main(["campaign", "run", "fig1", "--scale", "smoke", "--workers", "2"])
        == 0
    )
    assert "using fitted cost model" in capsys.readouterr().out


def test_cli_fit_cost_without_stores(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["campaign", "fit-cost", "fig1"]) == 1
    assert "no stores found" in capsys.readouterr().out
