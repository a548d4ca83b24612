"""Learned unit-cost models for adaptive campaign scheduling.

The static :func:`repro.campaigns.pool.estimate_unit_cost` formula
ranks units by a hand-written ``nodes × length × load`` heuristic.
Once a store holds completed units, their measured ``elapsed_s`` can do
better: :func:`fit_cost_model` fits a log-linear model

.. math::

    \\log t \\approx w_0 + w_1 \\log N + w_2 \\log L + w_3 \\log(\\max(\\rho, 1))
              + w_4 \\log B + w_5 \\cdot \\mathrm{barrier}
              + w_6 \\cdot \\mathrm{shard}

(N nodes, L flits, ρ load, B the unit's *own* batch budget — a
shard's is its slice — and ``shard`` the per-replication overhead
indicator of ``traffic-shard`` units) by ordinary
least squares, and the resulting :class:`CostModel` orders the
dispatch of every pooled run (``workers > 1``): ``repro campaign
fit-cost`` writes ``campaigns/cost_model.json`` and every later pooled
run picks it up automatically.

Only the *ordering* of predictions matters to dispatch, so modest
fit quality still shrinks makespans; the model never affects results,
only dispatch order (see ``docs/campaigns.md``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.campaigns.spec import UnitSpec
from repro.campaigns.store import UnitRecord

__all__ = [
    "DEFAULT_COST_MODEL_PATH",
    "DEFAULT_MIN_SHARD_COST_S",
    "FEATURE_NAMES",
    "CostModel",
    "auto_shard_count",
    "cost_features",
    "fit_cost_model",
    "load_cost_model",
    "load_default_cost_model",
    "unit_budget",
]

#: Conventional location written by ``repro campaign fit-cost`` and
#: consulted by pooled dispatch and ``--shards auto``.
DEFAULT_COST_MODEL_PATH = Path("campaigns") / "cost_model.json"

FEATURE_NAMES = (
    "intercept",
    "log_nodes",
    "log_length_flits",
    "log_load",
    "log_batch_budget",
    "barrier",
    "shard",
    "engine_batched",
)

#: Fewer samples than features + 1 cannot produce a meaningful fit.
MIN_SAMPLES = len(FEATURE_NAMES) + 1

#: Minimum predicted seconds a shard must be worth before ``--shards
#: auto`` splits it off: below this, process dispatch and per-shard
#: fixed overhead (network construction, warm-up) dominate the work.
DEFAULT_MIN_SHARD_COST_S = 2.0


def unit_budget(spec: UnitSpec) -> float:
    """The unit's own work budget, in its kind's natural unit.

    Traffic points and their shards: observations (batch size × the
    unit's *own* batch count — a shard's is its slice).  Broadcast
    cells: their source count; broadcast shards: their slice of it.
    Anything else (one single-source broadcast): 1.  This is the one
    shared definition behind both the fitted model's budget feature
    and the static scheduling heuristic
    (:func:`repro.campaigns.pool.estimate_unit_cost`) — keep them on
    the same number or the two cost paths drift apart silently.
    """
    if spec.kind in ("traffic", "traffic-shard"):
        return float(spec.param("batch_size", 25)) * float(
            spec.param("num_batches", 21)
        )
    if spec.kind == "broadcast-cell":
        return float(spec.param("sources_count", 1))
    if spec.kind == "broadcast-shard":
        return float(spec.param("source_count", 1))
    return 1.0


_BROADCAST_KINDS = ("broadcast", "broadcast-cell", "broadcast-shard")


def cost_features(spec: UnitSpec) -> List[float]:
    """Feature vector of one unit (see module docstring for the model).

    Shards are first-class: a ``traffic-shard`` unit's batch budget is
    its *own* slice (already per-shard), a broadcast cell's budget is
    its source count (and a ``broadcast-shard``'s its slice of it),
    and the ``shard`` indicator lets the fit learn the fixed
    per-replication overhead (network construction, private warm-up)
    that makes a shard cost more than ``1/K`` of its parent.  Pooled
    runs therefore LPT-order individual shards, not just whole points
    — and ``--shards auto`` inverts the same model to pick the fan-out.

    The ``engine_batched`` indicator is 1 for non-AB broadcast work
    while *this process's* engine
    (:func:`repro.campaigns.units.broadcast_engine`) is not
    ``"event"``: the work the batched sweep would serve here (AB
    always falls back per source).  Records do not store the engine
    that measured them, so :func:`fit_cost_model` evaluates the
    indicator under the fitting process's engine.  Within one fit it
    is therefore a fixed function of kind and algorithm that separates
    batch-eligible broadcast work from AB and traffic work; it
    captures a batched speed-up only when the records were measured on
    the engine the fitting process runs.
    """
    from repro.campaigns.units import broadcast_engine

    nodes = float(math.prod(spec.dims))
    load = max(float(spec.load), 1.0) if spec.load is not None else 1.0
    budget = unit_budget(spec)
    batched = (
        broadcast_engine() != "event"
        and spec.kind in _BROADCAST_KINDS
        and spec.algorithm != "AB"
    )
    return [
        1.0,
        math.log(nodes),
        math.log(max(float(spec.length_flits), 1.0)),
        math.log(load),
        math.log(max(budget, 1.0)),
        1.0 if spec.param("barrier", False) else 0.0,
        1.0 if spec.kind in ("traffic-shard", "broadcast-shard") else 0.0,
        1.0 if batched else 0.0,
    ]


@dataclass(frozen=True)
class CostModel:
    """A fitted log-linear unit-cost predictor.

    Parameters
    ----------
    weights:
        One coefficient per :data:`FEATURE_NAMES` entry.
    samples:
        Number of records the fit used.
    r_squared:
        Coefficient of determination on the training records (in log
        space) — a sanity indicator, not a promise.
    """

    weights: tuple
    samples: int
    r_squared: float

    def predict(self, spec: UnitSpec) -> float:
        """Predicted wall seconds for one unit (always positive).

        ``zip`` truncates to the shorter of (weights, features), so a
        model fitted before a feature was appended still predicts —
        the missing trailing weight simply contributes zero.
        """
        z = 0.0
        for w, x in zip(self.weights, cost_features(spec)):
            z += w * x
        # exp() overflow cannot happen for sane weights, but guard the
        # scheduler against a degenerate fit anyway.
        return math.exp(min(z, 700.0))

    def as_dict(self) -> Dict:
        return {
            "schema": 1,
            "features": list(FEATURE_NAMES),
            "weights": list(self.weights),
            "samples": self.samples,
            "r_squared": self.r_squared,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CostModel":
        features = data.get("features")
        if features is not None and tuple(features) != FEATURE_NAMES:
            raise ValueError(
                f"cost model was fitted with features {features}, this"
                f" version expects {list(FEATURE_NAMES)}; re-run"
                " `repro campaign fit-cost`"
            )
        return cls(
            weights=tuple(float(w) for w in data["weights"]),
            samples=int(data.get("samples", 0)),
            r_squared=float(data.get("r_squared", float("nan"))),
        )

    def save(self, path: Path = DEFAULT_COST_MODEL_PATH) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    def describe(self) -> str:
        """Human-readable coefficient summary."""
        parts = [
            f"  {name:<18s} {weight:+.4f}"
            for name, weight in zip(FEATURE_NAMES, self.weights)
        ]
        return (
            f"cost model: {self.samples} samples,"
            f" R^2={self.r_squared:.3f} (log space)\n" + "\n".join(parts)
        )


def fit_cost_model(records: Iterable[UnitRecord]) -> CostModel:
    """Least-squares fit of the log-linear cost model to ``records``.

    Records with non-positive ``elapsed_s`` are skipped; duplicate unit
    hashes keep their first occurrence.  Raises ``ValueError`` when too
    few usable samples remain (:data:`MIN_SAMPLES`).
    """
    import numpy as np

    seen = set()
    rows: List[List[float]] = []
    targets: List[float] = []
    for record in records:
        if record.unit_hash in seen or record.elapsed_s <= 0:
            continue
        seen.add(record.unit_hash)
        spec = UnitSpec.from_dict(record.spec)
        rows.append(cost_features(spec))
        targets.append(math.log(record.elapsed_s))
    if len(rows) < MIN_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SAMPLES} completed units with timings to"
            f" fit a cost model, got {len(rows)}"
        )
    matrix = np.asarray(rows, dtype=float)
    y = np.asarray(targets, dtype=float)
    weights, *_ = np.linalg.lstsq(matrix, y, rcond=None)
    predicted = matrix @ weights
    residual = float(((y - predicted) ** 2).sum())
    total = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return CostModel(
        weights=tuple(float(w) for w in weights),
        samples=len(rows),
        r_squared=r_squared,
    )


def auto_shard_count(
    spec: UnitSpec,
    model: Optional[CostModel] = None,
    *,
    workers: Optional[int] = None,
    min_shard_s: float = DEFAULT_MIN_SHARD_COST_S,
) -> int:
    """Pick a unit's fan-out from the fitted per-shard cost model.

    The resolution of ``--shards auto``: find the largest fan-out
    ``K`` whose *narrowest shard* is still predicted to cost at least
    ``min_shard_s`` wall seconds — i.e. invert the model's per-shard
    cost term (slice budget, shard-overhead indicator and all) instead
    of naively dividing the parent's total.  The result is capped by

    * ``workers`` (when given — fanning out past the pool is pure
      per-shard overhead),
    * the unit's inherent limit (a broadcast cell's replication count;
      a traffic point's retained batch budget).

    Without a fitted model there are no wall seconds to budget:
    broadcast cells — whose fan-out can never change a float of the
    result — default to the cap (maximum parallelism), while traffic
    points — where the shard count *is* the measurement protocol —
    conservatively stay unsharded until ``repro campaign fit-cost``
    has produced evidence.
    """
    from repro.campaigns.shards import (
        BROADCAST_CELL_KIND,
        cell_sources,
        shard_specs,
    )

    if spec.kind == BROADCAST_CELL_KIND:
        limit = cell_sources(spec)
    elif spec.kind == "traffic":
        limit = int(spec.param("num_batches", 21)) - int(
            spec.param("discard", 1)
        )
    else:
        return 1
    cap = limit if workers is None else min(limit, max(int(workers), 1))
    if cap < 2:
        return 1
    if model is None:
        return cap if spec.kind == BROADCAST_CELL_KIND else 1
    for k in range(cap, 1, -1):
        # shard_specs orders largest slices first, so the last shard is
        # the narrowest of the K-way plan; the fan-out is accepted only
        # when even it clears the per-shard budget — every shard of the
        # plan is then worth its dispatch and warm-up overhead.  Heavy
        # units accept the first (largest) K, so the descending probe
        # is usually one iteration; plan construction computes no
        # content hashes (unit_hash is a lazy property predict() never
        # touches), so even the cheap-unit worst case stays trivial.
        narrowest = shard_specs(spec, k)[-1]
        if model.predict(narrowest) >= min_shard_s:
            return k
    return 1


def load_cost_model(path: Path) -> CostModel:
    """Read a model written by :meth:`CostModel.save`."""
    return CostModel.from_dict(json.loads(Path(path).read_text()))


def load_default_cost_model(
    path: Optional[Path] = None,
) -> Optional[CostModel]:
    """The conventional fitted model, or ``None`` when absent/unreadable.

    Pooled runs and ``--shards auto`` call this opportunistically — a
    missing or stale file silently falls back to the static estimate.
    """
    path = Path(path) if path is not None else DEFAULT_COST_MODEL_PATH
    if not path.exists():
        return None
    try:
        return load_cost_model(path)
    except (ValueError, KeyError, json.JSONDecodeError, OSError):
        return None


def records_from_stores(stores: Sequence) -> List[UnitRecord]:
    """Concatenate all records of several stores (first occurrence wins)."""
    out: List[UnitRecord] = []
    seen = set()
    for store in stores:
        for unit_hash, record in store.records().items():
            if unit_hash not in seen:
                seen.add(unit_hash)
                out.append(record)
    return out
