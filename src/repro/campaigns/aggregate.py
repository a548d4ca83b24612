"""Merge unit records back into the experiments' row dataclasses.

``run_campaign`` returns one record per unit; this module folds them
into the exact row shapes ``reporting.py``/``export.py`` already
consume (``Fig1Row``, ``CVTableRow``, ...).  Aggregation is a pure
function of the records: cells are processed in unit declaration order
and replications within a cell in replication order, so the rows are
identical whether the records came from one process, many workers, or
a resumed JSONL store.

Experiment row classes are imported lazily inside each aggregator —
the experiments package imports the campaign engine, not vice versa.

Usage::

    records = run_campaign(spec, workers=8, store=store)
    rows = aggregate("fig1", records)      # → List[Fig1Row]

    @register_aggregator("my-experiment")
    def _my_rows(records):
        return [MyRow(...) for spec, members in cells(records)]

Because records are keyed by content hash, the records may come from
any store backend, any worker count, or a mix of cached and fresh
executions — the rows are identical in every case.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.campaigns.spec import UnitSpec
from repro.campaigns.store import UnitRecord

__all__ = ["aggregate", "failed_records", "register_aggregator", "cells"]

Aggregator = Callable[[Sequence[UnitRecord]], List[Any]]

#: experiment id → record-list → row-list.
_AGGREGATORS: Dict[str, Aggregator] = {}


def register_aggregator(experiment: str) -> Callable[[Aggregator], Aggregator]:
    """Decorator registering the row builder for ``experiment``."""

    def decorate(fn: Aggregator) -> Aggregator:
        _AGGREGATORS[experiment] = fn
        return fn

    return decorate


def aggregate(experiment: str, records: Sequence[UnitRecord]) -> List[Any]:
    """Build the experiment's result rows from its unit records."""
    try:
        builder = _AGGREGATORS[experiment]
    except KeyError:
        raise KeyError(
            f"no aggregator for experiment {experiment!r};"
            f" known: {sorted(_AGGREGATORS)}"
        ) from None
    return builder(records)


def cells(
    records: Sequence[UnitRecord],
) -> List[Tuple[UnitSpec, List[UnitRecord]]]:
    """Group records into grid cells.

    Cells keep the first-seen (declaration) order; records within a
    cell are sorted by replication index, reproducing the serial
    measurement order exactly.

    Shard records (kinds ``traffic-shard`` / ``broadcast-shard``) are
    intermediate state — their parent's merged record is the
    reportable one — and are skipped, so aggregating a whole store
    that contains both never double-counts a sharded point.  Merged
    broadcast-cell records explode back into their per-replication
    records (identical — hash, spec and floats — to the records an
    unsharded grid stores), so every aggregator below consumes the
    same member shape whichever way the campaign was decomposed.
    """
    from repro.campaigns.shards import (
        BROADCAST_CELL_KIND,
        explode_cell_record,
        is_shard,
    )

    grouped: Dict[str, List[Tuple[UnitSpec, UnitRecord]]] = {}
    for record in records:
        if record.failed:
            # A failure record carries exception metadata, not
            # simulation output — it can never contribute to a row.
            # Callers announce the gap via failed_records().
            continue
        spec = record.unit_spec
        if is_shard(spec):
            continue
        if spec.kind == BROADCAST_CELL_KIND:
            members = [(m.unit_spec, m) for m in explode_cell_record(record)]
        else:
            members = [(spec, record)]
        for member in members:
            grouped.setdefault(member[0].cell_key, []).append(member)
    return [
        (
            members[0][0],
            [r for _, r in sorted(members, key=lambda m: m[0].replication)],
        )
        for members in grouped.values()
    ]


def failed_records(records: Sequence[UnitRecord]) -> List[UnitRecord]:
    """The failure records in ``records``, in input order.

    :func:`cells` silently drops failed units from the row build (they
    have no floats to contribute); callers that surface results to a
    human are expected to pair ``aggregate()`` with this helper and
    emit one explicit warning line per failed cell, so a partial table
    is never mistaken for a complete one.
    """
    return [record for record in records if record.failed]


def _series(members: Sequence[UnitRecord], field: str) -> List[float]:
    return [record.result[field] for record in members]


# --------------------------------------------------------------------- fig1
@register_aggregator("fig1")
def _aggregate_fig1(records: Sequence[UnitRecord]) -> List[Any]:
    from repro.experiments.fig1 import Fig1Row

    rows = []
    for spec, members in cells(records):
        latencies = _series(members, "network_latency")
        rows.append(
            Fig1Row(
                algorithm=spec.algorithm,
                dims=spec.dims,
                num_nodes=int(np.prod(spec.dims)),
                mean_latency_us=float(np.mean(latencies)),
                std_latency_us=float(np.std(latencies)),
                samples=len(latencies),
            )
        )
    return rows


# --------------------------------------------------------------------- fig2
@register_aggregator("fig2")
def _aggregate_fig2(records: Sequence[UnitRecord]) -> List[Any]:
    from repro.experiments.fig2 import Fig2Row

    rows = []
    for spec, members in cells(records):
        cvs = _series(members, "cv")
        barrier_cvs = _series(members, "barrier_cv")
        rows.append(
            Fig2Row(
                algorithm=spec.algorithm,
                dims=spec.dims,
                num_nodes=int(np.prod(spec.dims)),
                mean_cv=float(np.mean(cvs)),
                std_cv=float(np.std(cvs)),
                mean_cv_barrier=float(np.mean(barrier_cvs)),
                samples=len(cvs),
            )
        )
    return rows


# ------------------------------------------------------------------- tables
def _aggregate_cv_table(
    records: Sequence[UnitRecord], proposed: str
) -> List[Any]:
    from repro.experiments.config import PAPER_TABLE1, PAPER_TABLE2
    from repro.experiments.tables_cv import CVTableRow
    from repro.metrics.stats import improvement_percent

    paper = PAPER_TABLE1 if proposed == "DB" else PAPER_TABLE2
    mean_cv: Dict[Tuple[Tuple[int, ...], str], float] = {}
    mean_barrier_cv: Dict[Tuple[Tuple[int, ...], str], float] = {}
    dims_order: List[Tuple[int, ...]] = []
    for spec, members in cells(records):
        if spec.dims not in dims_order:
            dims_order.append(spec.dims)
        key = (spec.dims, spec.algorithm)
        mean_cv[key] = float(np.mean(_series(members, "cv")))
        mean_barrier_cv[key] = float(np.mean(_series(members, "barrier_cv")))

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


@register_aggregator("table1")
def _aggregate_table1(records: Sequence[UnitRecord]) -> List[Any]:
    return _aggregate_cv_table(records, "DB")


@register_aggregator("table2")
def _aggregate_table2(records: Sequence[UnitRecord]) -> List[Any]:
    return _aggregate_cv_table(records, "AB")


# ------------------------------------------------------------------ traffic
def _aggregate_traffic(records: Sequence[UnitRecord]) -> List[Any]:
    from repro.experiments.traffic_sweep import TrafficSweepRow

    rows = []
    for spec, members in cells(records):
        result = members[0].result
        rows.append(
            TrafficSweepRow(
                algorithm=spec.algorithm,
                dims=spec.dims,
                load_messages_per_ms=spec.load,
                mean_latency_us=result["mean_latency_us"],
                unicast_mean_latency_us=result["unicast_mean_latency_us"],
                broadcast_mean_latency_us=result["broadcast_mean_latency_us"],
                throughput_msgs_per_us=result["throughput_msgs_per_us"],
                operations=result["operations"],
                saturated=result["saturated"],
            )
        )
    return rows


_AGGREGATORS["fig3"] = _aggregate_traffic
_AGGREGATORS["fig4"] = _aggregate_traffic


# ---------------------------------------------------------------- ablations
#: ablation id → (parameter label, value extractor).
_ABLATION_PARAMS: Dict[str, Tuple[str, Callable[[UnitSpec], float]]] = {
    "ablation-startup": (
        "startup_latency_us",
        lambda s: float(s.param("startup_latency", 1.5)),
    ),
    "ablation-length": (
        "message_length_flits",
        lambda s: float(s.length_flits),
    ),
    "ablation-maxdest": (
        "max_destinations_per_path",
        lambda s: (
            float(s.param("max_destinations_per_path"))
            if s.param("max_destinations_per_path") is not None
            else float("inf")
        ),
    ),
    "ablation-ports": (
        "ports_per_node",
        lambda s: float(s.param("ports_override", 0)),
    ),
}


def _aggregate_ablation(records: Sequence[UnitRecord]) -> List[Any]:
    from repro.experiments.ablations import AblationRow

    rows = []
    for spec, members in cells(records):
        parameter, extract = _ABLATION_PARAMS[spec.experiment]
        rows.append(
            AblationRow(
                algorithm=spec.algorithm,
                parameter=parameter,
                value=extract(spec),
                mean_latency_us=float(
                    np.mean(_series(members, "network_latency"))
                ),
                mean_cv=float(np.mean(_series(members, "cv"))),
                samples=len(members),
            )
        )
    return rows


for _ablation_id in _ABLATION_PARAMS:
    _AGGREGATORS[_ablation_id] = _aggregate_ablation
