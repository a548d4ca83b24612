"""Group unit records into grid cells for the experiments' aggregators.

``run_campaign`` returns one record per unit; each experiment's
aggregator (declared next to its row type, see
:mod:`repro.experiments.runner`) folds them into its rows through
:func:`cells` and :func:`series`.  Aggregation is a pure function of
the records: cells are processed in unit declaration order and
replications within a cell in replication order, so the rows are
identical whether the records came from one process, many workers, or
a resumed JSONL store.

Usage::

    records = run_campaign(spec, workers=8, store=store)
    rows = aggregate("fig1", records)      # → List[Fig1Row]

Because records are keyed by content hash, the records may come from
any store backend, any worker count, or a mix of cached and fresh
executions — the rows are identical in every case.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.campaigns.spec import UnitSpec
from repro.campaigns.store import UnitRecord

__all__ = ["aggregate", "cells", "failed_records", "series"]


def aggregate(experiment: str, records: Sequence[UnitRecord]) -> List[Any]:
    """Build ``experiment``'s result rows from its unit records."""
    # The experiments import the campaign engine, not vice versa.
    from repro.experiments.runner import EXPERIMENTS

    try:
        declared = EXPERIMENTS[experiment]
    except KeyError:
        raise KeyError(
            f"no aggregator for experiment {experiment!r};"
            f" known: {sorted(EXPERIMENTS)}"
        ) from None
    return declared.aggregate(records)


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
    unsharded grid stores), so every aggregator consumes the
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


def series(members: Sequence[UnitRecord], field: str) -> List[float]:
    """``field`` of each member record's result, in member order."""
    return [record.result[field] for record in members]
