"""Sharded simulation units: parent→shard planning and the reducer.

A heavy batch-means traffic point (one parent :class:`UnitSpec` with a
``shards=K`` parameter, K > 1) fans out into K *shard* units.  Shard
``k`` is an independent replication: it draws every random number from
the ``shard{k}`` namespace of the parent's master seed and collects its
slice of the parent's retained batch budget (plus its own ``discard``
warm-up batches, which it throws away — every replication has its own
cold start).  A shard is therefore a **pure function of (parent spec,
k)**: its content hash, its substreams and its result do not depend on
which worker, pool, host or resumed run executes it.

The reducer (:func:`merge_shard_records`) is deterministic: shard
results are ordered by shard index and their retained batch means are
concatenated through the exact :mod:`repro.metrics.partial` algebra,
bucket means and throughput are pooled from mergeable sums, and the
merged record carries the same result schema as an unsharded traffic
unit.  Running the K shards serially in one process and merging gives
byte-for-byte the record that any parallel, multi-pool or resumed
execution produces — the campaign engine's serial/parallel contract,
extended below the unit.

Two identities are deliberately kept:

* ``shards=1`` (or no ``shards`` parameter) is *not* a degenerate
  shard plan — it is the original single-trajectory protocol,
  bit-for-bit, hash included.
* a shard's hash omits the sibling count: shard 2 with a 5-batch slice
  is the same simulation whether its parent split 21 batches 4 ways
  or 16 batches 3 ways, so overlapping decompositions share results
  through the store exactly like overlapping scales do.

Broadcast cells shard too, along the *replication × source* axis: a
cell-level unit (kind ``"broadcast-cell"``, one dims × algorithm grid
point spanning ``sources_count`` replications) fans out into shards
that each run a contiguous slice of the cell's source sequence — the
event-driven single-source run and, where the cell measures one, its
closed-form barrier twin always travel together in the same shard (they
shard as a pair).  Every source's broadcast runs on a fresh idle
network, so the fan-out count cannot change a single float: unlike a
traffic point's ``shards=K`` (a different statistical protocol, hence
hashed), a broadcast cell's fan-out is pure work division.  It is
therefore *not* part of the parent's content hash — the pool chooses it
at dispatch time (``--shards K``, or ``--shards auto`` for one shard
per worker), racing pools agree on sub-unit identity through the
shards' content hashes, and the merged cell record is byte-identical to
the inline definition whatever fan-out anyone picked.

Usage::

    parent = UnitSpec(..., kind="traffic",
                      params=freeze_params(shards=4, num_batches=21,
                                           discard=1, batch_size=25))
    for shard in shard_specs(parent):
        ...                      # dispatch like any other unit
    record = merge_shard_records(parent, shard_records)

    cell = UnitSpec(..., kind="broadcast-cell",
                    params=freeze_params(sources_count=40, ...))
    k = planned_shards(cell, requested="auto", workers=8)
    for shard in shard_specs(cell, k):
        ...
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaigns.spec import UnitSpec, freeze_params
from repro.campaigns.store import UnitRecord
from repro.metrics.partial import (
    BroadcastPartial,
    PartialStat,
    merge_broadcast_partials,
    merge_partials,
)
from repro.metrics.steady_state import is_steady_partial

__all__ = [
    "SHARD_KIND",
    "BROADCAST_CELL_KIND",
    "BROADCAST_SHARD_KIND",
    "SHARD_KINDS",
    "SHARDABLE_KINDS",
    "unit_shards",
    "is_shard",
    "cell_sources",
    "broadcast_cell_key",
    "shard_batch_slices",
    "shard_source_slices",
    "shard_specs",
    "planned_shards",
    "merge_shard_results",
    "merge_shard_records",
    "explode_cell_record",
    "run_sharded_traffic_unit",
]

#: Unit kind of a traffic shard (registered in :mod:`repro.campaigns.units`).
SHARD_KIND = "traffic-shard"

#: Unit kind of a cell-level broadcast parent (spans a whole
#: dims × algorithm grid cell; only declared when sharding is requested).
BROADCAST_CELL_KIND = "broadcast-cell"

#: Unit kind of one source-slice shard of a broadcast cell.
BROADCAST_SHARD_KIND = "broadcast-shard"

#: Every shard kind (sub-units that merge into a parent record).
SHARD_KINDS = (SHARD_KIND, BROADCAST_SHARD_KIND)

#: Parent kinds that know how to shard.
SHARDABLE_KINDS = ("traffic", BROADCAST_CELL_KIND)


def unit_shards(spec: UnitSpec) -> int:
    """The unit's declared shard count, validated (1 = unsharded)."""
    shards = spec.shards
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return shards


def is_shard(spec: UnitSpec) -> bool:
    """True when ``spec`` is a shard of some parent unit."""
    return spec.kind in SHARD_KINDS


def cell_sources(spec: UnitSpec) -> int:
    """Replication count of a broadcast cell parent, validated."""
    count = int(spec.param("sources_count", 0))
    if count < 1:
        raise ValueError(
            f"unit {spec.unit_hash} is no broadcast cell"
            f" (sources_count={count})"
        )
    return count


def broadcast_cell_key(spec: UnitSpec) -> str:
    """Cell identity shared by a broadcast-cell parent and its shards.

    The spec minus everything the slice decomposition adds
    (``sources_count`` / ``shard`` / ``source_offset`` /
    ``source_count``) with the kind normalised, so ``campaign status``
    can attribute stored shard records to their parent even when the
    fan-out was chosen by another pool (``--shards auto``).
    """
    data = spec.as_dict()
    data["kind"] = BROADCAST_CELL_KIND
    data.pop("replication", None)
    params = dict(data.get("params", {}))
    for name in ("sources_count", "shard", "source_offset", "source_count"):
        params.pop(name, None)
    data["params"] = params
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def shard_batch_slices(
    num_batches: int, discard: int, shards: int
) -> List[int]:
    """Retained-batch budget per shard (largest remainders first).

    The parent's ``num_batches - discard`` retained batches are split
    as evenly as possible; every shard additionally collects (and
    discards) its own ``discard`` warm-up batches, so the merged point
    retains exactly as many batch means as the serial protocol —
    the confidence interval keeps its degrees of freedom — at the
    price of ``(shards - 1) * discard`` extra warm-up batches of
    simulation, the usual replication overhead.
    """
    retained = num_batches - discard
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if retained < shards:
        raise ValueError(
            f"cannot split {retained} retained batches"
            f" ({num_batches} - {discard} discard) into {shards} shards;"
            f" use --shards <= {max(retained, 1)}"
        )
    base, extra = divmod(retained, shards)
    return [base + (1 if k < extra else 0) for k in range(shards)]


def shard_source_slices(sources: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``(offset, count)`` source slices, one per shard.

    The cell's ``sources`` replications are split as evenly as possible
    (largest remainders first).  Unlike traffic shards there is no
    warm-up overhead: every source is an independent broadcast on a
    fresh network, so the slices simply tile the replication axis.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if sources < shards:
        raise ValueError(
            f"cannot split {sources} sources into {shards} shards;"
            f" use --shards <= {max(sources, 1)}"
        )
    base, extra = divmod(sources, shards)
    out = []
    offset = 0
    for k in range(shards):
        count = base + (1 if k < extra else 0)
        out.append((offset, count))
        offset += count
    return out


def _traffic_shard_specs(parent: UnitSpec, shards: int) -> List[UnitSpec]:
    params = dict(parent.params)
    params.pop("shards", None)
    num_batches = int(params.get("num_batches", 21))
    discard = int(params.get("discard", 1))
    out = []
    for k, slice_batches in enumerate(
        shard_batch_slices(num_batches, discard, shards)
    ):
        shard_params = dict(params)
        shard_params["num_batches"] = slice_batches + discard
        shard_params["discard"] = discard
        shard_params["shard"] = k
        out.append(
            replace(
                parent, kind=SHARD_KIND, params=freeze_params(**shard_params)
            )
        )
    return out


def _broadcast_shard_specs(parent: UnitSpec, shards: int) -> List[UnitSpec]:
    sources = cell_sources(parent)
    params = dict(parent.params)
    params.pop("sources_count")
    out = []
    for k, (offset, count) in enumerate(shard_source_slices(sources, shards)):
        shard_params = dict(params)
        shard_params["shard"] = k
        shard_params["source_offset"] = offset
        shard_params["source_count"] = count
        out.append(
            replace(
                parent,
                kind=BROADCAST_SHARD_KIND,
                params=freeze_params(**shard_params),
            )
        )
    return out


def shard_specs(parent: UnitSpec, shards: Optional[int] = None) -> List[UnitSpec]:
    """The parent's shard units, in shard order (pure function).

    For a **traffic** parent the fan-out is the parent's own hashed
    ``shards`` parameter (it is protocol) unless ``shards`` overrides
    it.  Each shard spec replaces the parent's ``shards``/``num_batches``
    parameters with its own slice (``shard`` index, slice-sized
    ``num_batches``); everything else — algorithm, dims, load, seed,
    batch size, caps — is inherited, so the shard's content hash is
    derived from exactly what determines its result.

    For a **broadcast cell** the fan-out is *not* in the spec (it
    cannot change the result) and must be passed as ``shards``; each
    shard inherits the cell's parameters with ``sources_count``
    replaced by its contiguous ``source_offset``/``source_count``
    slice, so identical slices hash identically whichever pool (or
    fan-out plan) produced them.
    """
    if parent.kind not in SHARDABLE_KINDS:
        raise ValueError(
            f"kind {parent.kind!r} cannot shard (supported:"
            f" {', '.join(SHARDABLE_KINDS)})"
        )
    if parent.kind == BROADCAST_CELL_KIND:
        if shards is None or shards < 2:
            raise ValueError(
                f"broadcast cell {parent.unit_hash} needs an explicit"
                f" fan-out >= 2 (got {shards!r})"
            )
        return _broadcast_shard_specs(parent, shards)
    shards = unit_shards(parent) if shards is None else shards
    if shards < 2:
        raise ValueError(f"unit {parent.unit_hash} declares no sharding")
    return _traffic_shard_specs(parent, shards)


def planned_shards(
    spec: UnitSpec,
    requested: int | str = 1,
    *,
    workers: Optional[int] = None,
) -> int:
    """The fan-out the pool should expand ``spec`` into (1 = run whole).

    Traffic parents are self-describing: their hashed ``shards``
    parameter *is* the protocol and the request is ignored (``auto``
    was resolved when the grid was declared).  Broadcast cells resolve
    the request at dispatch time: an integer is honoured up to the
    cell's replication count; ``"auto"`` fans out to one shard per
    worker, capped by the replication count (``min(workers,
    sources)``; every source when ``workers`` is not given).
    """
    if spec.kind == "traffic":
        return unit_shards(spec)
    if spec.kind != BROADCAST_CELL_KIND:
        return 1
    sources = cell_sources(spec)
    if requested == "auto":
        return sources if workers is None else min(max(workers, 1), sources)
    count = int(requested)
    if count < 1:
        raise ValueError(f"shards must be >= 1 or 'auto', got {requested!r}")
    return min(count, sources)


# ----------------------------------------------------------------- reduce
def _pooled_mean(count: int, total: float) -> Any:
    return (total / count) if count else None


def merge_broadcast_shard_results(
    parent: UnitSpec, results: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Reduce broadcast shard results into one cell result (exact).

    Each shard result carries the :class:`BroadcastPartial` of its
    source slice; the slices are stitched by
    :func:`repro.metrics.partial.merge_broadcast_partials` — pure
    ordered concatenation, so the merged cell is byte-identical to the
    inline definition (:func:`repro.campaigns.units.
    run_broadcast_cell_unit`) *whatever* fan-out produced the shards.
    The result deliberately records nothing about the fan-out: any two
    decompositions of the same cell merge to the identical record.
    """
    sources = cell_sources(parent)
    merged = merge_broadcast_partials(
        BroadcastPartial.from_dict(r["partial"]) for r in results
    )
    if merged.offset != 0 or merged.count != sources:
        raise ValueError(
            f"cannot merge unit {parent.unit_hash}: shards cover sources"
            f" {merged.offset}..{merged.end}, expected 0..{sources}"
        )
    return {"replications": sources, **merged.to_dict()}


def merge_shard_results(
    parent: UnitSpec, results: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Reduce shard result dicts into one parent result (deterministic).

    Broadcast cells delegate to :func:`merge_broadcast_shard_results`.
    For traffic parents, ``results`` may arrive in any order; they are
    sorted by their ``shard`` index.  Retained batch means concatenate
    in shard order through the exact partial-merge algebra; bucket
    means, throughput and counters pool from the shards' mergeable
    sums.  The returned dict has the unsharded traffic-result schema
    plus ``shards`` / ``batches`` bookkeeping and a pooled ``steady``
    diagnostic.
    """
    if parent.kind == BROADCAST_CELL_KIND:
        return merge_broadcast_shard_results(parent, results)
    shards = unit_shards(parent)
    ordered = sorted(results, key=lambda r: int(r["shard"]))
    indices = [int(r["shard"]) for r in ordered]
    if indices != list(range(shards)):
        raise ValueError(
            f"cannot merge unit {parent.unit_hash}: have shards {indices},"
            f" expected 0..{shards - 1}"
        )
    discard = int(parent.param("discard", 1))
    batch_size = int(parent.param("batch_size", 25))

    chunks: List[PartialStat] = []
    offset = 0
    for result in ordered:
        partial = PartialStat.from_dict(result["latency_partial"])
        retained = partial.batch_means[discard:]
        chunks.append(
            PartialStat.from_batch_means(
                retained, batch_size, offset=offset * batch_size
            )
        )
        offset += len(retained)
    merged = merge_partials(chunks)

    counts = {"unicast": 0, "broadcast": 0}
    totals = {"unicast": 0.0, "broadcast": 0.0}
    throughput_count, throughput_span = 0, 0.0
    operations = 0
    saturated = False
    for result in ordered:
        for bucket in counts:
            counts[bucket] += int(result["bucket_counts"][bucket])
            totals[bucket] += float(result["bucket_totals"][bucket])
        throughput_count += int(result["throughput_count"])
        throughput_span += float(result["throughput_span_us"])
        operations += int(result["operations"])
        saturated = saturated or bool(result["saturated"])

    if merged.batch_means:
        mean_latency = merged.mean_of_batches
    else:
        # Every shard saturated before closing a retained batch; fall
        # back to the pooled mean of whatever operations completed
        # (mirrors the serial protocol's saturated fallback).
        all_count = counts["unicast"] + counts["broadcast"]
        all_total = totals["unicast"] + totals["broadcast"]
        mean_latency = (
            all_total / all_count if all_count else float("nan")
        )

    if throughput_count == 0:
        throughput = 0.0
    elif throughput_span <= 0:
        throughput = float("inf") if throughput_count > 1 else 0.0
    else:
        throughput = throughput_count / throughput_span

    return {
        "mean_latency_us": mean_latency,
        "unicast_mean_latency_us": _pooled_mean(
            counts["unicast"], totals["unicast"]
        ),
        "broadcast_mean_latency_us": _pooled_mean(
            counts["broadcast"], totals["broadcast"]
        ),
        "throughput_msgs_per_us": throughput,
        "operations": operations,
        "saturated": saturated,
        "shards": shards,
        "batches": len(merged.batch_means),
        # The paper's "results do not change with time" criterion over
        # the pooled batch means (False also when too few batches to
        # judge) — a per-point diagnostic for sweep reports.
        "steady": bool(is_steady_partial(merged, window=2)),
    }


def merge_shard_records(
    parent: UnitSpec, records: Sequence[UnitRecord]
) -> UnitRecord:
    """Wrap :func:`merge_shard_results` as the parent's stored record.

    ``elapsed_s`` is the sum of the shards' measured times — the
    parent's total simulation cost, so ``campaign status`` reports
    what a sharded point costs end to end.
    """
    result = merge_shard_results(parent, [r.result for r in records])
    return UnitRecord(
        unit_hash=parent.unit_hash,
        experiment=parent.experiment,
        spec=parent.as_dict(),
        result=result,
        elapsed_s=float(sum(r.elapsed_s for r in records)),
    )


def explode_cell_record(record: UnitRecord) -> List[UnitRecord]:
    """Per-replication records of a merged broadcast-cell record.

    The inverse of cell-level grouping: replication ``r`` of the cell
    becomes exactly the record the unsharded per-replication grid
    stores for it — same spec (kind ``"broadcast"``, ``replication=r``,
    the slice bookkeeping dropped), same content hash, same per-source
    result floats — so aggregation over a sharded campaign reuses the
    unsharded aggregators untouched and reproduces their rows byte for
    byte.
    """
    parent = record.unit_spec
    sources = cell_sources(parent)
    partial = BroadcastPartial.from_dict(record.result)
    if partial.offset != 0 or partial.count != sources:
        raise ValueError(
            f"cell record {record.unit_hash} covers sources"
            f" {partial.offset}..{partial.end}, expected 0..{sources}"
        )
    params = dict(parent.params)
    params.pop("sources_count")
    out = []
    for r, result in enumerate(partial.results()):
        spec = replace(
            parent,
            kind="broadcast",
            replication=r,
            params=freeze_params(**params),
        )
        out.append(
            UnitRecord(
                unit_hash=spec.unit_hash,
                experiment=spec.experiment,
                spec=spec.as_dict(),
                result=result,
                elapsed_s=record.elapsed_s / sources,
            )
        )
    return out


def run_sharded_traffic_unit(parent: UnitSpec) -> Dict[str, Any]:
    """Execute a sharded parent inline: all shards serially, then merge.

    This is the *definition* of a sharded unit's result — the worker
    pool's fan-out/merge path is an optimisation that must (and does,
    see ``tests/test_campaign_shards.py``) reproduce it byte for byte.
    """
    from repro.campaigns.units import run_traffic_shard_unit

    return merge_shard_results(
        parent, [run_traffic_shard_unit(s) for s in shard_specs(parent)]
    )
