"""Built-in unit runners.

A unit runner maps one :class:`~repro.campaigns.spec.UnitSpec` to a
plain JSON-serialisable result dict.  Runners must be *deterministic
functions of the spec*: any randomness is re-derived from the spec's
master seed (named ``RandomStreams``), never taken from process-local
state, so a unit computes the same record no matter which worker — or
which resumed run — executes it.

Five kinds cover all of the paper's experiments:

* ``"broadcast"`` — one single-source broadcast on an idle network
  (the §3.1/§3.2 protocol).  The replication index selects which of
  the cell's shared random sources this unit measures; with
  ``barrier=True`` the same source is also run under step-barrier
  semantics (the tables' second CV column).
* ``"broadcast-cell"`` — a whole dims × algorithm cell (all of its
  random sources, event-driven runs paired with their barrier twins),
  declared instead of per-replication units when ``--shards`` asks the
  pool to slice the replication axis; the fan-out is chosen at
  dispatch time and can never change a float of the result.
* ``"broadcast-shard"`` — one contiguous source slice of a broadcast
  cell, returning the mergeable :class:`~repro.metrics.partial.
  BroadcastPartial` of its samples.
* ``"traffic"`` — one mixed unicast/broadcast load point (the §3.3
  protocol, batch means and all).  With a ``shards=K`` parameter the
  point is *defined* as K independent replications merged by the
  deterministic reducer in :mod:`repro.campaigns.shards`; executed
  inline here, the pool's parallel fan-out must match it byte for
  byte.
* ``"traffic-shard"`` — one shard of a sharded traffic point: the
  same simulation under the shard's ``shard{k}`` RNG namespace,
  collecting only its slice of the batch budget and returning the
  mergeable partial statistics the reducer consumes.

Usage — registering a custom runner::

    from repro.campaigns import register_unit_runner

    @register_unit_runner("my-kind")
    def run_my_unit(spec):
        value = simulate(spec.dims, spec.seed, spec.param("knob", 1.0))
        return {"value": value}          # plain JSON-serialisable dict

Runners execute inside worker processes, so they must be importable at
module level and return picklable plain data.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.campaigns.pool import register_unit_runner
from repro.campaigns.spec import UnitSpec

__all__ = [
    "BROADCAST_ENGINE_ENV",
    "ENGINES",
    "FAIL_UNITS_ENV",
    "InjectedFailureError",
    "broadcast_engine",
    "raise_injected_failure",
    "run_broadcast_unit",
    "run_broadcast_cell_unit",
    "run_broadcast_shard_unit",
    "run_traffic_unit",
    "run_traffic_shard_unit",
    "set_broadcast_engine",
]

#: Deterministic fault injection for failure-path drills (CI, chaos
#: tests, docs examples): a comma-separated list of unit-hash prefixes
#: (or ``*`` for every unit, or ``kind=<kind>``) whose execution raises
#: :class:`InjectedFailureError` instead of running the unit.  Worker
#: processes inherit the environment, so the injection reaches pooled
#: runs too.  Unset (the default) costs nothing — the pool only
#: consults this module when the variable is present.
FAIL_UNITS_ENV = "REPRO_FAIL_UNITS"


#: Broadcast execution engines.  ``"batched"`` — the default — routes
#: eligible sources through the structure-of-arrays sweep of
#: :mod:`repro.core.batch_broadcast` (falling back per-source where
#: exactness cannot be proved); ``"event"`` is the per-source
#: discrete-event path every release has used, kept as the oracle the
#: sweep is checked against.  The two engines are bit-identical on
#: every record, so the choice is pure work division (like a broadcast
#: cell's shard fan-out) and is deliberately **never** part of a
#: unit's hashed parameters.
ENGINES = ("event", "batched")

#: The process-level engine switch.  Worker processes inherit the
#: environment, so it reaches every unit of a pooled run.
BROADCAST_ENGINE_ENV = "REPRO_BROADCAST_ENGINE"

_ENGINE_OVERRIDE: Optional[str] = None


def broadcast_engine() -> str:
    """The engine broadcast runners will use in this process.

    Resolution order: the in-process override installed by
    :func:`set_broadcast_engine` (``execute_unit(engine=)`` brackets a
    unit with it), then :data:`BROADCAST_ENGINE_ENV`, then
    ``"batched"``.
    """
    if _ENGINE_OVERRIDE is not None:
        return _ENGINE_OVERRIDE
    value = os.environ.get(BROADCAST_ENGINE_ENV, "").strip().lower()
    return value if value in ENGINES else "batched"


def set_broadcast_engine(engine: Optional[str]) -> Optional[str]:
    """Install (or with ``None`` clear) the engine override.

    Returns the previous override so callers can restore it;
    ``execute_unit(engine=)`` brackets one unit this way.
    """
    global _ENGINE_OVERRIDE
    if engine is not None and engine not in ENGINES:
        raise ValueError(
            f"unknown broadcast engine {engine!r}; choose from {ENGINES}"
        )
    previous = _ENGINE_OVERRIDE
    _ENGINE_OVERRIDE = engine
    return previous


class InjectedFailureError(RuntimeError):
    """Raised in place of running a unit matched by ``REPRO_FAIL_UNITS``."""


def raise_injected_failure(spec: UnitSpec) -> None:
    """Raise iff ``spec`` matches the ``REPRO_FAIL_UNITS`` patterns."""
    patterns = os.environ.get(FAIL_UNITS_ENV, "")
    for pattern in patterns.split(","):
        pattern = pattern.strip()
        if not pattern:
            continue
        if (
            pattern == "*"
            or spec.unit_hash.startswith(pattern)
            or pattern == f"kind={spec.kind}"
        ):
            raise InjectedFailureError(
                f"injected failure for unit {spec.unit_hash}"
                f" ({FAIL_UNITS_ENV} matched {pattern!r})"
            )


def _broadcast_source_results(
    spec: UnitSpec, sources
) -> list:
    """Per-source result dicts for ``sources``, in order.

    The single shared measurement kernel behind the ``"broadcast"``,
    ``"broadcast-cell"`` and ``"broadcast-shard"`` runners: each source
    runs one event-driven broadcast on a fresh idle network and, when
    the spec says ``barrier=True``, its closed-form barrier twin — the
    pair stays together, so any slicing of the source axis reproduces
    the same per-source floats.
    """
    from repro.experiments.common import (
        run_barrier_broadcasts,
        run_single_broadcasts,
    )

    startup_latency = float(spec.param("startup_latency", 1.5))
    if broadcast_engine() == "event":
        outcomes = run_single_broadcasts(
            spec.algorithm,
            spec.dims,
            sources,
            spec.length_flits,
            startup_latency,
            max_destinations_per_path=spec.param("max_destinations_per_path"),
            ports_override=spec.param("ports_override"),
        )
    else:
        # "batched": the structure-of-arrays sweep, which
        # re-runs ineligible sources (declared faults, failed
        # dynamic checks) event-driven per source — records are
        # bit-identical either way, hashes included.
        from repro.core.batch_broadcast import run_batch_broadcasts

        outcomes = run_batch_broadcasts(
            spec.algorithm,
            spec.dims,
            sources,
            spec.length_flits,
            startup_latency,
            max_destinations_per_path=spec.param("max_destinations_per_path"),
            ports_override=spec.param("ports_override"),
        )
    barriers = (
        run_barrier_broadcasts(
            spec.algorithm, spec.dims, sources, spec.length_flits,
            startup_latency,
            max_destinations_per_path=spec.param("max_destinations_per_path"),
            ports_override=spec.param("ports_override"),
        )
        if spec.param("barrier", False)
        else None
    )
    results = []
    for i, (source, outcome) in enumerate(zip(sources, outcomes)):
        result: Dict[str, Any] = {
            "source": list(source),
            "network_latency": outcome.network_latency,
            "mean_latency": outcome.mean_latency,
            "cv": outcome.coefficient_of_variation,
            "delivered": outcome.delivered_count,
        }
        if barriers is not None:
            result["barrier_cv"] = barriers[i].coefficient_of_variation
            result["barrier_network_latency"] = barriers[i].network_latency
        results.append(result)
    return results


@register_unit_runner("broadcast")
def run_broadcast_unit(spec: UnitSpec) -> Dict[str, Any]:
    """One event-driven broadcast (plus optional barrier twin)."""
    from repro.experiments.common import random_sources

    count = int(spec.param("sources_count", spec.replication + 1))
    if not 0 <= spec.replication < count:
        raise ValueError(
            f"replication {spec.replication} outside sources_count={count}"
        )
    # Every replication of a cell re-derives the *same* source sequence
    # from (dims, master seed), so all algorithms see identical sources —
    # the paper's fairness protocol — and any worker computes the same
    # unit.  The sequence is prefix-stable (draw r never depends on how
    # many draws follow), which is why the unit hash can omit the
    # scale's total source count and stay valid across scales.
    source = random_sources(spec.dims, count, spec.seed)[spec.replication]
    return _broadcast_source_results(spec, [source])[0]


@register_unit_runner("broadcast-cell")
def run_broadcast_cell_unit(spec: UnitSpec) -> Dict[str, Any]:
    """One whole broadcast cell: all its sources, in replication order.

    This is the *definition* of a sharded broadcast cell's result — it
    never mentions a fan-out, so however the pool slices the cell
    (``--shards K``, ``--shards auto``, different pools picking
    different plans), the merged record must (and does, see
    ``tests/test_campaign_shards.py``) reproduce it byte for byte.
    """
    from repro.campaigns.shards import cell_sources
    from repro.experiments.common import random_sources
    from repro.metrics.partial import BroadcastPartial

    count = cell_sources(spec)
    sources = random_sources(spec.dims, count, spec.seed)
    partial = BroadcastPartial.from_results(
        _broadcast_source_results(spec, sources)
    )
    return {"replications": count, **partial.to_dict()}


@register_unit_runner("broadcast-shard")
def run_broadcast_shard_unit(spec: UnitSpec) -> Dict[str, Any]:
    """One contiguous source slice of a broadcast cell (mergeable).

    The slice re-derives the cell's source sequence prefix (the
    "sources" stream is prefix-stable) and measures sources
    ``offset .. offset + count``; the returned partial slots into
    :func:`repro.campaigns.shards.merge_broadcast_shard_results`.
    """
    from repro.experiments.common import random_sources
    from repro.metrics.partial import BroadcastPartial

    offset = spec.param("source_offset")
    count = spec.param("source_count")
    if offset is None or count is None:
        raise ValueError(
            f"broadcast shard {spec.unit_hash} has no source slice"
        )
    offset, count = int(offset), int(count)
    sources = random_sources(spec.dims, offset + count, spec.seed)[offset:]
    partial = BroadcastPartial.from_results(
        _broadcast_source_results(spec, sources), offset=offset
    )
    return {
        "shard": int(spec.param("shard", 0)),
        "partial": partial.to_dict(),
    }


def _traffic_stats(spec: UnitSpec, shard: Any = None):
    """Run the simulation a traffic(-shard) spec describes."""
    from repro.network.topology import Mesh
    from repro.traffic.workload import MixedTrafficConfig, MixedTrafficSimulation

    if spec.load is None:
        raise ValueError(f"traffic unit {spec.unit_hash} has no load")
    config = MixedTrafficConfig(
        load_messages_per_ms=spec.load,
        broadcast_fraction=float(spec.param("broadcast_fraction", 0.1)),
        message_length_flits=spec.length_flits,
        batch_size=int(spec.param("batch_size", 25)),
        num_batches=int(spec.param("num_batches", 21)),
        discard=int(spec.param("discard", 1)),
        max_sim_time_us=float(spec.param("max_sim_time_us", 2_000_000.0)),
        seed=spec.seed,
        shard=shard,
    )
    return MixedTrafficSimulation(Mesh(spec.dims), spec.algorithm, config).run()


@register_unit_runner("traffic")
def run_traffic_unit(spec: UnitSpec) -> Dict[str, Any]:
    """One mixed-traffic load point (Figs. 3-4 protocol).

    ``shards=1`` (the default) is the original single-trajectory
    protocol; ``shards=K`` delegates to the sharded definition — K
    inline replications plus the deterministic reducer — which the
    campaign pool parallelises without changing a byte.
    """
    from repro.campaigns.shards import run_sharded_traffic_unit, unit_shards

    if unit_shards(spec) > 1:
        return run_sharded_traffic_unit(spec)
    stats = _traffic_stats(spec)
    return {
        "mean_latency_us": stats.mean_latency_us,
        "unicast_mean_latency_us": stats.unicast_mean_latency_us,
        "broadcast_mean_latency_us": stats.broadcast_mean_latency_us,
        "throughput_msgs_per_us": stats.throughput_msgs_per_us,
        "operations": stats.operations_completed,
        "saturated": stats.saturated,
    }


@register_unit_runner("traffic-shard")
def run_traffic_shard_unit(spec: UnitSpec) -> Dict[str, Any]:
    """One shard of a sharded traffic point (mergeable partials)."""
    shard = spec.param("shard")
    if shard is None:
        raise ValueError(f"shard unit {spec.unit_hash} has no shard index")
    stats = _traffic_stats(spec, shard=int(shard))
    return {
        "shard": int(shard),
        "latency_partial": stats.latency_partial,
        "bucket_counts": stats.bucket_counts,
        "bucket_totals": stats.bucket_totals,
        "throughput_count": stats.throughput_count,
        "throughput_span_us": stats.throughput_span_us,
        "operations": stats.operations_completed,
        "operations_generated": stats.operations_generated,
        "batches_completed": stats.batches_completed,
        "saturated": stats.saturated,
        "sim_time_us": stats.sim_time_us,
        "mean_latency_us": stats.mean_latency_us,
    }
