"""Campaign dispatch: dispatch order + serial/pooled execution.

``run_campaign`` drains a campaign's pending units either in-process
or across ``workers`` processes (:class:`concurrent.futures.
ProcessPoolExecutor`).  Units are pure functions of their spec (every
random draw derives from the master seed via named streams), so *how*
they are dispatched — worker count, dispatch order, which pool of a
multi-pool fleet runs them — changes only wall-clock time: the
returned records, and any rows aggregated from them, are byte-identical
to a serial run.

Three orthogonal dispatch concerns live here:

ordering (follows ``workers``)
    A serial run dispatches in declaration order: order cannot change
    a serial makespan.  A pooled run orders pending units by
    :func:`estimate_unit_cost` (mesh size × traffic load × message
    length, or the fitted cost model when one exists), largest first,
    so the slowest cells start early and the campaign's makespan
    shrinks (classic longest-processing-time list scheduling).
leasing (``store=`` with a lease-capable backend)
    Before executing a unit the pool claims it through the store's
    lease protocol; units claimed by a concurrent pool are deferred
    and re-checked, so a fleet of pools sharing one store completes a
    campaign with no unit executed twice.
caching (``cache=``)
    Extra read-only stores consulted before execution.  Any prior
    record with the same content hash — e.g. a ``quick``-scale store
    whose grid overlaps this ``full`` campaign — is reused and copied
    into the primary store.

A fourth concern is layered on top of all three: sharded parents fan
out into shard units (leased, scheduled and cached individually) plus
a deterministic merge that fires — in whichever pool observes the last
shard — as soon as all shard records exist.  Traffic points declare
their fan-out in their hashed ``shards=K`` parameter (it is protocol);
broadcast cells get theirs from ``run_campaign``'s ``shards=`` request
at dispatch time — including the cost-model-driven ``shards="auto"`` —
because slicing a cell's source axis can never change a float of its
merged record; see :mod:`repro.campaigns.shards`.

Unit runners register under a *kind* key ("broadcast", "traffic");
:mod:`repro.campaigns.units` provides the built-ins and is imported
lazily so the campaigns layer never drags the experiments package into
its import cycle.

Example::

    from repro.campaigns import open_store, run_campaign

    store = open_store("campaigns/fig4-full-s0.sqlite")
    cache = [open_store("campaigns/fig4-quick-s0.sqlite")]
    records = run_campaign(spec, workers=8, store=store, cache=cache)
"""

from __future__ import annotations

import math
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Union

from repro.campaigns.spec import CampaignSpec, UnitSpec
from repro.campaigns.store import (
    DEFAULT_LEASE_TTL_S,
    STATUS_FAILED,
    CampaignStore,
    TracedStore,
    UnitRecord,
    make_failure_record,
    make_owner_id,
)
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaigns.costmodel import CostModel

__all__ = [
    "ProgressFn",
    "TooManyFailuresError",
    "WorkerCrashError",
    "estimate_unit_cost",
    "lease_heartbeat",
    "order_units",
    "register_unit_runner",
    "execute_unit",
    "run_campaign",
]


class TooManyFailuresError(RuntimeError):
    """Quarantined-unit count exceeded the campaign's ``max_failures``."""


class WorkerCrashError(RuntimeError):
    """A worker process died mid-execute (OOM kill, SIGKILL, segfault).

    Synthesised by the pool's crash supervision: the broken executor's
    in-flight units are each charged one attempt with this error, so a
    unit that reliably kills its worker exhausts its retry budget and
    quarantines instead of crash-looping the pool, while innocent
    bystanders re-run and their ok record overwrites the charge.
    """

#: kind → runner(spec) -> result dict.
_UNIT_RUNNERS: Dict[str, Callable[[UnitSpec], Dict[str, Any]]] = {}

ProgressFn = Callable[[str], None]


def register_unit_runner(
    kind: str,
) -> Callable[[Callable[[UnitSpec], Dict[str, Any]]], Callable]:
    """Decorator registering a unit runner for ``kind``."""

    def decorate(fn: Callable[[UnitSpec], Dict[str, Any]]) -> Callable:
        _UNIT_RUNNERS[kind] = fn
        return fn

    return decorate


def _runner_for(kind: str) -> Callable[[UnitSpec], Dict[str, Any]]:
    if kind not in _UNIT_RUNNERS:
        # Built-in runners live one import away; registering them here
        # (rather than at module import) keeps campaigns importable
        # from inside repro.experiments without a cycle.
        import repro.campaigns.units  # noqa: F401

    try:
        return _UNIT_RUNNERS[kind]
    except KeyError:
        raise ValueError(
            f"no unit runner registered for kind {kind!r};"
            f" known kinds: {sorted(_UNIT_RUNNERS)}"
        ) from None


# ---------------------------------------------------------- dispatch order
def estimate_unit_cost(
    spec: UnitSpec, model: Optional["CostModel"] = None
) -> float:
    """Relative wall-clock cost estimate for one unit.

    With a fitted :class:`~repro.campaigns.costmodel.CostModel` (from
    ``repro campaign fit-cost``) the estimate is the model's predicted
    wall seconds; otherwise it falls back to the static heuristic — a
    pure function of the spec (no timing, no state): mesh size ×
    traffic load × message length, with traffic units further scaled
    by their batch budget and barrier twins counted twice.  Only the
    *ordering* of estimates matters — :func:`order_units` sorts pooled
    runs by it — so crude is fine as long as 16×16×8 at high load reliably
    outranks 4×4×4 at idle.
    """
    if model is not None:
        return model.predict(spec)
    from repro.campaigns.costmodel import unit_budget

    nodes = float(math.prod(spec.dims))
    cost = nodes * float(max(spec.length_flits, 1))
    if spec.load is not None:
        cost *= max(float(spec.load), 1.0)
    # The kind's own work budget (a traffic unit's observation count,
    # a broadcast cell's source count, a shard's slice of either) —
    # shared with the fitted model's budget feature, so the heuristic
    # and the model rank the same units the same way.  A shard's
    # params carry its own (smaller) slice, so the estimate is
    # naturally per-shard: the LPT scheduler orders shards against
    # whole points on the same scale.
    cost *= max(unit_budget(spec), 1.0)
    if spec.param("barrier", False):
        cost *= 2.0  # the unit also runs its barrier twin
    return cost


def order_units(
    units: Sequence[UnitSpec],
    workers: int = 1,
    model: Optional["CostModel"] = None,
) -> List[UnitSpec]:
    """Dispatch order for ``units`` on ``workers`` processes.

    One worker keeps declaration order: order cannot change a serial
    makespan, and a serial store keeps appending in grid order.  More
    workers sort by descending :func:`estimate_unit_cost` (optionally
    under a fitted ``model``) with declaration order as the
    tie-break, so the ordering is deterministic for a given grid and
    model file.
    """
    if workers <= 1:
        return list(units)
    indexed = sorted(
        enumerate(units),
        key=lambda pair: (-estimate_unit_cost(pair[1], model), pair[0]),
    )
    return [unit for _, unit in indexed]


# --------------------------------------------------------------- execution
def execute_unit(
    spec: UnitSpec,
    tracer: Any = NULL_TRACER,
    engine: Optional[str] = None,
) -> UnitRecord:
    """Run one unit and wrap its result as a :class:`UnitRecord`.

    ``engine`` (``"event"`` or ``"batched"``; ``None`` keeps the
    process engine, :func:`repro.campaigns.units.broadcast_engine`)
    forces the broadcast engine for this one unit.  It is the oracle
    hook: tests and benchmarks re-run a unit on the event engine and
    compare.  Records are bit-identical either way, and the engine is
    never part of the unit hash.
    """
    runner = _runner_for(spec.kind)
    previous_engine: Optional[str] = None
    if engine is not None:
        from repro.campaigns.units import set_broadcast_engine

        previous_engine = set_broadcast_engine(engine)
    started = time.perf_counter()
    try:
        with tracer.span(
            "unit.execute",
            cat="unit",
            unit=spec.unit_hash,
            kind=spec.kind,
            experiment=spec.experiment,
        ):
            import os

            if os.environ.get("REPRO_FAIL_UNITS"):
                # Deterministic fault injection for failure-path drills;
                # free when the variable is unset (no import, one getenv).
                from repro.campaigns.units import raise_injected_failure

                raise_injected_failure(spec)
            result = runner(spec)
    finally:
        if engine is not None:
            from repro.campaigns.units import set_broadcast_engine

            set_broadcast_engine(previous_engine)
    return UnitRecord(
        unit_hash=spec.unit_hash,
        experiment=spec.experiment,
        spec=spec.as_dict(),
        result=result,
        elapsed_s=time.perf_counter() - started,
    )


@contextmanager
def lease_heartbeat(
    store: Optional[CampaignStore],
    unit_hash: str,
    owner: str,
    ttl_s: float = DEFAULT_LEASE_TTL_S,
    tracer: Any = NULL_TRACER,
):
    """Refresh a unit's lease from the process executing it.

    A daemon thread re-claims the lease every TTL/3 for as long as the
    unit runs, so the stale-steal TTL can sit well below the longest
    unit's duration: a *live* worker keeps its lease fresh forever,
    while a crashed worker stops heartbeating and loses the unit one
    TTL later.  Best-effort by design — a failed refresh only means
    peers may duplicate (never corrupt) the unit's work — but never
    *silent*: each failure emits a ``heartbeat.error`` trace event and
    a :class:`RuntimeWarning`, so a store that keeps rejecting
    refreshes shows up instead of manifesting as mystery duplicate
    work minutes later.

    One deliberate race: a refresh that is already in flight when the
    unit finishes can re-create the lease *after* the pool released
    it, leaving a phantom lease until its TTL expires.  This is
    harmless by construction — records are appended *before* release,
    so the unit the phantom covers always has a stored record, which
    status reporting and peer pools check first (they absorb the
    record on their next poll instead of waiting out the lease).

    No-op for stores without lease support (or no store at all).
    """
    if store is None or not store.supports_leases:
        yield
        return
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(ttl_s / 3.0):
            try:
                store.try_claim(unit_hash, owner, ttl_s=ttl_s)
            except Exception as exc:  # e.g. store unreachable
                # The TTL still bounds how stale the lease can get, but
                # surface the failure: peers may now duplicate the unit.
                tracer.event(
                    "heartbeat.error",
                    cat="lease",
                    unit=unit_hash,
                    error=repr(exc),
                )
                warnings.warn(
                    f"lease heartbeat for unit {unit_hash[:12]} failed"
                    f" ({exc!r}); the lease may expire mid-run and a"
                    f" concurrent pool may duplicate this unit's work",
                    RuntimeWarning,
                )
            else:
                tracer.event("heartbeat.beat", cat="lease", unit=unit_hash)

    thread = threading.Thread(
        target=beat, daemon=True, name=f"lease-heartbeat-{unit_hash[:8]}"
    )
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=1.0)


#: (trace_dir, role) → this process's tracer.  Tracers hold open file
#: handles and thread-local state, so they never cross process
#: boundaries — the pool ships the spool *directory* instead and every
#: process (coordinator and workers alike) lazily builds one tracer
#: writing to its own ``<role>-<pid>.jsonl`` file.
_PROCESS_TRACERS: Dict[Any, Any] = {}


def _process_tracer(trace_dir: Optional[Union[str, Path]], role: str) -> Any:
    """This process's tracer for a spool dir (``NULL_TRACER`` if none)."""
    if trace_dir is None:
        return NULL_TRACER
    import os

    from repro.obs.trace import JsonlSink, Tracer, worker_trace_path

    key = (str(trace_dir), role)
    tracer = _PROCESS_TRACERS.get(key)
    if tracer is None:
        path = worker_trace_path(trace_dir, role, os.getpid())
        tracer = Tracer(JsonlSink(path), role=role)
        _PROCESS_TRACERS[key] = tracer
    return tracer


def _execute_payload(
    payload: Dict[str, Any],
    store: Optional[CampaignStore] = None,
    owner: str = "",
    ttl_s: float = DEFAULT_LEASE_TTL_S,
    trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Worker-process entry point (module-level so it pickles).

    The worker refreshes its own unit's lease while executing it (see
    :func:`lease_heartbeat`); the coordinating pool only claims and
    releases.  When the campaign is traced the worker spools its
    ``unit.execute`` spans to its own per-pid file in ``trace_dir``.
    """
    spec = UnitSpec.from_dict(payload)
    tracer = _process_tracer(trace_dir, "worker")
    if tracer.enabled and store is not None and hasattr(store, "set_tracer"):
        # Remote stores emit rpc.* events (heartbeat claims, retries)
        # through whatever tracer their process carries; the pickled
        # copy arrived bare, so hand it this worker's.
        store.set_tracer(tracer)
    with lease_heartbeat(store, spec.unit_hash, owner, ttl_s, tracer=tracer):
        return execute_unit(spec, tracer=tracer).to_dict()


def _warm_from_caches(
    wanted: Sequence[str],
    records: Dict[str, UnitRecord],
    store: Optional[CampaignStore],
    cache: Sequence[CampaignStore],
    tracer: Any = NULL_TRACER,
) -> int:
    """Copy cache hits into ``records`` (and the primary store)."""
    hits = 0
    for cache_store in cache:
        cached = cache_store.records()
        for unit_hash in wanted:
            if unit_hash in records or unit_hash not in cached:
                continue
            record = cached[unit_hash]
            if not record.ok:
                continue  # a cache's failure record is not a result
            records[unit_hash] = record
            tracer.event(
                "cache.hit",
                cat="cache",
                unit=unit_hash,
                source=cache_store.describe(),
            )
            if store is not None:
                store.append(record)
            hits += 1
    return hits


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    progress: Optional[ProgressFn] = None,
    *,
    cache: Sequence[CampaignStore] = (),
    cost_model: Optional["CostModel"] = None,
    shards: int | str = 1,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_interval_s: float = 0.5,
    trace_dir: Optional[Union[str, Path]] = None,
    retries: int = 2,
    max_failures: Optional[int] = None,
    retry_backoff_s: float = 0.5,
) -> List[UnitRecord]:
    """Execute a campaign and return its records in declaration order.

    Parameters are documented on :func:`_run_campaign`'s body below,
    except:

    trace_dir:
        When given, the run is traced: this pool process and every
        worker spool span/event records (campaign → unit → merge
        spans; claim / steal / heartbeat / cache-hit events; store op
        latencies) into per-process JSONL files under this directory.
        ``None`` (the default) traces nothing and costs nothing — the
        producers all run against the shared no-op tracer.  Tracing is
        pure observation: records, row order and stored bytes are
        identical either way.

    When called from the main thread, SIGINT/SIGTERM are rerouted to
    ``KeyboardInterrupt`` for the duration of the run so both unwind
    identically: active futures are cancelled, every held lease is
    released, and a one-line summary is emitted — a peer pool sharing
    the store takes over immediately instead of waiting out lease
    TTLs.  The previous handlers are restored on exit.
    """
    tracer = _process_tracer(trace_dir, "pool")
    restore_signals: List[Any] = []
    if threading.current_thread() is threading.main_thread():
        import signal

        def _graceful(signum: int, frame: Any) -> None:
            raise KeyboardInterrupt(f"signal {signum}")

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                restore_signals.append((sig, signal.signal(sig, _graceful)))
            except (ValueError, OSError):  # pragma: no cover - platform
                pass
    try:
        with tracer.span(
            "campaign",
            cat="campaign",
            campaign=spec.name,
            units=len(spec),
            workers=workers,
            shards=str(shards),
        ):
            return _run_campaign(
                spec,
                workers,
                store,
                progress,
                cache=cache,
                cost_model=cost_model,
                shards=shards,
                lease_ttl_s=lease_ttl_s,
                poll_interval_s=poll_interval_s,
                trace_dir=None if trace_dir is None else str(trace_dir),
                tracer=tracer,
                retries=retries,
                max_failures=max_failures,
                retry_backoff_s=retry_backoff_s,
            )
    finally:
        if restore_signals:
            import signal

            for sig, previous in restore_signals:
                signal.signal(sig, previous)
        # The pool's spool file lives exactly as long as its campaign:
        # drop the cached tracer and close the handle (a resumed run
        # re-opens the same file in append mode).  Worker tracers are
        # closed implicitly when the worker processes exit with the
        # executor.
        if tracer.enabled:
            _PROCESS_TRACERS.pop((str(trace_dir), "pool"), None)
            tracer.close()


def _run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    store: Optional[CampaignStore] = None,
    progress: Optional[ProgressFn] = None,
    *,
    cache: Sequence[CampaignStore] = (),
    cost_model: Optional["CostModel"] = None,
    shards: int | str = 1,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_interval_s: float = 0.5,
    trace_dir: Optional[str] = None,
    tracer: Any = NULL_TRACER,
    retries: int = 2,
    max_failures: Optional[int] = None,
    retry_backoff_s: float = 0.5,
) -> List[UnitRecord]:
    """The campaign engine (:func:`run_campaign` wraps it in a span).

    Parameters
    ----------
    spec:
        The campaign to run.
    workers:
        Process count; ``1`` runs in-process (no pool, no pickling)
        in declaration order.  With more workers, pending units are
        dispatched largest-estimated-cost first (:func:`order_units`).
        Order affects dispatch only — results and row order are
        identical for every worker count.
    store:
        Optional :class:`~repro.campaigns.store.CampaignStore`.  Units
        already present are *not* re-executed (their stored record is
        reused), and every fresh record is appended as soon as it
        completes — interrupting the run loses at most the units in
        flight.  On a lease-capable backend (sqlite/shared) the pool
        claims each unit before executing it, so concurrent pools
        sharing the store divide the campaign between them.
    progress:
        Optional callback for human-readable progress lines.
    cache:
        Read-only stores consulted for prior records with the same
        content hash (e.g. the overlapping ``quick``-scale store of a
        ``full`` campaign).  Hits are copied into ``store``.
    cost_model:
        Optional fitted :class:`~repro.campaigns.costmodel.CostModel`
        that orders pooled runs (and resolves ``shards="auto"``)
        instead of the static heuristic (``repro campaign fit-cost``
        produces one; ``campaigns/cost_model.json`` is loaded when
        present).  Affects dispatch only, never results.
    shards:
        Fan-out request for **broadcast cell** units (kind
        ``"broadcast-cell"``): an integer slices each cell's source
        axis that many ways (capped by the cell's replication count),
        ``"auto"`` inverts the fitted cost model per cell — capped by
        ``workers`` and a minimum per-shard budget
        (:func:`repro.campaigns.costmodel.auto_shard_count`).  The
        expansion happens here, at dispatch time, because a broadcast
        cell's fan-out is pure work division: it is not part of the
        cell's content hash, racing pools agree on sub-unit identity
        through the shards' own content hashes, and *any* fan-out
        merges to the byte-identical cell record.  Traffic parents
        ignore this argument — their hashed ``shards`` parameter is
        the measurement protocol, fixed when the grid was declared.
    lease_ttl_s:
        How long a claimed unit stays reserved; a pool that crashes
        mid-unit blocks that unit from peers for at most this long
        (same-host crashes are detected immediately).  The process
        executing a unit — pool worker or the serial in-process path —
        heartbeats its lease every TTL/3 for as long as the unit runs
        (:func:`lease_heartbeat`), so the TTL never needs to exceed a
        unit's duration: it only bounds how long a *crashed* worker's
        unit stays blocked.
    poll_interval_s:
        Sleep between re-checks while waiting on units leased by a
        concurrent pool.
    retries:
        Failed-unit re-execution budget: a raising unit is retried up
        to this many times (``retries + 1`` attempts total) with
        exponential backoff (``retry_backoff_s * 2**attempt``), its
        failure persisted to the store as a ``status="failed"`` record
        after every attempt.  The attempt count rides in the record,
        so racing pools sharing a store honour *one* budget: whoever
        claims the unit next reads the ledger back and continues it.
        After exhaustion the unit is **quarantined** — skipped by this
        run and every peer/resume until ``campaign retry-failed``
        clears its record (or a successful re-run overwrites it).
    max_failures:
        Abort the campaign (raising :class:`TooManyFailuresError`)
        once more than this many units have quarantined.  ``None``
        (the default) never aborts — failures are data, healthy units
        all complete.  ``0`` restores strict fail-fast: the first
        failing attempt re-raises immediately (no retries), as the
        engine behaved before failure domains existed.
    retry_backoff_s:
        Base of the exponential retry backoff (attempt ``n`` waits
        ``retry_backoff_s * 2**(n-1)`` before re-queueing).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if max_failures is not None and max_failures < 0:
        raise ValueError(
            f"max_failures must be >= 0 or None, got {max_failures}"
        )
    if not (shards == "auto" or (isinstance(shards, int) and shards >= 1)):
        raise ValueError(
            f"shards must be a positive int or 'auto', got {shards!r}"
        )
    if cost_model is None and (workers > 1 or shards == "auto"):
        # Opportunistically use the fitted model from a prior
        # `repro campaign fit-cost` run; silently absent otherwise.
        from repro.campaigns.costmodel import load_default_cost_model

        cost_model = load_default_cost_model()
        if cost_model is not None and progress:
            progress(
                f"campaign {spec.name}: using fitted cost model"
                f" ({cost_model.samples} samples,"
                f" R^2={cost_model.r_squared:.2f})"
            )

    # Sharded parents never execute directly: they fan out into shard
    # units and a deterministic merge that fires — in whichever pool
    # observes the last shard — as soon as all shard records exist.
    # Traffic parents carry their fan-out in their hashed shards=K
    # parameter (it is protocol); broadcast cells resolve the `shards`
    # request here, at dispatch time (their fan-out is pure work
    # division and never part of the hash).
    from repro.campaigns.shards import (
        merge_shard_records,
        planned_shards,
        shard_specs,
    )

    shard_plan: Dict[str, List[UnitSpec]] = {}
    shard_parent: Dict[str, str] = {}
    parent_by_hash: Dict[str, UnitSpec] = {}
    for unit in spec.units:
        fan_out = planned_shards(
            unit,
            requested=shards,
            cost_model=cost_model,
            workers=workers,
        )
        if fan_out > 1:
            plan = shard_specs(unit, fan_out)
            shard_plan[unit.unit_hash] = plan
            parent_by_hash[unit.unit_hash] = unit
            for shard in plan:
                shard_parent[shard.unit_hash] = unit.unit_hash

    # Workers get the raw store (tracers hold file handles and never
    # pickle); the coordinator's own store ops go through the traced
    # wrapper so backend latencies land in the trace.  Remote stores
    # additionally emit their own rpc.* events (calls, retries) through
    # this pool's tracer.
    raw_store = store
    if tracer.enabled and store is not None:
        if hasattr(store, "set_tracer"):
            store.set_tracer(tracer)
        store = TracedStore(store, tracer)

    wanted = spec.unit_hashes()
    wanted += [s.unit_hash for plan in shard_plan.values() for s in plan]
    records: Dict[str, UnitRecord] = {}
    failures: Dict[str, UnitRecord] = {}  # unit hash → latest failure
    attempts: Dict[str, int] = {}  # unit hash → attempts charged so far
    if store is not None:
        wanted_set = set(wanted)
        for h, rec in store.records().items():
            if h not in wanted_set:
                continue
            if rec.ok:
                records[h] = rec
            else:
                # A prior run's (or racing pool's) failure record: its
                # attempt count seeds the shared retry ledger.
                failures[h] = rec
                attempts[h] = rec.attempts
    cache_hits = _warm_from_caches(wanted, records, store, cache, tracer)

    owner = make_owner_id()
    claiming = store is not None and store.supports_leases
    quarantined: set = set()  # unit hashes past their retry budget
    cooldown: List[Any] = []  # (monotonic ready time, unit) backoff queue

    def release_quietly(unit_hash: str) -> None:
        """Best-effort release — never mask the error being handled.

        Used on every error path: if the *store* is what failed (e.g.
        an unreachable coordinator), releasing would raise the same
        error again and bury the original; the lease TTL bounds the
        cost of leaving it behind.
        """
        if not claiming:
            return
        try:
            store.release(unit_hash, owner)
        except Exception:
            pass

    def finish(record: UnitRecord) -> None:
        records[record.unit_hash] = record
        if store is not None:
            try:
                store.append(record)
                if claiming:
                    store.release(record.unit_hash, owner)
            except BaseException:
                # Append failed (store unreachable mid-campaign):
                # don't strand the lease behind the dead store — the
                # release is best-effort and the original error
                # surfaces as the CLI's one-line store error.
                release_quietly(record.unit_hash)
                raise
        _after_land(record.unit_hash)

    def quarantine(unit: UnitSpec, record: UnitRecord) -> None:
        """Mark a unit permanently failed (budget exhausted)."""
        if unit.unit_hash in quarantined:
            return
        quarantined.add(unit.unit_hash)
        failures[unit.unit_hash] = record
        tracer.event(
            "unit.quarantine",
            cat="unit",
            unit=unit.unit_hash,
            attempts=record.attempts,
            error=record.failure_reason,
        )
        if progress:
            progress(
                f"campaign {spec.name}: unit {unit.unit_hash[:12]}"
                f" quarantined after {record.attempts} attempt(s) —"
                f" {record.failure_reason}"
            )
        if max_failures is not None and len(quarantined) > max_failures:
            raise TooManyFailuresError(
                f"campaign {spec.name}: {len(quarantined)} unit(s) failed"
                f" permanently (max_failures={max_failures}); `campaign"
                f" status` lists the reasons, `campaign retry-failed`"
                f" clears the quarantine records"
            )

    def unit_failed(unit: UnitSpec, exc: BaseException) -> None:
        """Charge one failed attempt; retry, quarantine, or re-raise."""
        unit_hash = unit.unit_hash
        attempt = attempts.get(unit_hash, 0) + 1
        attempts[unit_hash] = attempt
        reason = f"{type(exc).__name__}: {exc}"
        tracer.event(
            "unit.error",
            cat="unit",
            unit=unit_hash,
            error=reason,
            attempt=attempt,
        )
        record = make_failure_record(unit, exc, attempts=attempt, owner=owner)
        failures[unit_hash] = record
        if store is not None:
            try:
                # Persist the attempt *before* releasing: a racing pool
                # that claims next reads the ledger and continues the
                # shared budget instead of restarting its own.
                store.append(record)
            finally:
                release_quietly(unit_hash)
        if max_failures == 0:
            raise exc  # strict fail-fast: pre-failure-domain semantics
        if attempt >= retries + 1:
            quarantine(unit, record)
            return
        backoff = retry_backoff_s * (2.0 ** (attempt - 1))
        tracer.event(
            "unit.retry",
            cat="unit",
            unit=unit_hash,
            attempt=attempt,
            backoff_s=round(backoff, 3),
        )
        if progress:
            progress(
                f"campaign {spec.name}: unit {unit_hash[:12]} failed"
                f" (attempt {attempt}/{retries + 1}: {reason});"
                f" retrying in {backoff:.1f}s"
            )
        cooldown.append((time.monotonic() + backoff, unit))

    def absorb(record: UnitRecord) -> None:
        """Adopt a record a peer pool or cache already persisted."""
        records[record.unit_hash] = record
        tracer.event("unit.absorbed", cat="campaign", unit=record.unit_hash)
        _after_land(record.unit_hash)

    def _after_land(unit_hash: str) -> None:
        """Merge a sharded parent once its last shard has landed."""
        parent_hash = shard_parent.get(unit_hash)
        if parent_hash is None or parent_hash in records:
            return
        members = []
        for shard in shard_plan[parent_hash]:
            member = records.get(shard.unit_hash)
            if member is None:
                return  # siblings still in flight
            members.append(member)
        if store is not None:
            # A peer pool may have observed the last shard first and
            # already merged the parent (e.g. we absorbed its shards
            # after our store snapshot).  The merge is deterministic,
            # so re-deriving it would be harmless — but re-*appending*
            # it would duplicate the parent record in append-only
            # backends and double-report the merge; adopt the stored
            # record instead.
            existing = store.get(parent_hash)
            if existing is not None:
                absorb(existing)
                return
        with tracer.span(
            "unit.merge", cat="unit", unit=parent_hash, shards=len(members)
        ):
            merged = merge_shard_records(parent_by_hash[parent_hash], members)
        finish(merged)

    # Resume mid-merge: a prior run may have completed every shard of
    # a parent without persisting the merge (the merge is idempotent
    # and deterministic, so re-deriving it is always safe).
    for parent_hash, plan in shard_plan.items():
        if parent_hash not in records:
            _after_land(plan[0].unit_hash)

    def retryable(unit: UnitSpec) -> bool:
        """Queue-or-quarantine triage for a not-yet-completed unit."""
        if unit.unit_hash in records:
            return False
        stored_failure = failures.get(unit.unit_hash)
        if (
            stored_failure is not None
            and attempts.get(unit.unit_hash, 0) >= retries + 1
        ):
            quarantine(unit, stored_failure)
            return False
        return True

    pending: List[UnitSpec] = []
    for unit in spec.pending(records):
        if unit.unit_hash in shard_plan:
            pending.extend(
                s for s in shard_plan[unit.unit_hash] if retryable(s)
            )
        elif retryable(unit):
            pending.append(unit)
    if progress:
        cached_note = (
            f"{len(records)} cached"
            + (f" ({cache_hits} from cache stores)" if cache_hits else "")
        )
        quarantine_note = (
            f", {len(quarantined)} quarantined" if quarantined else ""
        )
        shard_note = (
            f" [{len(shard_plan)} sharded unit(s),"
            f" {len(shard_parent)} shards]"
            if shard_plan
            else ""
        )
        progress(
            f"campaign {spec.name}: {len(spec)} units{shard_note}"
            f" ({cached_note}{quarantine_note}, {len(pending)} to run,"
            f" workers={min(workers, max(len(pending), 1))})"
        )

    queue = deque(order_units(pending, workers, cost_model))
    deferred: List[UnitSpec] = []  # leased by a concurrent pool
    deferred_ever: set = set()  # a later claim of these is a steal/retry
    last_wait_note = -1  # dedupe "waiting on N" progress lines
    max_active = min(workers, max(len(queue), 1))
    pool = (
        ProcessPoolExecutor(max_workers=max_active)
        if workers > 1 and len(queue) > 1
        else None
    )
    active: Dict[Any, UnitSpec] = {}

    def respawn_pool(lost: List[UnitSpec]) -> None:
        """Replace a broken executor and charge its in-flight units.

        A dead worker (OOM kill, SIGKILL, segfault) breaks the whole
        ``ProcessPoolExecutor``; every queued-or-running future is
        lost.  Respawn it and put each lost unit through the normal
        failure path — the worker-killer is among them, so it burns
        budget and eventually quarantines instead of crash-looping the
        pool, while innocents re-run and overwrite their charge.
        """
        nonlocal pool
        active.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=max_active)
        tracer.event(
            "pool.respawn", cat="pool", lost=len(lost), workers=max_active
        )
        if progress:
            progress(
                f"campaign {spec.name}: worker pool crashed; respawned"
                f" {max_active} worker(s), retrying {len(lost)}"
                f" in-flight unit(s)"
            )
        crash = WorkerCrashError(
            "worker process died mid-execute (process pool broken)"
        )
        for lost_unit in lost:
            unit_failed(lost_unit, crash)

    interrupted = False
    try:
        while queue or active or deferred or cooldown:
            if cooldown:
                now = time.monotonic()
                ready = [u for t, u in cooldown if t <= now]
                if ready:
                    cooldown[:] = [(t, u) for t, u in cooldown if t > now]
                    queue.extend(ready)
            while queue and len(active) < max_active:
                unit = queue.popleft()
                if unit.unit_hash in records or unit.unit_hash in quarantined:
                    continue
                if claiming:
                    if not store.try_claim(
                        unit.unit_hash, owner, ttl_s=lease_ttl_s
                    ):
                        tracer.event(
                            "lease.deferred", cat="lease", unit=unit.unit_hash
                        )
                        deferred_ever.add(unit.unit_hash)
                        deferred.append(unit)
                        continue
                    # A previously deferred unit claimed now means the
                    # peer's lease expired without a record landing —
                    # an effective steal of a stale lease.
                    tracer.event(
                        "lease.steal"
                        if unit.unit_hash in deferred_ever
                        else "lease.claim",
                        cat="lease",
                        unit=unit.unit_hash,
                    )
                    # A peer may have completed-and-released this unit
                    # after our snapshot of the store; peers append
                    # before releasing, so a fresh claim with a stored
                    # record means the work is already done — or, for a
                    # failure record, tells us how much of the shared
                    # retry budget is already spent.
                    existing = store.get(unit.unit_hash)
                    if existing is not None:
                        if existing.ok:
                            store.release(unit.unit_hash, owner)
                            absorb(existing)
                            continue
                        attempts[unit.unit_hash] = max(
                            attempts.get(unit.unit_hash, 0),
                            existing.attempts,
                        )
                        failures[unit.unit_hash] = existing
                        if attempts[unit.unit_hash] >= retries + 1:
                            store.release(unit.unit_hash, owner)
                            quarantine(unit, existing)
                            continue
                if pool is None:
                    try:
                        with lease_heartbeat(
                            store if claiming else None,
                            unit.unit_hash,
                            owner,
                            lease_ttl_s,
                            tracer=tracer,
                        ):
                            record = execute_unit(unit, tracer=tracer)
                    except Exception as exc:
                        # Per-unit fault isolation: record the failure
                        # (which releases the lease) and keep draining.
                        unit_failed(unit, exc)
                        continue
                    except BaseException:
                        release_quietly(unit.unit_hash)  # don't strand it
                        raise
                    finish(record)
                else:
                    # Each worker heartbeats its own lease while the
                    # unit runs (see lease_heartbeat), so the TTL can
                    # sit below the longest unit's duration.  Workers
                    # take the *raw* store — their own tracer (built
                    # from trace_dir) covers their side.
                    try:
                        future = pool.submit(
                            _execute_payload,
                            unit.as_dict(),
                            raw_store if claiming else None,
                            owner,
                            lease_ttl_s,
                            trace_dir,
                        )
                    except BrokenProcessPool:
                        # The pool broke between batches; this unit
                        # never started, so requeue it uncharged.
                        release_quietly(unit.unit_hash)
                        queue.appendleft(unit)
                        respawn_pool(list(active.values()))
                        continue
                    active[future] = unit
            if active:
                done, _ = wait(
                    active,
                    timeout=max(lease_ttl_s / 6.0, poll_interval_s),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    unit = active.pop(future)
                    try:
                        record = UnitRecord.from_dict(future.result())
                    except BrokenProcessPool:
                        # Everything still in `active` died with the
                        # executor; respawn charges them all.
                        respawn_pool([unit] + list(active.values()))
                        break
                    except Exception as exc:
                        unit_failed(unit, exc)
                        continue
                    finish(record)
                continue
            if deferred:
                # Every remaining unit is leased elsewhere: wait for
                # peer results to land (or their leases to expire) and
                # retry whatever is still missing.  Point lookups, not
                # a full store scan — this loop runs on every poll.
                missing = []
                for unit in deferred:
                    if (
                        unit.unit_hash in records
                        or unit.unit_hash in quarantined
                    ):
                        continue
                    peer_record = store.get(unit.unit_hash)
                    if peer_record is None:
                        missing.append(unit)
                    elif peer_record.ok:
                        absorb(peer_record)
                    else:
                        # The peer's attempt failed: continue the
                        # shared budget from its ledger.
                        attempts[unit.unit_hash] = max(
                            attempts.get(unit.unit_hash, 0),
                            peer_record.attempts,
                        )
                        failures[unit.unit_hash] = peer_record
                        if attempts[unit.unit_hash] >= retries + 1:
                            quarantine(unit, peer_record)
                        else:
                            missing.append(unit)
                deferred = []
                if missing:
                    if progress and len(missing) != last_wait_note:
                        last_wait_note = len(missing)
                        progress(
                            f"campaign {spec.name}: waiting on"
                            f" {len(missing)} unit(s) leased by a"
                            f" concurrent pool"
                        )
                    time.sleep(poll_interval_s)
                    queue.extend(order_units(missing, workers, cost_model))
            elif not queue and not active and cooldown:
                # Nothing runnable until a backoff expires: sleep to
                # the earliest deadline (bounded by the poll interval).
                wake = min(t for t, _ in cooldown)
                pause = min(max(wake - time.monotonic(), 0.0), poll_interval_s)
                if pause > 0.0:
                    time.sleep(pause)
    except KeyboardInterrupt:
        interrupted = True
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        for unit in active.values():
            release_quietly(unit.unit_hash)
        if interrupted:
            # Graceful shutdown (SIGINT/SIGTERM): leases just released
            # above, so a peer pool takes over immediately instead of
            # waiting out lease TTLs.
            tracer.event(
                "campaign.interrupt",
                cat="campaign",
                campaign=spec.name,
                released=len(active),
            )
            if progress:
                done_units = sum(
                    1 for u in spec.units if u.unit_hash in records
                )
                progress(
                    f"campaign {spec.name}: interrupted —"
                    f" {done_units}/{len(spec)} units complete,"
                    f" released {len(active)} lease(s); a peer pool can"
                    f" take over immediately"
                )

    # A parent whose shards quarantined can never merge: surface it to
    # the caller as a synthesised (unpersisted) failure record.
    for parent_hash, plan in shard_plan.items():
        if parent_hash in records or parent_hash in failures:
            continue
        bad = [
            failures[s.unit_hash]
            for s in plan
            if s.unit_hash in failures and s.unit_hash not in records
        ]
        if bad:
            parent = parent_by_hash[parent_hash]
            failures[parent_hash] = UnitRecord(
                unit_hash=parent_hash,
                experiment=parent.experiment,
                spec=parent.as_dict(),
                result={
                    "error": "ShardFailure",
                    "message": (
                        f"{len(bad)}/{len(plan)} shard(s) failed"
                        f" ({bad[0].failure_reason})"
                    ),
                    "traceback_digest": "",
                    "attempts": max(b.attempts for b in bad),
                    "owner": owner,
                },
                status=STATUS_FAILED,
            )

    if progress:
        # Merged parents report the sum of their shards' times, so
        # count each sharded unit once (via its parent record).
        total = sum(
            r.elapsed_s
            for h, r in records.items()
            if h not in shard_parent
        )
        done = sum(1 for u in spec.units if u.unit_hash in records)
        failed_count = sum(
            1
            for u in spec.units
            if u.unit_hash not in records and u.unit_hash in failures
        )
        failed_note = f", {failed_count} failed" if failed_count else ""
        progress(
            f"campaign {spec.name}: complete"
            f" ({done}/{len(spec)} units{failed_note},"
            f" {total:.2f}s simulated work)"
        )
    return [
        records.get(unit.unit_hash) or failures[unit.unit_hash]
        for unit in spec.units
    ]
