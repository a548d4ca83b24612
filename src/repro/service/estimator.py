"""The live estimator: a store-backed latency oracle.

:class:`EstimatorService` answers "what latency would this (dims,
algorithm, load, L) broadcast see?" for an open-loop stream of JSON
queries.  Each query maps — through :func:`spec_for_query` — to the
same content-hashed :class:`~repro.campaigns.spec.UnitSpec` a campaign
would declare, so the campaign store doubles as the service's answer
cache:

* **hit** — the store already holds an ok record for the unit's hash
  (a prior query, or any campaign that ever computed the point): the
  stored result is returned immediately, nothing simulates.
* **pending** — a miss: the unit is enqueued for the background
  simulator (one thread draining misses through the ordinary
  :func:`~repro.campaigns.pool.run_campaign` machinery — engine
  selection, retry budget, failure records and lease protocol all
  included), and the reply is *held* until that thread lands the
  unit's record or :data:`MISS_HOLD_S` passes.  A small miss
  therefore answers ``hit`` (or ``failed``) in the same reply; a unit
  still simulating when the hold expires answers ``pending`` with a
  *ticket* (the unit hash) that a later query or :meth:`result` call
  redeems once the record lands.
* **failed** — the unit exhausted its retry budget and the store holds
  its failure record: the reply reports the reason and attempt count
  instead of re-simulating a known-poisonous point (clear it with
  ``repro campaign retry-failed`` semantics: append a fresh record).

Because the answer is whatever lands in the store, a fresh query's
result is byte-identical to running the same unit via ``repro campaign
run`` — the service adds no computation path of its own: the hold only
waits for the drain thread, it never simulates in the request thread.

Determinism: all service time comes from the ``clock`` callable
injected at construction (default :func:`time.monotonic`; never
``time.time()``), so tests drive the whole request loop — including
the SLO stats — with a scripted clock and replay it exactly.
Answer latencies (hold time included) accumulate in one plain list, so
``/v1/stats`` reports *exact* nearest-rank p50/p95/p99 over every
answer.

See ``docs/service.md`` for the query schema and the failure matrix.
"""

from __future__ import annotations

import collections
import math
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.campaigns.pool import run_campaign
from repro.campaigns.remote import JsonApiServer
from repro.campaigns.spec import CampaignSpec, UnitSpec, freeze_params
from repro.campaigns.store import CampaignStore
from repro.campaigns.units import broadcast_engine
from repro.obs.trace import NULL_TRACER

__all__ = [
    "DEFAULT_SERVICE_PORT",
    "MISS_HOLD_S",
    "QUERY_FIELDS",
    "ServiceError",
    "EstimatorService",
    "EstimatorServer",
    "spec_for_query",
]

#: Conventional estimator port (``repro serve`` default) — one above
#: the campaign coordinator's 8931 so both run side by side.
DEFAULT_SERVICE_PORT = 8932

#: Longest a miss's reply waits for the drain thread to land the
#: unit's record before answering ``pending`` with a ticket.  Long
#: enough for the small units a served oracle mostly sees (a few ms of
#: simulation each), short enough that a big unit's caller gets its
#: ticket promptly.
MISS_HOLD_S = 0.25

#: Accepted query-document fields (anything else is rejected loudly —
#: a typo like ``"lenght_flits"`` must not silently hash to a
#: different unit).
QUERY_FIELDS = frozenset(
    {
        "algorithm",
        "dims",
        "length_flits",
        "load",
        "seed",
        "replication",
        "experiment",
        "params",
    }
)


class ServiceError(ValueError):
    """A malformed query document (the HTTP layer's 400)."""


def nearest_rank(ordered: List[float], q: float) -> float:
    """The nearest-rank ``q``-percentile of the ascending ``ordered``:
    the element at rank ``max(1, ceil(q * n))``."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q!r}")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _is_json_int(value: Any) -> bool:
    # JSON true/false decode to bool, a subclass of int: not integers here.
    return isinstance(value, int) and not isinstance(value, bool)


def spec_for_query(doc: Dict[str, Any]) -> UnitSpec:
    """Map one JSON query document to its content-hashed unit.

    Required: ``algorithm`` (a registered algorithm name) and ``dims``
    (a list of positive integer mesh dimensions).  Optional:
    ``length_flits`` (default 100), ``load`` (a finite number > 0 in
    messages/ms; present → a ``"traffic"`` unit, absent → a
    single-source ``"broadcast"`` unit), ``seed`` (default 0),
    ``replication`` (default 0), ``experiment`` (default
    ``"service"`` — pass a paper experiment id to share units with its
    campaigns), and ``params`` (extra runner parameters, canonicalised
    exactly like a campaign grid's).  Integer fields must be JSON
    integers: ``8.9``, ``"444"`` or ``true`` is rejected rather than
    truncated or split into a different unit.

    The construction is deliberately identical to what experiment
    grids do — :func:`freeze_params` and all — so a query for a point
    some campaign already computed hashes to the *same* unit and hits
    its stored record.
    """
    from repro.core.registry import algorithm_names

    if not isinstance(doc, dict):
        raise ServiceError("query must be a JSON object")
    unknown = set(doc) - QUERY_FIELDS
    if unknown:
        raise ServiceError(
            f"unknown query field(s) {sorted(unknown)};"
            f" accepted: {sorted(QUERY_FIELDS)}"
        )
    try:
        algorithm = str(doc["algorithm"])
        dims = doc["dims"]
    except KeyError as exc:
        raise ServiceError(f"query is missing required field {exc}") from None
    if not isinstance(dims, list) or not all(map(_is_json_int, dims)):
        raise ServiceError("'dims' must be a list of integers")
    if algorithm not in algorithm_names():
        raise ServiceError(
            f"unknown algorithm {algorithm!r};"
            f" choose from {sorted(algorithm_names())}"
        )
    if not dims or any(d < 1 for d in dims):
        raise ServiceError(f"'dims' must be positive, got {dims}")
    length_flits = doc.get("length_flits", 100)
    seed = doc.get("seed", 0)
    replication = doc.get("replication", 0)
    if not all(map(_is_json_int, (length_flits, seed, replication))):
        raise ServiceError(
            "'length_flits', 'seed' and 'replication' must be integers"
        )
    if length_flits < 1:
        raise ServiceError(f"'length_flits' must be >= 1, got {length_flits}")
    if replication < 0:
        raise ServiceError(f"'replication' must be >= 0, got {replication}")
    load = doc.get("load")
    if load is not None:
        if not (
            isinstance(load, (int, float))
            and not isinstance(load, bool)
            and math.isfinite(load)
        ):
            raise ServiceError(f"'load' must be a finite number, got {load!r}")
        if load <= 0:
            raise ServiceError(f"'load' must be > 0, got {load}")
        load = float(load)
    params = doc.get("params") or {}
    if not isinstance(params, dict):
        raise ServiceError("'params' must be a JSON object")
    return UnitSpec(
        experiment=str(doc.get("experiment", "service")),
        kind="traffic" if load is not None else "broadcast",
        algorithm=algorithm,
        dims=tuple(dims),
        length_flits=length_flits,
        seed=seed,
        replication=replication,
        load=load,
        params=freeze_params(**params),
    )


class EstimatorService:
    """Answer latency queries from a campaign store, simulating misses.

    Parameters
    ----------
    store:
        Any :class:`CampaignStore` backend (jsonl / sqlite / shared /
        http) — the demand-driven answer cache.
    clock:
        Time source for every service measurement (answer latencies,
        uptime).  Injected so tests replay the request loop
        deterministically; defaults to :func:`time.monotonic` and is
        never ``time.time()``.
    tracer:
        ``svc.*`` spans/events land here (default: the no-op tracer).
    retries:
        Forwarded to :func:`run_campaign` for every miss — the
        failure-domain retry budget applies to service-triggered
        simulations exactly as to campaign runs (and so does the
        process's broadcast engine, ``REPRO_BROADCAST_ENGINE``).
    queue_size:
        Bound on queued-but-unstarted misses; excess misses stay
        pending (their tickets redeem once re-queried) instead of
        growing memory.

    Example::

        service = EstimatorService(open_store("campaigns/oracle.sqlite"))
        service.query({"algorithm": "DB", "dims": [8, 8, 8]})
        # a miss, held until the drain thread lands the record:
        # -> {"status": "hit", "result": {"mean_latency": ...}, ...}
        service.query({"algorithm": "RD", "dims": [32, 32, 32]})
        # still simulating after MISS_HOLD_S:
        # -> {"status": "pending", "ticket": "9f3b...", "queued": true}
        service.wait_idle()
        service.result("9f3b...")
        # -> {"status": "hit", "result": {"mean_latency": ...}, ...}
    """

    def __init__(
        self,
        store: CampaignStore,
        *,
        clock: Callable[[], float] = time.monotonic,
        tracer: Any = NULL_TRACER,
        retries: int = 2,
        queue_size: int = 1024,
    ):
        self.store = store
        self.clock = clock
        self.tracer = tracer
        self.retries = int(retries)
        self._lock = threading.Lock()
        # The SLO state, guarded by ``_lock``: counters appear on their
        # first increment; latencies stay in observation order.
        self._counters: collections.Counter[str] = collections.Counter()
        self._latencies_s: List[float] = []
        self._total_s = 0.0
        # In-flight unit hash -> the event the drain thread sets once
        # it has landed (or dropped) the unit; held replies wait on it.
        self._inflight: Dict[str, threading.Event] = {}
        self._closed = False
        self._started_s = self.clock()
        self._queue: "queue.Queue[Optional[UnitSpec]]" = queue.Queue(
            maxsize=max(1, int(queue_size))
        )
        self._worker = threading.Thread(
            target=self._drain, name="svc-simulator", daemon=True
        )
        self._worker.start()

    # -- the request loop -----------------------------------------------------
    def query(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one query document (hit / pending / failed).

        A miss is held for up to :data:`MISS_HOLD_S` while the drain
        thread simulates it, so a small one answers ``hit`` here.
        Raises :class:`ServiceError` for malformed documents; only
        well-formed queries count toward the SLO stats.
        """
        started_s = self.clock()
        with self.tracer.span("svc.query", cat="svc") as span:
            spec = spec_for_query(doc)
            answer = self._answer(spec)
            span.set(unit=spec.unit_hash, status=answer["status"])
        return self._observed(answer, started_s)

    def result(self, ticket: str) -> Dict[str, Any]:
        """Redeem a pending ticket (the unit hash a miss returned),
        holding the reply like :meth:`query` while the unit is in
        flight."""
        started_s = self.clock()
        with self.tracer.span("svc.result", cat="svc", unit=ticket) as span:
            answer = self._held(self._lookup(str(ticket)))
            span.set(status=answer["status"])
        return self._observed(answer, started_s, counter="svc.redeems")

    def _observed(
        self,
        answer: Dict[str, Any],
        started_s: float,
        counter: str = "svc.queries",
    ) -> Dict[str, Any]:
        """Stamp one answer into the SLO stats (under the lock —
        queries arrive from concurrent HTTP handler threads)."""
        elapsed_s = self.clock() - started_s
        with self._lock:
            self._latencies_s.append(float(elapsed_s))
            self._total_s += elapsed_s
            self._counters[counter] += 1
            self._counters[f"svc.answer.{answer['status']}"] += 1
        answer["answer_latency_s"] = elapsed_s
        return answer

    def _answer(self, spec: UnitSpec) -> Dict[str, Any]:
        """Resolve one unit against the store; enqueue on a miss."""
        answer = self._lookup(spec.unit_hash, spec)
        if answer["status"] == "pending" and not answer["queued"]:
            answer["queued"] = self._enqueue(spec)
        return self._held(answer, spec)

    def _held(
        self, answer: Dict[str, Any], spec: Optional[UnitSpec] = None
    ) -> Dict[str, Any]:
        """Hold a ``pending`` reply whose unit is in flight until the
        drain thread lands (or drops) it, then look the unit up again;
        after :data:`MISS_HOLD_S` the reply stays ``pending``."""
        if not answer.get("queued"):
            return answer
        with self._lock:
            landed = self._inflight.get(answer["unit"])
        if landed is not None and not landed.wait(MISS_HOLD_S):
            with self._lock:
                self._counters["svc.hold_expired"] += 1
            return answer
        return self._lookup(answer["unit"], spec)

    def _lookup(
        self, unit_hash: str, spec: Optional[UnitSpec] = None
    ) -> Dict[str, Any]:
        record = self.store.get(unit_hash)
        base: Dict[str, Any] = {"unit": unit_hash, "ticket": unit_hash}
        if spec is not None:
            base["spec"] = spec.as_dict()
        if record is not None and record.ok:
            self.tracer.event("svc.hit", cat="svc", unit=unit_hash)
            return {"status": "hit", **base, "result": dict(record.result)}
        if record is not None:
            # A persisted failure: report it instead of re-simulating a
            # known-poisonous unit (its retry budget is already spent).
            return {
                "status": "failed",
                **base,
                "error": record.failure_reason,
                "attempts": record.attempts,
            }
        with self._lock:
            queued = unit_hash in self._inflight
        return {"status": "pending", **base, "queued": queued}

    # -- the background simulator ---------------------------------------------
    def _enqueue(self, spec: UnitSpec) -> bool:
        """Hand a missed unit to the simulator (dedup against in-flight)."""
        with self._lock:
            if self._closed or spec.unit_hash in self._inflight:
                return spec.unit_hash in self._inflight
            self._inflight[spec.unit_hash] = threading.Event()
        try:
            self._queue.put_nowait(spec)
        except queue.Full:
            with self._lock:
                landed = self._inflight.pop(spec.unit_hash)
                self._counters["svc.queue_full"] += 1
            landed.set()  # wake any duplicate already holding on it
            return False
        self.tracer.event("svc.enqueue", cat="svc", unit=spec.unit_hash)
        return True

    def _drain(self) -> None:
        """Worker loop: simulate misses through ``run_campaign``.

        One unit per campaign, so the whole failure-domain machinery —
        retry budget, failure records, quarantine — applies unchanged;
        the store's lease protocol keeps racing services (or a
        concurrent ``campaign run``) from executing a unit twice.
        """
        while True:
            spec = self._queue.get()
            if spec is None:
                self._queue.task_done()
                return
            try:
                with self.tracer.span(
                    "svc.simulate", cat="svc", unit=spec.unit_hash
                ):
                    run_campaign(
                        CampaignSpec(
                            name=f"svc-{spec.unit_hash}",
                            seed=spec.seed,
                            units=(spec,),
                        ),
                        store=self.store,
                        retries=self.retries,
                    )
            except Exception as exc:  # the service must outlive any unit
                self.tracer.event(
                    "svc.error", cat="svc", unit=spec.unit_hash,
                    error=repr(exc),
                )
                with self._lock:
                    self._counters["svc.simulate_errors"] += 1
            finally:
                with self._lock:
                    landed = self._inflight.pop(spec.unit_hash)
                landed.set()  # release the replies held on this unit
                self._queue.task_done()

    def wait_idle(self, timeout_s: float = 60.0) -> bool:
        """Block until every enqueued miss has been simulated.

        Test/CI plumbing only — it polls real thread progress (this is
        about scheduler state, not service time, so the injected clock
        deliberately plays no part).  Returns ``False`` on timeout.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                busy = bool(self._inflight)
            if not busy and self._queue.unfinished_tasks == 0:
                return True
            time.sleep(0.01)
        return False

    # -- introspection ----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The SLO document: answer counts plus exact p50/p95/p99.

        Every answer latency is kept verbatim, so the percentiles are
        exact nearest-rank order statistics.  Only the copy happens
        under the lock; the sort runs outside it.
        """
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            latencies = list(self._latencies_s)
            total_s = self._total_s
            inflight = len(self._inflight)
        count = len(latencies)
        doc: Dict[str, Any] = {
            "answers": count,
            "counters": counters,
            "inflight": inflight,
        }
        if count:
            latencies.sort()
            doc["answer_latency_s"] = {
                "count": count,
                "mean": total_s / count,
                "p50": nearest_rank(latencies, 0.50),
                "p95": nearest_rank(latencies, 0.95),
                "p99": nearest_rank(latencies, 0.99),
            }
        return doc

    def status(self) -> Dict[str, Any]:
        """Liveness/identity document (also the health check)."""
        with self._lock:
            inflight = len(self._inflight)
            closed = self._closed
        return {
            "ok": True,
            "service": "estimator",
            "backend": self.store.backend,
            "store": str(self.store.path),
            "engine": broadcast_engine(),
            "retries": self.retries,
            "inflight": inflight,
            "draining": closed,
            "uptime_s": self.clock() - self._started_s,
        }

    # -- lifecycle ----------------------------------------------------------------
    def close(self, timeout_s: float = 60.0) -> None:
        """Graceful drain: finish the in-flight unit, drop the queue.

        Queued-but-unstarted misses hold no leases (claims happen
        inside ``run_campaign``), so dropping them loses nothing — the
        tickets stay redeemable and a re-query re-enqueues.  Replies
        held on a dropped miss are released at once and answer
        ``pending`` with ``queued: false``.  The unit
        actually simulating finishes and releases its lease through
        the ordinary campaign path, so after ``close`` the store holds
        no lease of ours.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        dropped = 0
        while True:
            try:
                spec = self._queue.get_nowait()
            except queue.Empty:
                break
            if spec is not None:
                with self._lock:
                    landed = self._inflight.pop(spec.unit_hash)
                landed.set()
                dropped += 1
            self._queue.task_done()
        self._queue.put(None)
        self._worker.join(timeout=timeout_s)
        self.tracer.event("svc.drain", cat="svc", dropped=dropped)

    def __enter__(self) -> "EstimatorService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EstimatorService {self.store.describe()}>"


class EstimatorServer(JsonApiServer):
    """Serve one :class:`EstimatorService` over HTTP (``repro serve``).

    ========================  ======  =======================================
    endpoint                  method  service call
    ========================  ======  =======================================
    ``/v1/query``             POST    :meth:`EstimatorService.query`
    ``/v1/result?ticket=<h>`` GET     :meth:`EstimatorService.result`
    ``/v1/stats``             GET     :meth:`EstimatorService.stats`
    ``/v1/status``            GET     :meth:`EstimatorService.status`
    ``/v1/health``            GET     alias of ``/v1/status``
    ========================  ======  =======================================

    Status codes are :class:`~repro.campaigns.remote.JsonApiServer`'s:
    a malformed query (:class:`ServiceError`) or a missing ``ticket``
    replies 400, a store failure 500 so open-loop clients retry.

    Example::

        service = EstimatorService(open_store("campaigns/oracle.sqlite"))
        with EstimatorServer(service, port=0) as server:
            urlopen(f"{server.url}/v1/status")
        # __exit__ stops the listener and drains the service.
    """

    def __init__(
        self,
        service: EstimatorService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_SERVICE_PORT,
    ):
        self.service = service
        super().__init__(host, port, name="repro-estimator")

    def handle(
        self,
        op: str,
        payload: Dict[str, Any],
        query: Dict[str, str],
    ) -> Optional[Dict[str, Any]]:
        if op == "query":
            return self.service.query(payload)
        if op == "result":
            return self.service.result(query["ticket"])
        if op == "stats":
            return self.service.stats()
        if op in ("status", "health"):
            return self.service.status()
        return None

    def close(self) -> None:
        """Stop the listener, then drain the service (in that order:
        no new queries can arrive while the in-flight unit finishes)."""
        super().close()
        self.service.close()
