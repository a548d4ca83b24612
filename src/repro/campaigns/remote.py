"""Distributed campaign fabric: HTTP coordinator + network store client.

The :class:`~repro.campaigns.store.CampaignStore` contract was designed
for racing pools — content-hashed units, an advisory lease protocol,
idempotent merges — so distributing it is a *transport* refactor: this
module moves the same six operations (claim / heartbeat / append /
release / get / status) onto HTTP + JSON without touching a single
invariant.

Two halves:

:class:`CampaignCoordinator`
    A thin service wrapping any *local* backend (jsonl / sqlite /
    shared).  ``repro campaign serve --store campaigns/fig1.sqlite
    --port 8931`` exposes the store's operations as HTTP endpoints; the
    coordinator itself holds no campaign state beyond a *bounded*
    append-dedup window (capped, evicted oldest-first, so uptime never
    grows it without limit) — every record and lease lives in the
    backing store, so restarting the coordinator mid-campaign loses
    nothing (clients retry, then resume against the reborn service).
:class:`HttpStore`
    The client half: a full :class:`CampaignStore` whose ``path`` is a
    URL, so ``run_campaign``, ``--workers``, ``--shards auto``, lease
    heartbeats and ``campaign status`` all work unchanged against
    ``--store http://host:port``.  A fleet of hosts with nothing in
    common but that URL drains one campaign.

The coordinator's HTTP plumbing — ``/v1/<op>`` routing, body limits,
the exception-to-status map, the server lifecycle — is
:class:`JsonApiServer`, which ``repro serve``'s
:class:`~repro.service.estimator.EstimatorServer` builds on too.

Failure semantics (the part a network transport adds):

* **Bounded retry with exponential backoff.**  Every call retries
  transient failures (connection refused/reset, timeouts, 5xx) up to
  ``retries`` times, sleeping ``backoff_s * 2**attempt`` between
  attempts, then raises :class:`StoreUnreachableError`.
* **Idempotent mutations.**  ``claim`` and ``release`` are idempotent
  by the lease protocol itself: re-claiming one's own live lease is a
  refresh, re-releasing is a no-op, and a stale release retried after
  a peer stole the lease leaves the peer's lease intact — all pinned
  across every backend by the ``StoreContract`` conformance suite, so
  retrying either after an *ambiguous* failure (the first attempt
  landed server-side but the response was lost) is always safe.
  ``append`` carries an idempotency key — the content hash
  of the full record — and the coordinator drops any append whose key
  it has already applied, so a retried (or network-duplicated) append
  can never double-land a record or double-merge a sharded parent.
* **Observability.**  Both sides emit ``rpc.*`` trace events
  (``rpc.claim``, ``rpc.append``, ``rpc.retry`` ...) through the
  :mod:`repro.obs.trace` machinery, so ``repro campaign trace`` and
  ``tools/check_trace.py`` see distributed runs exactly like local
  ones.

Example (one coordinator, two client pools)::

    # host C:
    #   repro campaign serve --store campaigns/fig1-full-s0.sqlite \\
    #       --host 0.0.0.0 --port 8931
    # hosts A and B, simultaneously:
    #   repro campaign run fig1 --scale full --workers 8 \\
    #       --store http://hostC:8931
    # anywhere:
    #   repro campaign status fig1 --scale full --store http://hostC:8931

See ``docs/campaigns.md`` ("Distributed campaigns") for the coordinator
lifecycle, the retry/idempotency semantics and the failure matrix.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Set
from urllib import request as _urlrequest
from urllib.error import HTTPError, URLError
from urllib.parse import parse_qs, quote, urlsplit

from repro.campaigns.store import (
    DEFAULT_LEASE_TTL_S,
    CampaignStore,
    UnitRecord,
)
from repro.obs.trace import NULL_TRACER

__all__ = [
    "API_PREFIX",
    "DEFAULT_DEDUP_CAP",
    "DEFAULT_PORT",
    "StoreUnreachableError",
    "StoreProtocolError",
    "record_content_hash",
    "MAX_BODY_BYTES",
    "RequestBodyError",
    "read_json_body",
    "JsonApiServer",
    "CampaignCoordinator",
    "HttpStore",
]

#: URL prefix of every endpoint of both servers (versioned so a future
#: protocol change can serve both generations side by side).
API_PREFIX = "/v1"

#: Conventional coordinator port (``repro campaign serve`` default).
DEFAULT_PORT = 8931

#: Client retry policy defaults: up to 5 attempts, sleeping
#: ``backoff * 2**attempt`` between them (~1.5 s worst case).
DEFAULT_RETRIES = 5
DEFAULT_BACKOFF_S = 0.05
DEFAULT_TIMEOUT_S = 30.0

#: How many append idempotency keys the coordinator remembers.  The
#: dedup window only needs to outlive one client's retry burst (a few
#: seconds), so a few hundred thousand *recent* keys is orders of
#: magnitude more history than any retry needs, while bounding the
#: coordinator's memory under an unbounded append stream (a long-lived
#: service enqueueing simulations for months).  Keys past the cap are
#: evicted oldest-first; a duplicate arriving after eviction merely
#: re-appends, which every backend absorbs via last-record-wins.
DEFAULT_DEDUP_CAP = 262_144


class StoreUnreachableError(RuntimeError):
    """The coordinator could not be reached (after bounded retries)."""


class StoreProtocolError(RuntimeError):
    """The coordinator answered, but not with a valid protocol reply."""


def record_content_hash(record: Dict[str, Any]) -> str:
    """Idempotency key for one record: the hash of its full content.

    The unit hash already content-addresses the *spec*; this also
    covers the result and elapsed time, so two byte-identical appends
    (a retry, a proxy duplication) share a key while a genuine
    re-execution of the same unit (different ``elapsed_s``) does not —
    the latter must still reach the store, where last-record-wins
    keeps it harmless.
    """
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


#: Largest request body either HTTP front reads (a unit record is
#: kilobytes; this bounds what one request can make the server buffer).
MAX_BODY_BYTES = 16 * 1024 * 1024


class RequestBodyError(ValueError):
    """A POST body the server refuses, with the HTTP status to reply."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def read_json_body(handler: BaseHTTPRequestHandler) -> Dict[str, Any]:
    """Read and decode a request's JSON-object body (``{}`` if absent).

    Shared by the coordinator and ``repro serve`` handlers.  Raises
    :class:`RequestBodyError`: 400 for a malformed or negative
    ``Content-Length`` or a body that is not a JSON object, 413 for a
    length above :data:`MAX_BODY_BYTES`.  A bad length is refused
    without reading the body, so the handler closes the connection
    rather than parse the unread bytes as the next request.
    """
    try:
        length = int(handler.headers.get("Content-Length", 0))
    except ValueError:
        length = -1
    if length < 0:
        handler.close_connection = True
        raise RequestBodyError(400, "malformed Content-Length")
    if length > MAX_BODY_BYTES:
        handler.close_connection = True
        raise RequestBodyError(
            413, f"request body exceeds {MAX_BODY_BYTES} bytes"
        )
    raw = handler.rfile.read(length) if length else b"{}"
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError:
        raise RequestBodyError(400, "request body is not valid JSON") from None
    if not isinstance(payload, dict):
        raise RequestBodyError(400, "request body must be a JSON object")
    return payload


# --------------------------------------------------------------------------
# The JSON API front (shared by the coordinator and ``repro serve``)
# --------------------------------------------------------------------------
class _JsonApiHandler(BaseHTTPRequestHandler):
    """Request handler: routes ``/v1/<op>`` to the server's ``handle``."""

    protocol_version = "HTTP/1.1"

    def version_string(self) -> str:
        api = self.server.api  # type: ignore[attr-defined]
        return f"{api.name}/1 {self.sys_version}"

    def log_message(self, fmt: str, *args: Any) -> None:  # pragma: no cover
        pass  # rpc/svc events go to the server's tracer, not stderr

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, payload: Dict[str, Any]) -> None:
        api: "JsonApiServer" = self.server.api  # type: ignore[attr-defined]
        split = urlsplit(self.path)
        if not split.path.startswith(API_PREFIX + "/"):
            self._reply(404, {"error": f"unknown path {split.path!r}"})
            return
        op = split.path[len(API_PREFIX) + 1 :]
        query = {
            key: values[0] for key, values in parse_qs(split.query).items()
        }
        try:
            result = api.handle(op, payload, query)
        except KeyError as exc:
            self._reply(400, {"error": f"missing field {exc}"})
        except ValueError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # store hiccup: clients retry on 5xx
            self._reply(500, {"error": repr(exc)})
        else:
            if result is None:
                self._reply(404, {"error": f"unknown operation {op!r}"})
            else:
                self._reply(200, result)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch({})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            payload = read_json_body(self)
        except RequestBodyError as exc:
            self._reply(exc.status, {"error": str(exc)})
            return
        self._dispatch(payload)


class JsonApiServer:
    """Threaded JSON-over-HTTP server: ``/v1/<op>`` → :meth:`handle`.

    The one HTTP front of both long-running processes: the campaign
    coordinator and the live estimator subclass it and supply only
    :meth:`handle`.  A GET carries an empty payload, a POST its JSON
    object body (:func:`read_json_body`).  Status codes:

    * 200 — ``handle`` returned a reply document;
    * 404 — a path outside ``/v1/``, or ``handle`` returned ``None``
      (unknown operation);
    * 400 — ``handle`` raised ``KeyError`` (a missing field) or
      ``ValueError`` (a malformed request, ``ServiceError`` included),
      or the body was malformed (413 when oversized);
    * 500 — anything else, e.g. a backing-store hiccup, which the
      clients retry.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, name: str = "repro"
    ):
        self.name = name
        self._server = ThreadingHTTPServer((host, port), _JsonApiHandler)
        self._server.daemon_threads = True
        self._server.api = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    def handle(
        self,
        op: str,
        payload: Dict[str, Any],
        query: Dict[str, str],
    ) -> Optional[Dict[str, Any]]:
        """The reply to one ``/v1/<op>`` request (``None``: unknown op)."""
        return None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "JsonApiServer":
        """Serve from a daemon thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name=self.name,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        self._server.serve_forever(poll_interval=0.2)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "JsonApiServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# --------------------------------------------------------------------------
# Coordinator (server half)
# --------------------------------------------------------------------------
class CampaignCoordinator(JsonApiServer):
    """Serve a local campaign store's operations over HTTP.

    The coordinator is deliberately thin: every operation maps 1:1 to
    the backing store's method under one lock (the store is the single
    source of truth; the lock only serialises backends — like a shared
    JSONL file — that were never meant for concurrent writers).  The
    only coordinator-side state is the append-dedup window — bounded
    at ``dedup_cap`` recent idempotency keys (evicted oldest-first, so
    months of uptime cannot grow it; ``/v1/status`` reports the cap,
    current size and eviction count) — and losing entries (eviction or
    a restart) is safe: the backends themselves key records by unit
    hash with last-record-wins, so a replayed append past the window
    is redundant, never corrupting.

    Example::

        coordinator = CampaignCoordinator(open_store("c.sqlite"), port=0)
        coordinator.start()                 # background thread
        store = HttpStore(coordinator.url)  # any number of clients
        ...
        coordinator.close()
    """

    def __init__(
        self,
        store: CampaignStore,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer: Any = NULL_TRACER,
        dedup_cap: int = DEFAULT_DEDUP_CAP,
    ):
        if getattr(store, "is_remote", False):
            raise ValueError(
                "a coordinator must wrap a local backend, not another"
                " coordinator's URL"
            )
        if dedup_cap < 1:
            raise ValueError("dedup_cap must be >= 1")
        self.store = store
        self.tracer = tracer
        self.dedup_cap = int(dedup_cap)
        self._lock = threading.Lock()
        # Insertion-ordered so eviction is oldest-first: the structure
        # is a bounded window of *recent* append keys, not a full
        # history — see DEFAULT_DEDUP_CAP for why that is enough.
        self._applied_appends: "OrderedDict[str, None]" = OrderedDict()
        self._dedup_evicted = 0
        self._requests = 0
        self._deduped = 0
        super().__init__(host, port, name="repro-coordinator")

    def handle(
        self,
        op: str,
        payload: Dict[str, Any],
        query: Dict[str, str],
    ) -> Optional[Dict[str, Any]]:
        """Apply one protocol operation to the backing store.

        Returns the JSON-serialisable reply, or ``None`` for an unknown
        operation (the handler turns that into a 404).
        """
        with self._lock:
            self._requests += 1
            if op == "claim":
                granted = self.store.try_claim(
                    payload["unit_hash"],
                    payload["owner"],
                    ttl_s=float(payload.get("ttl_s", DEFAULT_LEASE_TTL_S)),
                )
                self.tracer.event(
                    "rpc.claim",
                    cat="rpc",
                    op="claim",
                    unit=payload["unit_hash"],
                    granted=granted,
                )
                return {"granted": granted}
            if op == "release":
                self.store.release(payload["unit_hash"], payload["owner"])
                self.tracer.event(
                    "rpc.release",
                    cat="rpc",
                    op="release",
                    unit=payload["unit_hash"],
                )
                return {"ok": True}
            if op == "append":
                record = payload["record"]
                if not isinstance(record, dict):
                    raise ValueError("'record' must be a JSON object")
                key = payload.get("idempotency_key") or record_content_hash(
                    record
                )
                deduped = key in self._applied_appends
                if not deduped:
                    self.store.append(UnitRecord.from_dict(record))
                    self._applied_appends[key] = None
                    while len(self._applied_appends) > self.dedup_cap:
                        self._applied_appends.popitem(last=False)
                        self._dedup_evicted += 1
                else:
                    self._deduped += 1
                self.tracer.event(
                    "rpc.append",
                    cat="rpc",
                    op="append",
                    unit=record.get("unit_hash"),
                    deduped=deduped,
                )
                return {"ok": True, "deduped": deduped}
            if op == "record":
                record = self.store.get(query["unit"])
                return {
                    "record": None if record is None else record.to_dict()
                }
            if op == "records":
                return {
                    "records": [
                        r.to_dict() for r in self.store.records().values()
                    ]
                }
            if op == "hashes":
                return {"hashes": sorted(self.store.completed_hashes())}
            if op == "leases":
                return {"leased": sorted(self.store.leased_hashes())}
            if op in ("status", "health"):
                # Failure records relay through append/record/records
                # like any other record (status rides in the payload);
                # "records" counts only completed units, "failed" the
                # persisted failure records awaiting retry/quarantine.
                stored = self.store.records()
                return {
                    "ok": True,
                    "backend": self.store.backend,
                    "store": str(self.store.path),
                    "records": sum(1 for r in stored.values() if r.ok),
                    "failed": sum(1 for r in stored.values() if r.failed),
                    "leased": len(self.store.leased_hashes()),
                    "requests": self._requests,
                    "appends_deduped": self._deduped,
                    "appends_dedup_cap": self.dedup_cap,
                    "appends_dedup_size": len(self._applied_appends),
                    "appends_dedup_evicted": self._dedup_evicted,
                }
            return None


# --------------------------------------------------------------------------
# HttpStore (client half)
# --------------------------------------------------------------------------
class HttpStore(CampaignStore):
    """Campaign store client for a :class:`CampaignCoordinator` URL.

    Implements the full :class:`CampaignStore` contract — including
    leases, which the *backing* store behind the coordinator
    arbitrates — so pools, heartbeats, shard merges and status
    reporting run unchanged.  Instances are picklable (workers get
    their own copy; the tracer, which holds file handles, is dropped
    across the boundary and re-attached by the worker).

    Example::

        store = HttpStore("http://hostC:8931")
        run_campaign(spec, workers=8, store=store)
    """

    backend = "http"
    supports_leases = True
    #: remote stores have no local filesystem footprint — the CLI uses
    #: this to route trace spools and defaults somewhere writable.
    is_remote = True

    def __init__(
        self,
        url: str,
        *,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        tracer: Any = NULL_TRACER,
    ):
        url = str(url).rstrip("/")
        split = urlsplit(url)
        if split.scheme not in ("http", "https") or not split.netloc:
            raise ValueError(
                f"HttpStore needs an http(s)://host:port URL, got {url!r}"
            )
        self.url = url
        #: displayed wherever local stores show their filesystem path.
        self.path = url  # type: ignore[assignment]
        self.retries = max(1, int(retries))
        self.backoff_s = float(backoff_s)
        self.timeout_s = float(timeout_s)
        self.tracer = tracer

    # -- plumbing ------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["tracer"] = None  # file handles never cross processes
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        if self.tracer is None:
            self.tracer = NULL_TRACER

    def set_tracer(self, tracer: Any) -> None:
        """Attach the calling process's tracer (rpc events land there)."""
        self.tracer = tracer

    def describe(self) -> str:
        return f"http:{self.url}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HttpStore {self.url}>"

    def _call(
        self,
        op: str,
        payload: Optional[Dict[str, Any]] = None,
        query: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        """One coordinator round trip with bounded retry + backoff.

        Only *transient* failures retry (connection errors, timeouts,
        5xx); a 4xx means the request itself is malformed and raises
        :class:`StoreProtocolError` immediately.  Every mutating
        operation this client issues is idempotent (see the module
        docstring), so retrying after an ambiguous failure — the
        request may or may not have been applied — is always safe.
        """
        url = f"{self.url}{API_PREFIX}/{op}"
        if query:
            url += "?" + "&".join(
                f"{key}={quote(value)}" for key, value in sorted(query.items())
            )
        body = None
        method = "GET"
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode()
            method = "POST"
        last_error: Optional[BaseException] = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            req = _urlrequest.Request(
                url,
                data=body,
                method=method,
                headers={"Content-Type": "application/json"},
            )
            try:
                with _urlrequest.urlopen(req, timeout=self.timeout_s) as resp:
                    doc = json.loads(resp.read().decode("utf-8"))
            except HTTPError as exc:
                if exc.code < 500:
                    raise StoreProtocolError(
                        f"coordinator at {self.url} rejected {op}:"
                        f" HTTP {exc.code} {_error_detail(exc)}"
                    ) from exc
                last_error = exc
            except (URLError, OSError, ValueError) as exc:
                # URLError covers refused/reset/timeout; ValueError a
                # torn JSON body from a dying server.
                last_error = exc
            else:
                if not isinstance(doc, dict):
                    raise StoreProtocolError(
                        f"coordinator at {self.url} returned a"
                        f" non-object reply for {op}"
                    )
                return doc
            self.tracer.event(
                "rpc.retry",
                cat="rpc",
                op=op,
                attempt=attempt + 1,
                error=repr(last_error),
            )
        raise StoreUnreachableError(
            f"campaign coordinator at {self.url} is unreachable"
            f" ({op} failed after {self.retries} attempt(s):"
            f" {last_error!r}); is `repro campaign serve` running?"
        )

    # -- records -------------------------------------------------------------
    def records(self) -> Dict[str, UnitRecord]:
        doc = self._call("records")
        self.tracer.event(
            "rpc.records", cat="rpc", op="records", count=len(doc["records"])
        )
        return {
            record["unit_hash"]: UnitRecord.from_dict(record)
            for record in doc["records"]
        }

    def get(self, unit_hash: str) -> Optional[UnitRecord]:
        doc = self._call("record", query={"unit": unit_hash})
        self.tracer.event(
            "rpc.get",
            cat="rpc",
            op="get",
            unit=unit_hash,
            hit=doc["record"] is not None,
        )
        if doc["record"] is None:
            return None
        return UnitRecord.from_dict(doc["record"])

    def completed_hashes(self) -> Set[str]:
        return set(self._call("hashes")["hashes"])

    def append(self, record: UnitRecord) -> None:
        payload = record.to_dict()
        doc = self._call(
            "append",
            payload={
                "record": payload,
                "idempotency_key": record_content_hash(payload),
            },
        )
        self.tracer.event(
            "rpc.append",
            cat="rpc",
            op="append",
            unit=record.unit_hash,
            deduped=bool(doc.get("deduped")),
        )

    # -- leases --------------------------------------------------------------
    def try_claim(
        self, unit_hash: str, owner: str, ttl_s: float = DEFAULT_LEASE_TTL_S
    ) -> bool:
        doc = self._call(
            "claim",
            payload={"unit_hash": unit_hash, "owner": owner, "ttl_s": ttl_s},
        )
        granted = bool(doc["granted"])
        self.tracer.event(
            "rpc.claim", cat="rpc", op="claim", unit=unit_hash, granted=granted
        )
        return granted

    def release(self, unit_hash: str, owner: str) -> None:
        self._call(
            "release", payload={"unit_hash": unit_hash, "owner": owner}
        )
        self.tracer.event(
            "rpc.release", cat="rpc", op="release", unit=unit_hash
        )

    def leased_hashes(self) -> Set[str]:
        return set(self._call("leases")["leased"])

    # -- service introspection ----------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The coordinator's live status document (also a health check)."""
        return self._call("status")


def _error_detail(exc: HTTPError) -> str:
    """The server's JSON error message, when one is readable."""
    try:
        doc = json.loads(exc.read().decode("utf-8"))
        return str(doc.get("error", ""))
    except Exception:  # pragma: no cover - opaque 4xx body
        return ""
