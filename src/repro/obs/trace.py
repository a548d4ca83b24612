"""Span-based tracing for campaigns, units, shards and merges.

A :class:`Tracer` records *spans* (named intervals with arguments) and
*instant events* into a sink, one JSON object per line.  The campaign
pool opens one tracer per process — the coordinating pool and every
worker write their own file into a shared spool directory next to the
campaign store — and :func:`export_chrome_trace` stitches the files
into a single Chrome-trace-event JSON that Perfetto and
``chrome://tracing`` load directly.

Design rules:

* **Zero overhead when disabled.**  :data:`NULL_TRACER` is the default
  everywhere; its ``span()`` returns a shared no-op context manager
  and its ``event()`` does nothing, so untraced runs allocate no span
  objects and write no bytes.
* **Injected clocks.**  Wall time comes from the ``clock`` callable
  given at construction (default :func:`time.monotonic`, which on
  Linux is system-wide — every worker shares the same origin, so
  cross-process spans line up).  Simulation time is never read here:
  callers that want it pass ``env.now`` as an ordinary span argument.
  ``time.time()`` is deliberately never used in span logic — a
  stepped wall clock would shear spans apart.
* **Crash-tolerant files.**  Sinks append one line per record under a
  lock (the lease heartbeat thread traces concurrently with the pool
  loop); readers skip torn trailing lines, so a killed worker's spool
  is still loadable.

Record schema (one JSON object per line)::

    {"type": "meta",  "role": ..., "pid": ..., "schema": 1, "ts_s": ...}
    {"type": "span",  "name": ..., "cat": ..., "id": ..., "parent": ...,
     "pid": ..., "tid": ..., "start_s": ..., "end_s": ..., "args": {...}}
    {"type": "event", "name": ..., "cat": ..., "parent": ...,
     "pid": ..., "tid": ..., "ts_s": ..., "args": {...}}

See ``docs/observability.md`` for the span model and a Perfetto
walk-through.
"""

from __future__ import annotations

import json
import os
import threading
import time
from itertools import count
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

__all__ = [
    "TRACE_SCHEMA",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "Sink",
    "JsonlSink",
    "ListSink",
    "trace_dir_for",
    "read_trace_file",
    "read_trace_dir",
    "export_chrome_trace",
    "summarize_trace",
]

#: Version stamp written into every file's ``meta`` record.
TRACE_SCHEMA = 1


# --------------------------------------------------------------------------
# The disabled tracer: shared singletons, no allocation, no bytes.
# --------------------------------------------------------------------------
class _NullSpan:
    """The reusable no-op span handle (always the same object)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **args: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing tracer every producer uses by default.

    ``span()`` hands back one shared context manager and ``event()``
    returns immediately, so tracing call sites cost a method call and
    nothing else when tracing is off (``tests/test_obs_trace.py``
    holds that to *zero retained allocations*).
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, cat: str = "span", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, cat: str = "event", **args: Any) -> None:
        return None

    def close(self) -> None:
        return None


#: The process-wide disabled tracer.
NULL_TRACER = NullTracer()


# --------------------------------------------------------------------------
# Sinks
# --------------------------------------------------------------------------
class Sink:
    """Interface: something that accepts record dicts."""

    def write(self, record: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        return None


class JsonlSink(Sink):
    """Append records to a JSONL file, one compact object per line.

    The file is opened lazily on the first record and every write is
    serialised under a lock — the lease heartbeat thread emits events
    concurrently with the pool loop, and interleaved *lines* (rather
    than interleaved bytes) are what keeps the file loadable.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(line + "\n")
            # One flush per record: spans are per-unit (not per-event),
            # so this is cheap, and a worker torn down by pool shutdown
            # never loses buffered lines.
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class ListSink(Sink):
    """Collect records in memory (tests and the overhead probe)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)


# --------------------------------------------------------------------------
# The live tracer
# --------------------------------------------------------------------------
class Span:
    """An open span; close it by exiting the ``with`` block.

    Extra arguments attached with :meth:`set` land in the record's
    ``args``; an exception escaping the block stamps ``error`` before
    propagating.
    """

    __slots__ = ("_tracer", "name", "cat", "args", "id", "parent", "start_s")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        args: Dict[str, Any],
        span_id: int,
        parent: Optional[int],
    ):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.id = span_id
        self.parent = parent
        self.start_s = 0.0

    def set(self, **args: Any) -> "Span":
        """Attach (or overwrite) span arguments; chainable."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._stack_for_thread().append(self)
        self.start_s = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end_s = tracer.clock()
        stack = tracer._stack_for_thread()
        if stack and stack[-1] is self:
            stack.pop()
        if exc is not None:
            self.args["error"] = repr(exc)
        tracer._write_span(self, end_s)
        return False


class Tracer:
    """Records spans and events into a sink.

    Parameters
    ----------
    sink:
        Where records go (usually a :class:`JsonlSink`).
    role:
        Human label for this process's track (``pool``, ``worker``,
        ``main`` ...) — becomes the Perfetto process name.
    clock:
        Wall-clock callable; defaults to :func:`time.monotonic`.
        Injected so tests can drive deterministic timestamps.
    pid:
        Process id override (defaults to :func:`os.getpid`).
    """

    __slots__ = ("sink", "role", "clock", "pid", "_ids", "_local")

    enabled = True

    def __init__(
        self,
        sink: Sink,
        *,
        role: str = "main",
        clock: Callable[[], float] = time.monotonic,
        pid: Optional[int] = None,
    ):
        self.sink = sink
        self.role = role
        self.clock = clock
        self.pid = os.getpid() if pid is None else pid
        self._ids = count(1)
        self._local = threading.local()
        sink.write(
            {
                "type": "meta",
                "schema": TRACE_SCHEMA,
                "role": role,
                "pid": self.pid,
                "ts_s": self.clock(),
            }
        )

    # -- internals ----------------------------------------------------------
    def _stack_for_thread(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_id(self) -> Optional[int]:
        stack = self._stack_for_thread()
        return stack[-1].id if stack else None

    def _write_span(self, span: Span, end_s: float) -> None:
        self.sink.write(
            {
                "type": "span",
                "name": span.name,
                "cat": span.cat,
                "id": span.id,
                "parent": span.parent,
                "pid": self.pid,
                "tid": threading.get_ident(),
                "start_s": span.start_s,
                "end_s": end_s,
                "args": span.args,
            }
        )

    # -- API ----------------------------------------------------------------
    def span(self, name: str, cat: str = "span", **args: Any) -> Span:
        """Open a span (enter the returned context manager to start it)."""
        return Span(self, name, cat, args, next(self._ids), self._current_id())

    def event(self, name: str, cat: str = "event", **args: Any) -> None:
        """Record an instant event under the current span (if any)."""
        self.sink.write(
            {
                "type": "event",
                "name": name,
                "cat": cat,
                "parent": self._current_id(),
                "pid": self.pid,
                "tid": threading.get_ident(),
                "ts_s": self.clock(),
                "args": args,
            }
        )

    def close(self) -> None:
        self.sink.close()


# --------------------------------------------------------------------------
# Spool-directory layout
# --------------------------------------------------------------------------
def trace_dir_for(store_or_path: Any) -> Path:
    """The trace spool directory belonging to a campaign store.

    Directory-backed stores keep traces inside (``<store>/traces``);
    file-backed stores get a sibling directory (``<store>.traces``) so
    the spool always travels with the campaign it describes.  Remote
    stores (an ``http://host:port`` coordinator URL) have no local
    footprint, so their spool lands in the conventional campaigns/
    layout under a name derived from the coordinator address —
    deterministic, so ``campaign status`` finds what ``campaign run``
    spooled on the same machine.
    """
    raw = getattr(store_or_path, "path", store_or_path)
    text = str(raw)
    if text.startswith(("http://", "https://")):
        from urllib.parse import urlsplit

        address = urlsplit(text).netloc.replace(":", "-").replace("@", "-")
        return Path("campaigns") / f"remote-{address}.traces"
    path = Path(raw)
    if path.is_dir() or not path.suffix:
        return path / "traces"
    return path.with_name(path.name + ".traces")


def worker_trace_path(trace_dir: Union[str, Path], role: str, pid: int) -> Path:
    """Canonical spool file for one process (``<role>-<pid>.jsonl``)."""
    return Path(trace_dir) / f"{role}-{pid}.jsonl"


def read_trace_file(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load one spool file, skipping blank and torn trailing lines."""
    records: List[Dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn write from a killed process
            if isinstance(record, dict):
                records.append(record)
    return records


def read_trace_dir(trace_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load every ``*.jsonl`` spool file in a trace directory."""
    trace_dir = Path(trace_dir)
    records: List[Dict[str, Any]] = []
    for path in sorted(trace_dir.glob("*.jsonl")):
        records.extend(read_trace_file(path))
    return records


# --------------------------------------------------------------------------
# Export and summaries
# --------------------------------------------------------------------------
def export_chrome_trace(
    records: Iterable[Dict[str, Any]],
    path: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Convert spool records to the Chrome trace event format.

    Returns the document (``{"traceEvents": [...]}``) and writes it as
    JSON when ``path`` is given.  Spans become complete (``ph: "X"``)
    events, instants become ``ph: "i"``, and each process's ``meta``
    record becomes a ``process_name`` metadata event, so Perfetto
    shows one named track per pool/worker process.  Timestamps are
    re-based to the earliest record (µs since trace start).
    """
    records = list(records)
    stamps = [r["ts_s"] for r in records if "ts_s" in r]
    stamps += [r["start_s"] for r in records if "start_s" in r]
    origin = min(stamps) if stamps else 0.0

    events: List[Dict[str, Any]] = []
    named_pids = set()
    for record in records:
        kind = record.get("type")
        pid = record.get("pid", 0)
        if kind == "meta":
            if pid not in named_pids:
                named_pids.add(pid)
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": f"{record.get('role', 'proc')}/{pid}"},
                    }
                )
        elif kind == "span":
            events.append(
                {
                    "name": record["name"],
                    "cat": record.get("cat", "span"),
                    "ph": "X",
                    "pid": pid,
                    "tid": record.get("tid", 0),
                    "ts": (record["start_s"] - origin) * 1e6,
                    "dur": max(0.0, (record["end_s"] - record["start_s"]) * 1e6),
                    "args": record.get("args", {}),
                }
            )
        elif kind == "event":
            events.append(
                {
                    "name": record["name"],
                    "cat": record.get("cat", "event"),
                    "ph": "i",
                    "s": "p",
                    "pid": pid,
                    "tid": record.get("tid", 0),
                    "ts": (record["ts_s"] - origin) * 1e6,
                    "args": record.get("args", {}),
                }
            )
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")
    return document


def summarize_trace(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a record stream for human display.

    Returns overall counts plus a per-unit timing table: for every
    ``unit`` argument seen on a span, the summed span duration by span
    name (``unit.execute``, ``unit.merge`` ...) and the claim-to-start
    queueing delay when both sides are present.  Failure-domain events
    (``unit.error`` / ``unit.retry`` / ``unit.quarantine`` /
    ``pool.respawn`` / ``campaign.interrupt``) are tallied under
    ``failures`` so a traced run's fault history is one glance away.
    """
    spans = events = 0
    pids = set()
    roles: Dict[int, str] = {}
    t_lo = float("inf")
    t_hi = float("-inf")
    units: Dict[str, Dict[str, Any]] = {}
    claims: Dict[str, float] = {}
    rpc: Dict[str, int] = {}
    failures: Dict[str, int] = {}
    _FAILURE_EVENTS = (
        "unit.error",
        "unit.retry",
        "unit.quarantine",
        "pool.respawn",
        "campaign.interrupt",
    )

    for record in records:
        kind = record.get("type")
        if "pid" in record:
            pids.add(record["pid"])
        if kind == "meta":
            roles[record["pid"]] = record.get("role", "proc")
        elif kind == "span":
            spans += 1
            t_lo = min(t_lo, record["start_s"])
            t_hi = max(t_hi, record["end_s"])
            unit = record.get("args", {}).get("unit")
            if unit is not None:
                entry = units.setdefault(unit, {"spans": {}})
                name = record["name"]
                entry["spans"][name] = (
                    entry["spans"].get(name, 0.0)
                    + record["end_s"]
                    - record["start_s"]
                )
                if name == "unit.execute":
                    entry.setdefault("started_s", record["start_s"])
        elif kind == "event":
            events += 1
            t_lo = min(t_lo, record["ts_s"])
            t_hi = max(t_hi, record["ts_s"])
            args = record.get("args", {})
            if record.get("cat") == "rpc":
                name = record["name"]
                rpc[name] = rpc.get(name, 0) + 1
            if record["name"] in _FAILURE_EVENTS:
                name = record["name"]
                failures[name] = failures.get(name, 0) + 1
            unit = args.get("unit")
            if unit is not None and record["name"] == "lease.claim":
                # The earliest claim, not the first one read: a pool that
                # absorbs a peer's landed record logs a late claim too,
                # and its spool file may sort first.
                ts = record["ts_s"]
                claims[unit] = min(ts, claims.get(unit, ts))

    for unit, claimed_s in claims.items():
        entry = units.get(unit)
        if entry and "started_s" in entry:
            entry["queued_s"] = max(0.0, entry["started_s"] - claimed_s)
        elif entry is None:
            units[unit] = {"spans": {}}

    for entry in units.values():
        entry.pop("started_s", None)

    return {
        "spans": spans,
        "events": events,
        "processes": {pid: roles.get(pid, "proc") for pid in sorted(pids)},
        "wall_s": (t_hi - t_lo) if spans + events else 0.0,
        "units": units,
        #: per-name counts of rpc.* events; empty for local-only runs.
        "rpc": rpc,
        #: per-name counts of failure-domain events (unit.error,
        #: unit.retry, unit.quarantine, pool.respawn,
        #: campaign.interrupt); empty for fault-free runs.
        "failures": failures,
    }
