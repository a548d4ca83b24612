"""The ledger's span recorder: who called what, for how long.

Spans are recorded from the benchmark's own files, round the calls
into each layer's public functions — never from inside ``src/`` (the
repo's own ``--trace`` spools are a different, in-program mechanism and
are not used here).  A span is ``(name, start, end, parent, trace,
lane)``:

* ``name`` is ``<layer>.<operation>`` — the part before the first dot
  is the layer the time is charged to (``store.append`` → ``store``);
* ``parent`` is the index of the span that caused it;
* ``trace`` is one id per unit / query, shared by every span of it;
* ``lane`` numbers the recording thread.  Spans of one lane nest
  serially, so a lane's self times add up to its root exactly; a
  client thread's spans hang under the main lane's phase span (their
  causal parent) but are a lane of their own and never subtracted
  from it.

Self time is a span's duration minus the part of that interval its
same-lane children cover.  Everything is kept in memory and written
out once, at the end of the run.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["NULL_RECORDER", "Span", "SpanRecorder", "SpanStore"]


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]
    trace: Optional[str]
    lane: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class SpanRecorder:
    """In-memory span recorder; ``clock`` is injected (seconds)."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lanes: Dict[int, int] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        trace: Optional[str] = None,
        parent: Optional[Span] = None,
    ) -> Iterator[Optional[Span]]:
        """Record one span round the ``with`` body.

        ``parent`` is only for a thread's outermost span: it names the
        span (of another lane) that caused this lane's work.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        if trace is None and parent is not None:
            trace = parent.trace
        with self._lock:
            lane = self._lanes.setdefault(
                threading.get_ident(), len(self._lanes)
            )
            span = Span(
                index=len(self.spans),
                name=name,
                start=0.0,
                end=None,
                parent=None if parent is None else parent.index,
                trace=trace,
                lane=lane,
            )
            self.spans.append(span)
        stack.append(span)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()

    # ------------------------------------------------------------ analysis
    def children(self) -> Dict[Optional[int], List[Span]]:
        by_parent: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            by_parent.setdefault(span.parent, []).append(span)
        return by_parent

    def self_times(self) -> List[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        by_parent = self.children()
        out = []
        for span in self.spans:
            covered = 0.0
            edge = span.start
            kids = [
                k for k in by_parent.get(span.index, ()) if k.lane == span.lane
            ]
            for kid in sorted(kids, key=lambda k: k.start):
                lo = max(kid.start, edge)
                hi = min(kid.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(span.duration - covered)
        return out

    def self_by_layer(self, lane: Optional[int] = 0) -> Dict[str, float]:
        """Self time summed per layer (``lane=None`` → every lane)."""
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            if lane is None or span.lane == lane:
                totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals

    def count_by_layer(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.layer] = counts.get(span.layer, 0) + 1
        return counts

    def problems(self) -> List[str]:
        """Everything that makes the recorded forest ill-formed."""
        found = []
        for span in self.spans:
            if span.end is None:
                found.append(f"span {span.index} {span.name} never closed")
                continue
            if span.end < span.start:
                found.append(f"span {span.index} {span.name} ends before it starts")
            if span.parent is None:
                continue
            parent = self.spans[span.parent]
            if parent.end is None or not (
                parent.start <= span.start and span.end <= parent.end
            ):
                found.append(
                    f"span {span.index} {span.name} is not inside its"
                    f" parent {parent.index} {parent.name}"
                )
        for parent, kids in self.children().items():
            by_lane: Dict[int, List[Span]] = {}
            for kid in kids:
                by_lane.setdefault(kid.lane, []).append(kid)
            for lane_kids in by_lane.values():
                lane_kids.sort(key=lambda k: k.start)
                for a, b in zip(lane_kids, lane_kids[1:]):
                    if a.end is not None and b.start < a.end:
                        found.append(
                            f"siblings {a.index} {a.name} and {b.index}"
                            f" {b.name} overlap in lane {a.lane}"
                        )
        return found

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "index": s.index,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "trace": s.trace,
                "lane": s.lane,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({"clock": "perf_counter_s", "spans": rows}))


class _NullRecorder:
    """The untraced pass: same call sites, nothing recorded."""

    enabled = False

    @contextmanager
    def span(self, name, trace=None, parent=None):
        yield None


NULL_RECORDER = _NullRecorder()


class SpanStore:
    """A campaign store whose every call is a ``store.<op>`` span.

    Passed as ``store=`` in the traced pass so the pool's own store
    traffic lands in the ledger's trace without touching ``src/``.
    Worker processes get the bare inner store (spans stay in the
    harness process).
    """

    def __init__(self, inner, recorder):
        self.inner = inner
        self.recorder = recorder

    def __getstate__(self):
        return {"inner": self.inner, "recorder": NULL_RECORDER}

    def __setstate__(self, state):
        self.__dict__.update(state)

    @property
    def backend(self):
        return self.inner.backend

    @property
    def supports_leases(self):
        return self.inner.supports_leases

    @property
    def path(self):
        return self.inner.path

    def describe(self):
        return self.inner.describe()

    def _call(self, op, *args, trace=None, **kwargs):
        with self.recorder.span(f"store.{op}", trace=trace):
            return getattr(self.inner, op)(*args, **kwargs)

    def records(self):
        return self._call("records")

    def append(self, record):
        return self._call("append", record, trace=record.unit_hash)

    def extend(self, records):
        for record in records:
            self.append(record)

    def get(self, unit_hash):
        return self._call("get", unit_hash, trace=unit_hash)

    def completed_hashes(self):
        return self._call("completed_hashes")

    def records_for(self, spec):
        return self._call("records_for", spec)

    def try_claim(self, unit_hash, owner, ttl_s=120.0):
        return self._call("try_claim", unit_hash, owner, ttl_s=ttl_s, trace=unit_hash)

    def release(self, unit_hash, owner):
        return self._call("release", unit_hash, owner, trace=unit_hash)

    def leased_hashes(self):
        return self._call("leased_hashes")
