"""The tracing subsystem: spans, sinks, export, and the no-op contract.

Covers the promises `repro.obs.trace` documents — zero overhead when
disabled, injected clocks, crash-tolerant spool files — plus the
producer-side behaviours that ride on them: the lease heartbeat's
failure surfacing and the always-on kernel profile counters.
"""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    TRACE_SCHEMA,
    JsonlSink,
    ListSink,
    Tracer,
    export_chrome_trace,
    read_trace_dir,
    read_trace_file,
    summarize_trace,
    trace_dir_for,
    worker_trace_path,
)


class FakeClock:
    """Deterministic injected clock: each call advances by ``step``."""

    def __init__(self, start=100.0, step=0.5):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def tracer_with_sink(**kwargs):
    sink = ListSink()
    return Tracer(sink, clock=FakeClock(), pid=7, **kwargs), sink


# ------------------------------------------------------------- no-op path
def test_null_tracer_is_shared_and_allocation_free():
    # The disabled span handle is one shared object, not a fresh
    # context manager per call.
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b", cat="x", unit="u")
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.event("e", unit="u") is None
    assert NULL_TRACER.close() is None
    with NULL_TRACER.span("a") as span:
        assert span.set(extra=1) is span

    # Zero *retained* allocations across a producer-shaped loop: what
    # "tracing off costs a method call and nothing else" means.
    def produce():
        for i in range(1000):
            with NULL_TRACER.span("unit.execute", cat="unit", unit="h"):
                NULL_TRACER.event("lease.claim", unit="h", index=i)

    produce()  # warm up code objects, caches
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    produce()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    growth = sum(
        d.size_diff for d in after.compare_to(before, "filename")
        if d.size_diff > 0 and "tracemalloc" not in str(d.traceback)
    )
    assert growth == 0


# ------------------------------------------------------------ live tracer
def test_tracer_records_meta_spans_events_and_nesting():
    tracer, sink = tracer_with_sink(role="pool")

    meta = sink.records[0]
    assert meta["type"] == "meta"
    assert meta["schema"] == TRACE_SCHEMA
    assert (meta["role"], meta["pid"]) == ("pool", 7)

    with tracer.span("campaign", cat="campaign", campaign="fig1") as outer:
        tracer.event("lease.claim", cat="lease", unit="abc")
        with tracer.span("unit.execute", cat="unit", unit="abc") as inner:
            inner.set(kind="broadcast")
        outer.set(units=1)

    events = [r for r in sink.records if r["type"] == "event"]
    spans = {r["name"]: r for r in sink.records if r["type"] == "span"}
    assert events[0]["parent"] == spans["campaign"]["id"]
    assert spans["unit.execute"]["parent"] == spans["campaign"]["id"]
    assert spans["campaign"]["parent"] is None
    assert spans["unit.execute"]["args"] == {"unit": "abc", "kind": "broadcast"}
    assert spans["campaign"]["args"] == {"campaign": "fig1", "units": 1}
    # Injected clock: timestamps are the fake's sequence, not wall time.
    assert spans["campaign"]["end_s"] > spans["campaign"]["start_s"] >= 100.0


def test_escaping_exception_stamps_error_and_closes_span():
    tracer, sink = tracer_with_sink()
    with pytest.raises(RuntimeError):
        with tracer.span("unit.execute", unit="abc"):
            raise RuntimeError("boom")
    span = [r for r in sink.records if r["type"] == "span"][0]
    assert span["args"]["error"] == "RuntimeError('boom')"
    assert span["end_s"] >= span["start_s"]


# ------------------------------------------------------- spool file layout
def test_jsonl_sink_round_trip_and_torn_lines(tmp_path):
    path = tmp_path / "spool" / "pool-7.jsonl"
    tracer = Tracer(JsonlSink(path), clock=FakeClock(), pid=7, role="pool")
    with tracer.span("campaign", cat="campaign"):
        tracer.event("cache.hit", cat="cache", unit="abc")
    tracer.close()

    # A killed process tears its final line; readers must skip it.
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"type": "span", "name": "torn')
    records = read_trace_file(path)
    assert [r["type"] for r in records] == ["meta", "event", "span"]

    # Directory readers stitch every per-process spool file.
    other = worker_trace_path(path.parent, "worker", 8)
    assert other.name == "worker-8.jsonl"
    Tracer(JsonlSink(other), clock=FakeClock(), pid=8, role="worker").close()
    assert len(read_trace_dir(path.parent)) == 4


def test_trace_dir_layout(tmp_path):
    directory_store = tmp_path / "fig1-quick-s0"
    directory_store.mkdir()
    assert trace_dir_for(directory_store) == directory_store / "traces"
    file_store = tmp_path / "fig1-quick-s0.sqlite"
    assert (
        trace_dir_for(file_store)
        == tmp_path / "fig1-quick-s0.sqlite.traces"
    )

    class StoreLike:
        path = file_store

    assert trace_dir_for(StoreLike()) == tmp_path / "fig1-quick-s0.sqlite.traces"


# --------------------------------------------------------------- exporters
def test_export_chrome_trace_shapes(tmp_path):
    tracer, sink = tracer_with_sink(role="pool")
    with tracer.span("campaign", cat="campaign"):
        tracer.event("lease.claim", cat="lease", unit="abc")

    out = tmp_path / "trace.json"
    document = export_chrome_trace(sink.records, out)
    loaded = json.loads(out.read_text(encoding="utf-8"))
    assert loaded == document

    by_phase = {}
    for event in document["traceEvents"]:
        by_phase.setdefault(event["ph"], []).append(event)
    (meta,) = by_phase["M"]
    assert meta["args"]["name"] == "pool/7"
    (span,) = by_phase["X"]
    assert span["name"] == "campaign"
    assert span["dur"] > 0
    (instant,) = by_phase["i"]
    assert instant["s"] == "p"
    # Timestamps are re-based to the earliest record (µs from start).
    assert min(e["ts"] for e in by_phase["X"] + by_phase["i"]) >= 0.0

    assert export_chrome_trace([]) == {
        "traceEvents": [],
        "displayTimeUnit": "ms",
    }


def test_summarize_trace_units_and_queueing():
    clock = FakeClock(start=0.0, step=1.0)
    sink = ListSink()
    tracer = Tracer(sink, clock=clock, pid=7, role="pool")
    tracer.event("lease.claim", cat="lease", unit="abc")   # t=1
    with tracer.span("unit.execute", cat="unit", unit="abc"):  # t=2..3
        pass
    with tracer.span("unit.merge", cat="unit", unit="abc", shards=2):
        pass

    summary = summarize_trace(sink.records)
    assert summary["spans"] == 2
    assert summary["events"] == 1
    assert summary["processes"] == {7: "pool"}
    unit = summary["units"]["abc"]
    assert unit["spans"]["unit.execute"] == 1.0
    assert unit["spans"]["unit.merge"] == 1.0
    assert unit["queued_s"] == 1.0  # claimed t=1, execute started t=2
    assert summary["wall_s"] > 0


def _write_spool(path, pid, role, *records):
    lines = [
        {"type": "meta", "schema": TRACE_SCHEMA, "role": role, "pid": pid,
         "ts_s": 0.0}
    ]
    lines += [{"pid": pid, "tid": 1, "parent": None, **r} for r in records]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def test_earliest_claim_wins_across_spool_files(tmp_path):
    """A pool that absorbs a peer's landed record still logs a claim.

    That pool's spool (pool-100) sorts before the executing pool's
    (pool-200), so the first claim read is the late one; both checks
    must use the earliest.
    """
    campaign = {"type": "span", "name": "campaign", "cat": "campaign",
                "id": 1, "start_s": 0.0, "end_s": 10.0, "args": {}}

    def claim(ts):
        return {"type": "event", "name": "lease.claim", "cat": "lease",
                "ts_s": ts, "args": {"unit": "u1"}}

    execute = {"type": "span", "name": "unit.execute", "cat": "unit",
               "id": 1, "start_s": 2.0, "end_s": 3.0, "args": {"unit": "u1"}}
    _write_spool(tmp_path / "pool-100.jsonl", 100, "pool", campaign, claim(5.0))
    _write_spool(tmp_path / "pool-200.jsonl", 200, "pool", campaign, claim(1.0))
    _write_spool(tmp_path / "worker-300.jsonl", 300, "worker", execute)

    summary = summarize_trace(read_trace_dir(tmp_path))
    assert summary["units"]["u1"]["queued_s"] == 1.0

    script = Path(__file__).resolve().parent.parent / "tools" / "check_trace.py"
    module_spec = importlib.util.spec_from_file_location("check_trace", script)
    check_trace = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(check_trace)
    records, problems = check_trace.check_spool(tmp_path)
    structure, counts = check_trace.check_structure(records)
    assert problems == [] and structure == []
    assert counts["claimed"] == 1
