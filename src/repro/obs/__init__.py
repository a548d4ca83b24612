"""Observability: span tracing and kernel profiling.

Two small, dependency-free layers that let every other subsystem
*see* what a running campaign is doing without changing a byte of its
results:

:mod:`repro.obs.trace`
    A span-based tracer (campaign → unit → shard → merge spans plus
    claim/heartbeat/steal/cache-hit events) with a zero-overhead no-op
    default, injected clocks, per-worker JSONL sinks and a
    Chrome-trace-event/Perfetto exporter.
:mod:`repro.obs.simprof`
    Cheap always-on kernel counters (events dispatched by category,
    heap high-water mark, pool hit rates, channel wait time, wormhole
    batching ratio) surfaced through ``Environment.profile()``.

The live service's SLO counters and answer latencies are plain state
of :class:`~repro.service.EstimatorService` itself.  See
``docs/observability.md`` for the span model and the Perfetto how-to.
"""

from repro.obs.simprof import SimProfile
from repro.obs.trace import (
    NULL_TRACER,
    JsonlSink,
    ListSink,
    NullTracer,
    Span,
    Tracer,
    export_chrome_trace,
    read_trace_dir,
    read_trace_file,
    summarize_trace,
    trace_dir_for,
    worker_trace_path,
)

__all__ = [
    "SimProfile",
    "NULL_TRACER",
    "JsonlSink",
    "ListSink",
    "NullTracer",
    "Span",
    "Tracer",
    "export_chrome_trace",
    "read_trace_dir",
    "read_trace_file",
    "summarize_trace",
    "trace_dir_for",
    "worker_trace_path",
]
