"""The stack ledger: one command, every layer's numbers.

Two ways in, one code path:

``python benchmarks/ledger/run.py --seed S [--traced]``
    every workload of BENCHMARK.json, each in a child process of its
    own (so ``peak_rss_mb`` is the workload's, not the run's); prints
    every metric by name with unit and sample count, runs every
    correctness check, writes ``campaigns/ledger/ledger_s<S>.json`` and
    exits non-zero if anything failed.  ``--traced`` repeats each
    workload under the span recorder and runs the per-layer probes.

``... --workload W --seed S --seconds T --trace 0|1``
    the benchmark contract: one workload, one pass (untraced for the
    end-to-end metrics, traced for the per-layer ones), and as the last
    line of stdout one JSON object ``{"correct", "attempted",
    "failed", "metrics"}`` holding exactly the metrics BENCHMARK.json
    declares for that pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

import harness

harness.bootstrap()

from harness import (  # noqa: E402 - after bootstrap() made repro importable
    BENCHMARK_JSON,
    GOLDENS_JSON,
    RUN_SECONDS,
    SCRATCH,
    SIZES,
    Report,
    Scratch,
    Size,
    median,
    peak_rss_mb,
)
from spans import NULL_RECORDER, SpanRecorder  # noqa: E402

UNTRACED, TRACED, PROBES = "untraced", "traced", "probes"


def measure(
    name: str,
    seed: int,
    size: Size,
    passes: Set[str],
    goldens: Dict[str, Any],
    trace_path: Optional[Path] = None,
) -> Report:
    """Run one workload's passes and fill in its report."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS  # imports the program under test

    report = Report(name)
    with Scratch() as scratch:
        workload = WORKLOADS[name](seed, size, scratch, report, goldens)
        workload.generate_inputs()
        inputs_s = time.perf_counter() - t0
        untraced = None
        if UNTRACED in passes:
            setups = []
            for _ in range(size.setup_repeats):
                t0 = time.perf_counter()
                workload.set_up()
                setups.append(time.perf_counter() - t0)
            untraced = workload.run(NULL_RECORDER)
            workload.check(untraced)
            workload.tear_down()
            _report_end_to_end(report, untraced, inputs_s, setups)
        if TRACED in passes:
            recorder = SpanRecorder()
            workload.set_up()
            with recorder.span(f"ledger.{name}") as root:
                traced = workload.run(recorder)
                if PROBES in passes:
                    import probes

                    probes.run_group(workload, recorder, traced)
            workload.check(traced)
            workload.tear_down()
            _report_layers(report, traced, recorder, root)
            if untraced is not None:
                report.add(
                    f"ledger.trace_overhead_share.{name}",
                    traced.wall_s / untraced.wall_s - 1.0,
                    "ratio",
                )
            if trace_path is not None:
                recorder.dump(trace_path)
            report.recorder = recorder
    return report


def _report_end_to_end(report: Report, out, inputs_s: float, setups: List[float]) -> None:
    add = report.add
    add("setup_s", inputs_s + median(setups), "s", len(setups), kind="e2e")
    add("peak_rss_mb", peak_rss_mb(), "MiB", 1, kind="e2e")
    add("fresh_per_s", out.fresh_per_s, "1/s", out.fresh_ops, kind="e2e")
    add("cached_per_s", out.cached_per_s, "1/s", out.cached_ops, kind="e2e")
    add("op_p50_ms", out.op_p50_ms, "ms", out.op_n, kind="e2e")
    add("op_p95_ms", out.op_p95_ms, "ms", out.op_n, kind="e2e")
    add("failed_share", report.failed / max(report.attempted, 1), "ratio",
        report.attempted, time="exact", kind="detail")
    add("inputs_s", inputs_s, "s", 1, kind="detail")
    add("wall_s", out.wall_s, "s", 1, kind="detail")
    for name, (value, unit, n, clock) in out.detail.items():
        add(name, value, unit, n, time=clock, kind="detail")


def _report_layers(report: Report, out, recorder: SpanRecorder, root) -> None:
    """The per-layer numbers every workload's trace can give."""
    add = report.add
    for problem in recorder.problems():
        report.check(False, f"trace: {problem}")
    wall = root.duration
    lane0 = recorder.self_by_layer(lane=0)
    every = recorder.self_by_layer(lane=None)
    counts = recorder.count_by_layer()
    accounted = sum(lane0.values()) / wall
    report.check(abs(accounted - 1.0) <= 0.02, f"self times cover {accounted:.3f} of the traced wall")
    add("trace.wall_s", wall, "s")
    add("trace.spans", len(recorder.spans), "count")
    add("trace.accounted_share", accounted, "ratio")
    add("harness.self_share", lane0.get("ledger", 0.0) / wall, "ratio")
    add("store.busy_share", every.get("store", 0.0) / wall, "ratio", counts.get("store", 0))
    add("store.calls", counts.get("store", 0), "count")
    busy = sum(r.elapsed_s for r in out.records)
    capacity = out.fresh_wall_s * out.workers
    add("units.busy_share", busy / capacity, "ratio", len(out.records))
    add("above_units.ms_per_op", (capacity - busy) / len(out.records) * 1e3, "ms",
        len(out.records))
    for algorithm in harness.ALGORITHMS:
        mine = [r.elapsed_s for r in out.records if r.spec["algorithm"] == algorithm]
        add(f"units.busy_s.{algorithm}", sum(mine), "s", len(mine))
    for layer, own in sorted(every.items()):
        add(f"self_s.{layer}", own, "s", counts[layer], kind="detail")
    for name, (value, unit, n, clock) in out.detail.items():
        if name not in report.metrics:
            add(name, value, unit, n, time=clock, kind="detail")


# ------------------------------------------------------------------ output
def print_report(report: Report) -> None:
    print(f"== {report.workload}: {report.attempted} operations/checks,"
          f" {report.failed} failed")
    for failure in report.failures:
        print(f"   FAILED: {failure}")
    for key, note in report.notes.items():
        print(f"   {key}: {note}")
    for name, m in report.metrics.items():
        print(
            f"{report.workload:16s} {m.kind:6s} {name:40s}"
            f" {m.value:>14.6g} {m.unit:6s} n={m.n:<6d} [{m.time}]"
        )


def contract_line(report: Report, declared: List[Dict[str, str]]) -> Dict[str, Any]:
    metrics, missing = {}, []
    for entry in declared:
        metric = report.metrics.get(entry["name"])
        if metric is None or metric.unit != entry["unit"]:
            missing.append(entry["name"])
        else:
            metrics[entry["name"]] = {"value": metric.value, "unit": metric.unit}
    if missing:
        raise SystemExit(f"ledger: declared metrics not measured: {missing}")
    return {
        "correct": report.failed == 0,
        "attempted": max(report.attempted, 1),
        "failed": report.failed,
        "metrics": metrics,
    }


# --------------------------------------------------------------------- CLI
def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"measuring time the sizes are cut for (default {RUN_SECONDS})")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: 0 = untraced pass, 1 = traced pass")
    parser.add_argument("--traced", action="store_true",
                        help="both passes, plus the per-layer probes")
    parser.add_argument("--goldens", type=Path, default=GOLDENS_JSON)
    parser.add_argument("--out", type=Path, default=None, help="result JSON path")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    declared = json.loads(BENCHMARK_JSON.read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is None:
        return _run_all(args, names)
    if args.workload not in names:
        raise SystemExit(f"ledger: unknown workload {args.workload!r}; choose from {names}")

    if args.traced:
        passes = {UNTRACED, TRACED, PROBES}
    elif args.trace == 1:
        passes = {TRACED}
    else:
        passes = {UNTRACED}
    size = SIZES[args.size].scaled(args.seconds)
    goldens = json.loads(args.goldens.read_text())
    report = measure(
        args.workload, args.seed, size, passes, goldens,
        trace_path=SCRATCH / f"trace_{args.workload}.json",
    )
    print_report(report)
    out = args.out or SCRATCH / f"{args.workload}_s{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({args.workload: report.to_dict()}, indent=1))
    line = contract_line(
        report, declared["per_layer" if args.trace == 1 else "end_to_end"]
    )
    print(json.dumps(line))
    return 0 if report.failed == 0 else 1


def _run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Each workload in a fresh child, results merged into one file."""
    merged: Dict[str, Any] = {}
    worst = 0
    for name in names:
        part = SCRATCH / f"{name}_s{args.seed}.json"
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", args.size,
            "--goldens", str(args.goldens), "--out", str(part),
        ] + (["--traced"] if args.traced else [])
        code = subprocess.run(command).returncode
        worst = max(worst, abs(code))
        if part.is_file():
            merged.update(json.loads(part.read_text()))
    out = args.out or SCRATCH / f"ledger_s{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=1))
    print(f"ledger: wrote {out}; {'all checks passed' if worst == 0 else 'FAILED'}")
    return 0 if worst == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
