#!/usr/bin/env python3
"""Benchmark runner emitting machine-readable ``BENCH_*.json`` reports.

Times the substrate workloads declared in ``benchmarks/bench_kernel.py``
(and smoke-scale experiment sweeps) with ``time.perf_counter`` — no
pytest needed — so the numbers can be tracked as a committed trajectory
and gated in CI.

Usage::

    # measure and write a report
    python tools/bench_report.py --suite kernel --suite fig1 --out BENCH_kernel.json

    # gate CI: fail when any shared benchmark is >30% slower than the
    # committed baseline's "results" section
    python tools/bench_report.py --suite kernel --suite fig1 \
        --baseline BENCH_kernel.json --max-regression 0.30

    # embed a previously captured report as the "before" numbers
    python tools/bench_report.py --suite kernel --merge-before seed.json \
        --out BENCH_kernel.json

See ``docs/performance.md`` for how to read the report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
for entry in (REPO / "src", REPO / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

SUITES = ("kernel", "batch", "fig1", "fig3", "obs")


def _kernel_workloads():
    import bench_kernel

    return dict(bench_kernel.WORKLOADS)


def _obs_workloads():
    # The tracing-overhead probe.  Producers default to NULL_TRACER,
    # so the kernel suite above *is* the tracing-disabled measurement
    # gated against BENCH_kernel.json; these workloads additionally
    # price the disabled and enabled call sites themselves:
    #
    #     python tools/bench_report.py --suite kernel --suite obs \
    #         --baseline BENCH_kernel.json
    from repro.obs.trace import ListSink, NULL_TRACER, Tracer

    def run_null_tracer(n: int = 200_000) -> int:
        tracer = NULL_TRACER
        for i in range(n):
            with tracer.span("unit.execute", cat="unit", unit="h"):
                tracer.event("lease.claim", unit="h")
        return n

    def run_live_tracer(n: int = 20_000) -> int:
        clock_value = 0.0

        def clock() -> float:
            nonlocal clock_value
            clock_value += 1e-6
            return clock_value

        tracer = Tracer(ListSink(), clock=clock, pid=1)
        for i in range(n):
            with tracer.span("unit.execute", cat="unit", unit="h"):
                tracer.event("lease.claim", unit="h")
        return n

    return {
        "null_tracer_span_event": {
            "fn": run_null_tracer,
            "rounds": 5,
            "events": 200_000,
        },
        "list_tracer_span_event": {
            "fn": run_live_tracer,
            "rounds": 5,
            "events": 20_000,
        },
    }


def _batch_workloads():
    import bench_batch_broadcast

    return dict(bench_batch_broadcast.WORKLOADS)


def _fig1_workloads():
    # fig1_smoke/fig2_smoke run the shipped default (the batched
    # engine); the *_event twins force the per-source event engine on
    # the same grids, so one report records the end-to-end engine win
    # alongside the kernel ratios.
    from repro.campaigns.units import set_broadcast_engine
    from repro.experiments.runner import run_experiment

    def smoke_rows(experiment):
        return len(run_experiment(experiment, "smoke", 0)[0])

    def on_event_engine(experiment):
        previous = set_broadcast_engine("event")
        try:
            return smoke_rows(experiment)
        finally:
            set_broadcast_engine(previous)

    return {
        "fig1_smoke": {
            "fn": lambda: smoke_rows("fig1"),
            "rounds": 1,
            "warmup": 0,
        },
        "fig1_smoke_event": {
            "fn": lambda: on_event_engine("fig1"),
            "rounds": 1,
            "warmup": 0,
        },
        "fig2_smoke": {
            "fn": lambda: smoke_rows("fig2"),
            "rounds": 1,
            "warmup": 0,
        },
        "fig2_smoke_event": {
            "fn": lambda: on_event_engine("fig2"),
            "rounds": 1,
            "warmup": 0,
        },
    }


def _fig3_workloads():
    # The bench-scale fig3 sweep (8x8x8, three loads) — heavier; not
    # part of the CI smoke job but the reference point for traffic
    # throughput claims.
    from bench_fig3_traffic_512 import LOADS, SCALE

    from repro.experiments.traffic_sweep import run_traffic_sweep

    return {
        "fig3_traffic_512": {
            "fn": lambda: len(
                run_traffic_sweep("fig3", scale=SCALE, seed=0, loads=LOADS)
            ),
            "rounds": 3,
            "warmup": 0,
        }
    }


WORKLOAD_SOURCES = {
    "kernel": _kernel_workloads,
    "batch": _batch_workloads,
    "fig1": _fig1_workloads,
    "fig3": _fig3_workloads,
    "obs": _obs_workloads,
}


def calibrate(rounds: int = 3) -> float:
    """Machine-speed probe: best wall seconds of a fixed pure-Python loop.

    Recorded in every report and used to *normalize* baseline
    comparisons, so the regression gate measures code, not which
    machine class (developer VM vs CI runner) happens to be faster.
    The probe never changes with repository code.
    """
    def probe():
        acc = 0
        for i in range(500_000):
            acc = (acc + i * i) % 1000003
        return acc

    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        probe()
        best = min(best, time.perf_counter() - start)
    return best


def time_workload(fn, rounds: int = 5, warmup: int = 1) -> dict:
    """Best/mean wall seconds of ``fn`` over ``rounds`` rounds."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "best_s": min(samples),
        "mean_s": sum(samples) / len(samples),
        "rounds": rounds,
    }


def run_suites(suites, progress=print) -> dict:
    results = {}
    for suite in suites:
        for name, spec in WORKLOAD_SOURCES[suite]().items():
            key = f"{suite}.{name}"
            entry = time_workload(
                spec["fn"],
                rounds=spec.get("rounds", 5),
                warmup=spec.get("warmup", 1),
            )
            events = spec.get("events")
            if events:
                entry["events"] = events
                entry["events_per_s"] = round(events / entry["best_s"])
            results[key] = entry
            if progress:
                rate = (
                    f", {entry['events_per_s']:,} events/s"
                    if events
                    else ""
                )
                progress(f"  {key}: best {entry['best_s']:.4f}s{rate}")
    return results


def compare(
    results: dict,
    baseline: dict,
    max_regression: float,
    progress=print,
    scale: float = 1.0,
):
    """Regressions of ``results`` vs ``baseline`` beyond the threshold.

    ``scale`` rescales baseline times to the current machine (current
    calibration / baseline calibration), so a slower CI runner does
    not read as a code regression — see :func:`calibrate`.
    """
    failures = []
    for key, base in sorted(baseline.items()):
        current = results.get(key)
        if current is None or "best_s" not in base:
            continue
        expected = base["best_s"] * scale
        ratio = current["best_s"] / expected - 1.0
        marker = "FAIL" if ratio > max_regression else "ok"
        if progress:
            progress(
                f"  {key}: {expected:.4f}s (norm.) -> {current['best_s']:.4f}s"
                f" ({ratio:+.1%}) {marker}"
            )
        if ratio > max_regression:
            failures.append((key, ratio))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        action="append",
        choices=SUITES,
        help="suite(s) to run (default: kernel)",
    )
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument(
        "--label", default="", help="free-form label recorded in the report"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="compare against FILE's results section",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        metavar="FRAC",
        help="fail when a benchmark is this much slower than baseline",
    )
    parser.add_argument(
        "--merge-before",
        default=None,
        metavar="FILE",
        help="embed FILE's results as the report's before numbers",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "re-measure benchmarks that exceed the regression threshold"
            " up to N times before failing (absorbs scheduler-phase"
            " noise on shared machines; a genuine regression fails"
            " every retry)"
        ),
    )
    args = parser.parse_args(argv)
    suites = args.suite or ["kernel"]

    print(f"benchmarking suites: {', '.join(suites)}")
    calibration_s = calibrate()
    print(f"  calibration: {calibration_s:.4f}s (machine-speed probe)")
    results = run_suites(suites)
    report = {
        "schema": 1,
        "label": args.label,
        "python": sys.version.split()[0],
        "calibration_s": calibration_s,
        "suites": suites,
        "results": results,
    }

    if args.merge_before:
        before_report = json.loads(Path(args.merge_before).read_text())
        before = before_report["results"]
        # Rescale the before times to this machine phase exactly as the
        # regression gate does (current calibration / before
        # calibration), so the recorded trajectory measures code, not
        # which phase of a shared machine each report happened to hit.
        before_cal = before_report.get("calibration_s")
        before_scale = calibration_s / before_cal if before_cal else 1.0
        report["before"] = before
        report["before_calibration_s"] = before_cal
        report["speedup"] = {
            key: round(
                before[key]["best_s"] * before_scale / entry["best_s"], 2
            )
            for key, entry in results.items()
            if key in before
        }
        print(f"speedup vs before (machine-speed x{before_scale:.2f}):")
        for key, ratio in sorted(report["speedup"].items()):
            print(f"  {key}: {ratio:.2f}x")

    exit_code = 0
    if args.baseline:
        baseline_report = json.loads(Path(args.baseline).read_text())
        baseline = baseline_report["results"]
        base_cal = baseline_report.get("calibration_s")
        scale = calibration_s / base_cal if base_cal else 1.0
        print(
            f"comparing against {args.baseline}"
            f" (max +{args.max_regression:.0%},"
            f" machine-speed normalisation x{scale:.2f}):"
        )
        failures = compare(results, baseline, args.max_regression, scale=scale)
        for attempt in range(args.retries):
            if not failures:
                break
            # Best-of-5 on a shared machine still lands in a slow
            # scheduler phase now and then; give only the flagged
            # benchmarks another chance and keep their best time.
            keys = [key for key, _ in failures]
            print(
                f"re-measuring {len(keys)} regressed benchmark(s)"
                f" (retry {attempt + 1}/{args.retries}): {', '.join(keys)}"
            )
            for key in keys:
                suite, name = key.split(".", 1)
                spec = WORKLOAD_SOURCES[suite]()[name]
                entry = time_workload(
                    spec["fn"],
                    rounds=spec.get("rounds", 5),
                    warmup=spec.get("warmup", 1),
                )
                if entry["best_s"] < results[key]["best_s"]:
                    results[key]["best_s"] = entry["best_s"]
                    events = results[key].get("events")
                    if events:
                        results[key]["events_per_s"] = round(
                            events / entry["best_s"]
                        )
            failures = compare(
                results, baseline, args.max_regression, scale=scale
            )
        if failures:
            worst = max(failures, key=lambda kv: kv[1])
            print(
                f"REGRESSION: {len(failures)} benchmark(s) slower than"
                f" baseline; worst {worst[0]} at {worst[1]:+.1%}"
            )
            exit_code = 1

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.out}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
