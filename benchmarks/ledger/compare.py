"""Compare two sides of ledger results: ``compare.py A B``.

``A`` (the base: the parent commit, or the first of two runs of the
same code) and ``B`` are each a ledger result file or a directory of
them (several runs of one side).  For every (metric, workload) pair
both sides hold, the base median, the other median and their ratio —
always ``B / A``, the base named — are printed, and where
BENCHMARK.json fixes a bound, one verdict:

``regressed``   B's median is worse than A's by more than the bound
``improved``    B's median is better by more than the bound, B wins at
                least nine tenths of all pairs and the medians differ by
                more than A's own quartile distance
``unresolved``  the benchmark cannot tell: within the bound but a side's
                run-to-run spread is wider than the bound (and not every
                B run beats every A run) — or beyond the bound with fewer
                than three runs a side, where the spread is unknown (two
                consecutive runs of the same code on the reference VM
                differ by up to 30 %)
``unchanged``   within the bound, spread within the bound

Metrics labelled ``exact`` (counts the simulator makes, failure
shares, simulated statistics) must be identical on every run of both
sides: any difference is ``regressed``.  Metrics without a bound get
their ratio and no verdict.  Exit code 1 if anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: runs a side below which nothing beyond the bound can be called
MIN_RUNS = 3


def load_side(path: Path) -> Dict[Tuple[str, str], List[Dict[str, Any]]]:
    """``(workload, metric) -> one entry per run`` for a file or directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no result files in {path}")
    side: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for file in files:
        for workload, section in json.loads(file.read_text()).items():
            for name, metric in section["metrics"].items():
                side.setdefault((workload, name), []).append(metric)
    return side


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q[2] - q[0]) / abs(mid) if mid else float("inf")


def verdict(
    a: List[float], b: List[float], bound: float, better: str
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    if mid_a == 0:
        return "unchanged" if mid_b == 0 else "unresolved"
    worse_by = sign * (mid_b - mid_a) / abs(mid_a)
    resolvable = min(len(a), len(b)) >= MIN_RUNS
    if abs(worse_by) > bound and not resolvable:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    pairs = [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if worse_by < -bound:
        q = statistics.quantiles(a, n=4)
        if wins >= 0.9 * len(pairs) and abs(mid_b - mid_a) > q[2] - q[0]:
            return "improved"
        return "unresolved"
    if max(spread(a), spread(b)) > bound:
        return "improved" if resolvable and wins == len(pairs) else "unresolved"
    return "unchanged"


def compare(
    side_a: Dict, side_b: Dict, declared: Dict[str, Dict[str, Any]]
) -> List[Dict[str, Any]]:
    rows = []
    for key in sorted(set(side_a) & set(side_b)):
        workload, name = key
        runs_a, runs_b = side_a[key], side_b[key]
        a = [m["value"] for m in runs_a]
        b = [m["value"] for m in runs_b]
        mid_a, mid_b = statistics.median(a), statistics.median(b)
        row = {
            "workload": workload, "metric": name, "unit": runs_a[0]["unit"],
            "a": mid_a, "b": mid_b, "runs": (len(a), len(b)),
            "ratio": mid_b / mid_a if mid_a else None, "verdict": "",
        }
        if runs_a[0].get("time") == "exact":
            row["verdict"] = "unchanged" if len(set(a + b)) == 1 else "regressed"
        elif name in declared:
            row["verdict"] = verdict(
                a, b, declared[name]["bound"], declared[name]["better"]
            )
        rows.append(row)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="base: result file or directory of runs")
    parser.add_argument("b", type=Path, help="other side, same form")
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK_JSON)
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    rows = compare(load_side(args.a), load_side(args.b), declared)
    print(f"base A = {args.a}   B = {args.b}   ratio = B / A")
    for row in rows:
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.4f}"
        print(
            f"{row['workload']:16s} {row['metric']:40s} A={row['a']:<12.6g}"
            f" B={row['b']:<12.6g} {row['unit']:6s} B/A={ratio:8s}"
            f" runs={row['runs'][0]}/{row['runs'][1]} {row['verdict']}"
        )
    counts: Dict[str, int] = {}
    for row in rows:
        if row["verdict"]:
            counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("verdicts:", ", ".join(f"{v} {k}" for k, v in sorted(counts.items())) or "none")
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
