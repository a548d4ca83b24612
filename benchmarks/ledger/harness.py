"""Shared plumbing of the stack ledger.

Locating the checkout, sizes, the seeded unit-generation rule, the
metric report, subprocess servers and scratch space.  Nothing here
measures anything by itself; see :mod:`workloads` and :mod:`probes`.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median  # noqa: F401 - shared by the other ledger modules
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SCRATCH = ROOT / "campaigns" / "ledger"  # campaigns/ is git-ignored
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDENS_JSON = Path(__file__).resolve().parent / "goldens.json"

#: ``run_seconds`` of BENCHMARK.json: the measuring time the ``full``
#: size is cut for on the 2-core reference box.  ``--seconds T`` scales
#: every count by ``T / RUN_SECONDS``.
RUN_SECONDS = 16


def bootstrap() -> None:
    """Make ``repro`` importable here and in every child process.

    The driver runs the benchmark from a bare checkout with no
    ``PYTHONPATH``; a directory without ``src/repro`` (only the
    benchmark's own files) must fail loudly, not measure nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"ledger: no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    paths = [str(SRC)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))


# ------------------------------------------------------------------- sizes
@dataclass(frozen=True)
class Size:
    """How much work each workload does (counts, not seconds)."""

    name: str
    #: identical sweeps a figure workload runs (fresh store each)
    fig_repeats: int
    #: fig1_idle — random sources per (mesh, algorithm) point; 16 points.
    fig1_sources: int
    #: fig3_loaded — batch-means protocol per load point; 4 algorithms x loads.
    fig3_loads: tuple
    fig3_batch_size: int
    fig3_batches: int
    #: units re-executed on the event engine after a fig run
    fig1_recheck: int
    fig3_recheck: int
    #: campaign_fabric — distinct 4x4x4 units per phase, workers=2
    fabric_sqlite_units: int
    fabric_http_units: int
    #: back-to-back campaigns each phase is split into (best reported)
    fabric_sqlite_chunks: int
    fabric_http_chunks: int
    fabric_recheck: int
    #: seconds of all-cached re-runs over the sqlite store, shared out
    #: over a slot after every campaign (a re-run of 1 000 units is
    #: 30-50 ms, ten times a figure's, so it needs more time than
    #: `rerun_s` to find the machine quiet)
    fabric_rerun_s: float
    #: serve_oracle — pre-warmed records, then `serve_rounds` rounds of
    #: paced / closed / miss / mixed
    serve_prewarm: int
    serve_rounds: int
    serve_paced: int
    serve_rate_per_s: float
    serve_closed: int
    serve_miss: int
    serve_mixed_s: float
    #: how often set-up is repeated (median reported)
    setup_repeats: int
    #: all-cached re-runs: at least `reruns`, and for `rerun_s` seconds in
    #: all (the best one is reported; many short samples spread over the
    #: run see more of the machine's moods than fifteen in a row)
    reruns: int
    rerun_s: float
    #: per-layer probes (--traced): records per store backend, no-op
    #: units through the pool, units per obs on/off campaign
    probe_records: int
    probe_noop_units: int
    probe_obs_units: int

    def scaled(self, seconds: float) -> "Size":
        """The same mix cut for ``seconds`` of measuring."""
        f = seconds / RUN_SECONDS
        if f == 1.0:
            return self

        def n(count: int, least: int = 1) -> int:
            return max(least, round(count * f))

        return replace(
            self,
            name=f"{self.name}x{f:g}",
            fig1_sources=n(self.fig1_sources),
            fig3_batches=n(self.fig3_batches, 2),
            fabric_sqlite_units=n(self.fabric_sqlite_units, 8),
            fabric_http_units=n(self.fabric_http_units, 8),
            serve_prewarm=n(self.serve_prewarm, 8),
            serve_paced=n(self.serve_paced, 4),
            serve_closed=n(self.serve_closed, 4),
            serve_miss=n(self.serve_miss, 2),
            serve_mixed_s=self.serve_mixed_s * f,
        )


#: the paper grid, repro.experiments.config.FIG3_LOADS (this module is
#: imported before bootstrap() makes repro importable)
FIG3_LOADS = (1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0)

FULL = Size(
    name="full",
    fig_repeats=3,
    fig1_sources=5,
    fig3_loads=FIG3_LOADS,
    fig3_batch_size=25,
    fig3_batches=4,
    fig1_recheck=16,
    fig3_recheck=4,
    fabric_sqlite_units=1000,
    fabric_http_units=450,
    fabric_sqlite_chunks=5,
    fabric_http_chunks=3,
    fabric_recheck=50,
    fabric_rerun_s=6.4,
    serve_prewarm=1000,
    serve_rounds=5,
    serve_paced=40,
    serve_rate_per_s=20.0,
    serve_closed=30,
    serve_miss=3,
    serve_mixed_s=0.7,
    setup_repeats=3,
    reruns=3,
    rerun_s=1.8,
    probe_records=2000,
    probe_noop_units=2000,
    probe_obs_units=500,
)

#: tens of units / queries: the tier-1 smoke test.
SMOKE = Size(
    name="smoke",
    fig_repeats=1,
    fig1_sources=1,
    fig3_loads=(8.0,),
    fig3_batch_size=6,
    fig3_batches=2,
    fig1_recheck=0,
    fig3_recheck=1,
    fabric_sqlite_units=16,
    fabric_http_units=8,
    fabric_sqlite_chunks=1,
    fabric_http_chunks=1,
    fabric_recheck=4,
    fabric_rerun_s=0.0,
    serve_prewarm=16,
    serve_rounds=1,
    serve_paced=6,
    serve_rate_per_s=50.0,
    serve_closed=4,
    serve_miss=2,
    serve_mixed_s=0.1,
    setup_repeats=1,
    reruns=1,
    rerun_s=0.0,
    probe_records=24,
    probe_noop_units=16,
    probe_obs_units=8,
)

SIZES = {"full": FULL, "smoke": SMOKE}


# ------------------------------------------------------ unit generation
ALGORITHMS = ("RD", "EDN", "DB", "AB")
LENGTHS = (32, 64, 100, 256, 512)
MAX_REPLICATION = 4  # run_broadcast_unit draws replication + 1 sources
_COMBOS = len(ALGORITHMS) * len(LENGTHS) * MAX_REPLICATION


def unit_docs(seed: int, start: int, count: int) -> List[Dict[str, Any]]:
    """Query documents ``start .. start + count`` of seed's unit stream.

    Distinct 4x4x4 single-source broadcasts: the index walks algorithm,
    message length and ``replication < 4`` and then moves on to the next
    master ``seed`` field, offset from ``--seed``.  (Large replication
    indices would turn the benchmark into an RNG loop — the runner draws
    ``replication + 1`` sources per unit.)
    """
    docs = []
    for i in range(start, start + count):
        combo, block = i % _COMBOS, i // _COMBOS
        docs.append(
            {
                "experiment": "ledger",
                "algorithm": ALGORITHMS[combo % 4],
                "dims": [4, 4, 4],
                "length_flits": LENGTHS[(combo // 4) % 5],
                "replication": combo // 20,
                "seed": seed * 100_003 + block,
            }
        )
    return docs


def units_from_docs(docs: Sequence[Dict[str, Any]]) -> list:
    """The docs' unit specs, through the service's own query mapping
    (so a campaign-run record *is* the oracle's answer for the doc)."""
    from repro.service.estimator import spec_for_query

    units = [spec_for_query(doc) for doc in docs]
    hashes = {u.unit_hash for u in units}
    if len(hashes) != len(units):
        raise AssertionError("unit-generation rule produced duplicate hashes")
    if any(u.replication >= MAX_REPLICATION for u in units):
        raise AssertionError("unit-generation rule exceeded replication < 4")
    return units


# ----------------------------------------------------------------- report
@dataclass
class Metric:
    value: float
    unit: str
    n: int
    #: "host" wall-clock, "sim" simulated time/statistic, "exact" count
    time: str
    kind: str  # "e2e" | "detail" | "layer"


@dataclass
class Report:
    """One workload's numbers and its correctness tally."""

    workload: str
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: free-form facts worth keeping with the numbers (row digests)
    notes: Dict[str, str] = field(default_factory=dict)
    #: the traced pass's span recorder, when there was one
    recorder: Any = None

    def add(
        self,
        name: str,
        value: float,
        unit: str,
        n: int = 1,
        time: str = "host",
        kind: str = "layer",
    ) -> None:
        if name in self.metrics:
            raise AssertionError(f"metric {name} reported twice")
        self.metrics[name] = Metric(float(value), unit, int(n), time, kind)

    def operations(self, attempted: int, failed: int = 0, what: str = "") -> None:
        """Count operations the workload attempted / saw fail."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} x {what}")

    def check(self, ok: bool, what: str) -> None:
        """One correctness check; a false one is a failed operation."""
        self.operations(1, 0 if ok else 1, what)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "notes": self.notes,
            "metrics": {
                name: {
                    "value": m.value,
                    "unit": m.unit,
                    "n": m.n,
                    "time": m.time,
                    "kind": m.kind,
                }
                for name, m in self.metrics.items()
            },
        }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def canonical_sha256(rows: Any) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- scratch
class Scratch:
    """A run's temp directory and the servers it started.

    Leaving the ``with`` block stops every server still running and
    removes the directory, whatever happened inside.
    """

    def __init__(self) -> None:
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        self.servers: List["Server"] = []
        self._count = 0

    def path(self, name: str) -> Path:
        """A fresh path (never reused within the run)."""
        self._count += 1
        return self.dir / f"{self._count:03d}-{name}"

    def serve(self, *args: str, stop_signal: int) -> "Server":
        server = Server(list(args), stop_signal)
        self.servers.append(server)
        return server

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc) -> None:
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.dir, ignore_errors=True)


class Server:
    """``python -m repro <args>`` as a real subprocess on ``--port 0``.

    The URL is parsed from the first stdout line; ``ready_s`` is launch
    to first successful health reply.
    """

    def __init__(self, args: List[str], stop_signal: int):
        from loadgen import Connection, Request

        self.stop_signal = stop_signal
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            cwd=ROOT,
        )
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"server did not announce a URL: {line!r}")
            self.url = line.split()[-1]
            with Connection(self.url) as conn:
                status, _ = conn.exchange(Request("GET", "/v1/status"))
            if status != 200:
                raise RuntimeError(f"server not healthy: {status}")
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - started

    def stop(self) -> int:
        """Ask the server to drain; its exit code (0 = clean)."""
        if self.proc.poll() is None:
            self.proc.send_signal(self.stop_signal)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


#: `repro serve` drains on SIGTERM and exits 0.  `repro campaign serve`
#: installs no SIGTERM handler (SIGTERM kills it with -15), so the
#: coordinator is stopped through the path it does have: SIGINT.
SERVE_STOP = signal.SIGTERM
COORDINATOR_STOP = signal.SIGINT
