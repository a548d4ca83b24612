"""Benchmarks of the batched broadcast engine vs the event-driven path.

The batched engine (:mod:`repro.core.batch_broadcast`) advances every
eligible source of a (dims, algorithm, fan-out) cell together through
one structure-of-arrays numpy sweep instead of paying a fresh network
and a private event heap per source.  These workloads price both sides
of that trade on the same cells:

* ``batch_event_*`` / ``batch_batched_*`` — identical source lists run
  through :func:`repro.experiments.common.run_single_broadcasts` and
  :func:`repro.core.batch_broadcast.run_batch_broadcasts`; the ratio of
  their per-source rates is the engine's speedup (the PR target is
  >= 5x, and results are bit-identical so this is pure win).
* ``batch_fallback_*`` — a short-message cell whose worms outrun their
  first delivery, so every source fails the sweep's wave-eligibility
  check *after* planning: the workload prices the wasted plan + sweep
  on top of the per-source event fallback (the overhead the default
  batched engine risks on ineligible cells).

Each workload is a plain module-level function so
``tools/bench_report.py --suite batch`` can time them outside pytest
and gate them in CI; the pytest wrappers keep them runnable under
pytest-benchmark as well.
"""

from repro.core.batch_broadcast import run_batch_broadcasts
from repro.experiments.common import random_sources, run_single_broadcasts

LENGTH = 512  # the paper's long-message operating point (flits)


def _sources(dims, count, seed=0):
    return random_sources(dims, count, seed)


def run_event_cell(
    dims=(16, 16), count=250, length=LENGTH, algorithm="DB"
) -> int:
    """Event-driven reference: one fresh network + heap per source."""
    outcomes = run_single_broadcasts(
        algorithm, dims, _sources(dims, count), length
    )
    return len(outcomes)


def run_batched_cell(
    dims=(16, 16), count=250, length=LENGTH, algorithm="DB"
) -> int:
    """The same cell through the structure-of-arrays sweep."""
    outcomes = run_batch_broadcasts(
        algorithm, dims, _sources(dims, count), length
    )
    return len(outcomes)


def run_batched_cell_32(count=1000) -> int:
    """A thousand-source 32x32 cell — the scale the engine exists for."""
    return run_batched_cell(dims=(32, 32), count=count)


def run_fallback_cell(dims=(16, 16), count=250, length=4) -> int:
    """Worst-case ineligibility: plan + sweep wasted, then event re-run.

    With L=4 flits almost every worm's walk outruns its first delivery
    (remaining hops >= L-1), so the sweep proves nothing and every
    source falls back — this workload minus ``run_event_cell`` at the
    same count is the price of *trying* to batch.
    """
    outcomes = run_batch_broadcasts("DB", dims, _sources(dims, count), length)
    return len(outcomes)


WORKLOADS = {
    "batch_event_16x16_db512": {
        "fn": run_event_cell,
        "rounds": 3,
        "warmup": 0,
        "events": 250,
    },
    "batch_batched_16x16_db512": {
        "fn": run_batched_cell,
        "rounds": 5,
        "warmup": 1,
        "events": 250,
    },
    "batch_batched_32x32_db512": {
        "fn": run_batched_cell_32,
        "rounds": 1,
        "warmup": 0,
        "events": 1000,
    },
    "batch_fallback_16x16_db4": {
        "fn": run_fallback_cell,
        "rounds": 1,
        "warmup": 0,
        "events": 250,
    },
}


# ---------------------------------------------------------- pytest wrappers
def test_batch_event_cell(benchmark):
    """Event-driven 250-source 16x16 DB cell (the reference)."""
    assert benchmark(run_event_cell) == 250


def test_batch_batched_cell(benchmark):
    """Batched 250-source 16x16 DB cell (bit-identical, vector speed)."""
    assert benchmark(run_batched_cell) == 250


def test_batch_fallback_cell(benchmark):
    """Short-message cell where every source fails eligibility."""
    assert benchmark(run_fallback_cell) == 250
