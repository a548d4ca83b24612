"""Campaign engine — worker-pool speedup and declaration vs LPT makespan.

Runs a fixed broadcast campaign (the Fig. 2 grid at smoke scale, whose
barrier twins make units meaty enough to amortise process start-up)
through the worker pool at increasing worker counts, printing the
measured speedups and asserting the determinism contract: every worker
count produces byte-identical records.

A second benchmark compares the two dispatch orders: using each unit's
*measured* serial duration, it simulates greedy list scheduling of the
declaration order (what a serial run dispatches) against the
largest-estimated-cost-first (LPT) order (what a pooled run
dispatches) and prints both makespans per worker count.  The Fig. 2
grid declares its largest meshes last, so declaration order strands
the slowest cells at the end of the run while LPT front-loads them —
the makespan gap is what the pooled ordering buys.

Speedup itself is hardware-dependent and is printed, not asserted —
except that the parallel runs must not collapse (finish at all).
"""

import time

from repro.campaigns.pool import estimate_unit_cost, order_units, run_campaign
from repro.experiments.config import ExperimentScale
from repro.experiments.fig2 import fig2_campaign
from repro.experiments.traffic_sweep import traffic_campaign

WORKER_COUNTS = (1, 2, 4)


def _timed_run(spec, workers):
    started = time.perf_counter()
    records = run_campaign(spec, workers=workers)
    return records, time.perf_counter() - started


def test_campaign_scaling(once):
    spec = fig2_campaign(scale="smoke", seed=0)

    def sweep():
        return {w: _timed_run(spec, w) for w in WORKER_COUNTS}

    results = once(sweep)

    baseline_records, baseline_s = results[1]
    print()
    print(f"campaign {spec.name}: {len(spec)} units")
    for workers in WORKER_COUNTS:
        records, elapsed = results[workers]
        speedup = baseline_s / elapsed if elapsed else float("inf")
        print(
            f"  workers={workers}: {elapsed:6.2f}s"
            f"  speedup x{speedup:4.2f}"
        )
        # Determinism: sharding may only change wall-clock time.
        assert records == baseline_records


def test_single_point_shard_scaling(once):
    """Makespan of ONE heavy traffic point vs its shard count.

    The intra-unit parallelism win: an unsharded point is a single
    unit, so extra workers cannot help it; `--shards K` fans the same
    point out into K sub-units that a K-worker pool drains together.
    Wall-clock speedup is hardware-dependent and printed, not asserted
    (single-vCPU CI can't show it); the asserted invariants are that
    the sharded spec's records are byte-identical at every worker
    count and that the shard fan-out really dispatches K units.
    """

    # One heavy load point on the fig3 mesh: the paper's 21-batch
    # budget (so shards=4 keeps a 5-batch retained slice each) with
    # quick-sized batches, ~4x the quick-scale point.
    heavy = ExperimentScale(
        name="bench-heavy",
        sources_per_point=1,
        batch_size=15,
        num_batches=21,
        discard=1,
        max_sim_time_us=120_000.0,
    )

    def point(shards):
        return traffic_campaign(
            "fig3",
            scale=heavy,
            loads=[4.0],
            algorithms=["DB"],
            shards=shards,
        )

    def sweep():
        results = {}
        serial_unsharded = _timed_run(point(1), 1)
        results["unsharded"] = serial_unsharded
        for shards in (2, 4):
            spec = point(shards)
            serial = _timed_run(spec, 1)
            parallel = _timed_run(spec, shards)
            # Determinism: fan-out may only change wall-clock time.
            assert parallel[0] == serial[0]
            results[shards] = (serial, parallel)
        return results

    results = once(sweep)
    _, unsharded_s = results["unsharded"]
    print()
    print("single fig3 point (load=4, 21 batches of 15 ops):")
    print(f"  shards=1:                 {unsharded_s:6.2f}s (one unit)")
    for shards in (2, 4):
        (records, serial_s), (_, parallel_s) = results[shards]
        speedup = serial_s / parallel_s if parallel_s else float("inf")
        print(
            f"  shards={shards} workers={shards}:       {parallel_s:6.2f}s"
            f"  (serial {serial_s:6.2f}s, speedup x{speedup:4.2f})"
        )
        assert records[0].result["shards"] == shards


def _list_schedule_makespan(durations, workers):
    """Makespan of greedy list scheduling: each unit goes to the
    earliest-free worker, in the given dispatch order."""
    heads = [0.0] * workers
    for duration in durations:
        slot = min(range(workers), key=heads.__getitem__)
        heads[slot] += duration
    return max(heads)


def test_declaration_vs_lpt_makespan(once):
    spec = fig2_campaign(scale="smoke", seed=0)

    def measure():
        records = run_campaign(spec)
        return {r.unit_hash: r.elapsed_s for r in records}

    elapsed_by_hash = once(measure)

    # The cost estimate must broadly agree with reality for the
    # largest-first heuristic to mean anything: the most expensive
    # *measured* unit should rank in the estimate's top half (a loose
    # bound on purpose — smoke units run for milliseconds, and timing
    # noise must not flake the benchmark).
    by_estimate = order_units(spec.units, workers=2)
    slowest = max(spec.units, key=lambda u: elapsed_by_hash[u.unit_hash])
    assert by_estimate.index(slowest) < max(len(spec) // 2, 1), (
        f"cost model ranks the slowest unit ({slowest}) at position"
        f" {by_estimate.index(slowest)}/{len(spec)}"
    )

    print()
    print(f"campaign {spec.name}: simulated list-schedule makespan")
    serial_total = sum(elapsed_by_hash.values())
    estimates = {u.unit_hash: estimate_unit_cost(u) for u in spec.units}
    for workers in WORKER_COUNTS[1:]:
        orders = {
            "declaration": list(spec.units),
            "lpt": order_units(spec.units, workers=workers),
        }
        measured, estimated = {}, {}
        for name, order in orders.items():
            measured[name] = _list_schedule_makespan(
                [elapsed_by_hash[u.unit_hash] for u in order], workers
            )
            estimated[name] = _list_schedule_makespan(
                [estimates[u.unit_hash] for u in order], workers
            )
        gain = measured["declaration"] / measured["lpt"]
        print(
            f"  workers={workers}: declaration"
            f" {measured['declaration']:6.2f}s  lpt {measured['lpt']:6.2f}s"
            f"  (x{gain:4.2f}, serial {serial_total:6.2f}s)"
        )
        # Deterministic invariant (no wall-clock in it): under the
        # cost model itself, largest-first never loses to declaration
        # order on this grid (the big meshes are declared last) and
        # cannot beat the perfect-balance bound.  The measured gain
        # above is hardware-dependent and printed, not asserted.
        assert estimated["lpt"] <= estimated["declaration"] * 1.0001
        total_estimate = sum(estimates.values())
        assert estimated["lpt"] >= total_estimate / workers * 0.9999

    # The dispatch order changes makespan only: records are identical.
    assert run_campaign(spec, workers=2) == run_campaign(spec)
