"""Ablation — start-up latency Ts ∈ {0.15, 1.5} µs (paper §3).

The step-count argument rests on Ts dominating per-worm cost.  With
Ts = 0.15 µs the gap between RD (log2 N steps) and AB (3 steps)
narrows; this ablation quantifies the sensitivity.
"""

from repro.experiments.runner import run_experiment


def _latency(rows, algorithm, ts):
    for row in rows:
        if row.algorithm == algorithm and row.value == ts:
            return row.mean_latency_us
    raise KeyError((algorithm, ts))


def test_ablation_startup_latency(once):
    rows, text = once(run_experiment, "ablation-startup", "smoke", 0)
    print()
    print(text)

    # The RD/AB gap shrinks when start-ups get cheap.
    gap_high = _latency(rows, "RD", 1.5) / _latency(rows, "AB", 1.5)
    gap_low = _latency(rows, "RD", 0.15) / _latency(rows, "AB", 0.15)
    assert gap_low < gap_high
    # But the ordering survives at both settings.
    for ts in (0.15, 1.5):
        assert _latency(rows, "AB", ts) < _latency(rows, "DB", ts)
        assert _latency(rows, "DB", ts) < _latency(rows, "RD", ts)
