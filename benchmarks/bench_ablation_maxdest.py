"""Ablation — AB's per-path destination limit.

AB "uses the strategy of limiting the number of destination nodes for
each message path".  Small limits replace one long third-step worm with
several short worms that queue on the corner's two ports: path length
shrinks but serialisation grows.  This ablation exposes the trade-off
the paper alludes to in §3.2–3.3.
"""

import math

from repro.experiments.runner import run_experiment


def test_ablation_max_destinations(once):
    rows, text = once(run_experiment, "ablation-maxdest", "smoke", 0)
    print()
    print(text)

    by_limit = {row.value: row for row in rows}
    unlimited = by_limit[math.inf]
    tightest = by_limit[min(by_limit)]
    # Serialising many short worms on two ports costs latency.
    assert tightest.mean_latency_us > unlimited.mean_latency_us
    # Every variant still delivers with a sane CV.
    for row in rows:
        assert 0 < row.mean_cv < 0.6
