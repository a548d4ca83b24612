"""Ablation — message length 32 … 2048 flits (the paper's stated range).

Longer worms amortise the start-up latency, shrinking the relative gap
between the algorithms while preserving their order: the body pipeline
``(L−1)·β`` is paid once per step regardless of algorithm.
"""

from repro.experiments.runner import run_experiment


def _latency(rows, algorithm, length):
    for row in rows:
        if row.algorithm == algorithm and row.value == length:
            return row.mean_latency_us
    raise KeyError((algorithm, length))


def test_ablation_message_length(once):
    rows, text = once(run_experiment, "ablation-length", "smoke", 0)
    print()
    print(text)

    for length in (32, 128, 512, 2048):
        # Ordering is length-invariant.
        assert (
            _latency(rows, "AB", length)
            < _latency(rows, "DB", length)
            < _latency(rows, "RD", length)
        )
    # Latency grows with length for every algorithm.
    for name in ("RD", "EDN", "DB", "AB"):
        assert _latency(rows, name, 2048) > _latency(rows, name, 32)
    # The relative RD/AB gap is essentially length-invariant: both pay
    # (Ts + body) per step, so the ratio tracks the step-count ratio
    # (9/3) at every length.
    gap_short = _latency(rows, "RD", 32) / _latency(rows, "AB", 32)
    gap_long = _latency(rows, "RD", 2048) / _latency(rows, "AB", 2048)
    assert abs(gap_long - gap_short) < 0.5
    assert 2.0 < gap_short < 3.5
