"""Ablation — injection-port budget.

EDN is built for multiport routers (the paper gives it 3 ports); RD
"is often unable to take advantage of this architecture".  Running all
four algorithms at 1/2/3 ports isolates how much of each algorithm's
performance is port budget rather than schedule structure.
"""

from repro.experiments.runner import run_experiment


def _latency(rows, algorithm, ports):
    for row in rows:
        if row.algorithm == algorithm and row.value == ports:
            return row.mean_latency_us
    raise KeyError((algorithm, ports))


def test_ablation_port_count(once):
    rows, text = once(run_experiment, "ablation-ports", "smoke", 0)
    print()
    print(text)

    # EDN gains from every extra port (3-port sends per step).
    assert _latency(rows, "EDN", 3) < _latency(rows, "EDN", 1)
    # RD sends once per node per step: ports beyond 1 buy nothing.
    rd1, rd3 = _latency(rows, "RD", 1), _latency(rows, "RD", 3)
    assert abs(rd3 - rd1) / rd1 < 0.05
    # DB and AB need their second port (source sends two worms in step 1).
    assert _latency(rows, "DB", 2) < _latency(rows, "DB", 1)
    assert _latency(rows, "AB", 2) < _latency(rows, "AB", 1)
    # With everyone at 3 ports, AB still wins (structure, not ports).
    assert _latency(rows, "AB", 3) < _latency(rows, "RD", 3)
    assert _latency(rows, "AB", 3) < _latency(rows, "EDN", 3)
