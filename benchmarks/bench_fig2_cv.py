"""Fig. 2 — coefficient of variation of arrival times vs network size.

Regenerates the four CV-vs-size series and asserts the structural
orderings: AB has the tightest arrival times everywhere, and the
coded-path algorithms beat EDN under step-synchronised semantics.
"""

from repro.experiments.runner import run_experiment


def _series(rows, algorithm, barrier=False):
    return {
        r.num_nodes: (r.mean_cv_barrier if barrier else r.mean_cv)
        for r in rows
        if r.algorithm == algorithm
    }


def test_fig2_coefficient_of_variation(once):
    rows, text = once(run_experiment, "fig2", "smoke", 0)
    print()
    print(text)

    ab = _series(rows, "AB")
    for name in ("RD", "EDN", "DB"):
        other = _series(rows, name)
        for nodes, cv in ab.items():
            assert cv < other[nodes], (name, nodes)

    # Under step-barrier semantics EDN beats RD (the paper's ordering)
    # and AB remains the best.
    rd_b = _series(rows, "RD", barrier=True)
    edn_b = _series(rows, "EDN", barrier=True)
    ab_b = _series(rows, "AB", barrier=True)
    for nodes in rd_b:
        assert edn_b[nodes] < rd_b[nodes]
        assert ab_b[nodes] < edn_b[nodes]
