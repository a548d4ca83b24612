"""Exactness of the live service's latency percentiles.

``EstimatorService.stats()`` keeps every answer latency verbatim and
reports p50/p95/p99 through :func:`repro.service.estimator.nearest_rank`.
These tests pin that function: it is the textbook nearest-rank order
statistic, and it does not depend on how the latency stream was cut
into pieces or in which order the pieces arrived.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.estimator import nearest_rank


# ------------------------------------------------------------ strategies
def observations(min_size=0, max_size=160):
    return st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=min_size,
        max_size=max_size,
    )


@st.composite
def stream_and_cuts(draw):
    xs = draw(observations())
    n_cuts = draw(st.integers(min_value=0, max_value=6))
    cuts = sorted(
        draw(st.integers(min_value=0, max_value=len(xs)))
        for _ in range(n_cuts)
    )
    return xs, cuts


def segments(xs, cuts):
    """Cut ``xs`` at ``cuts`` into slices tiling the stream."""
    edges = [0] + list(cuts) + [len(xs)]
    return [xs[start:end] for start, end in zip(edges, edges[1:])]


def counting_oracle(values, q):
    """The smallest value whose cumulative count reaches ``q * n``."""
    n = len(values)
    return min(v for v in values if sum(u <= v for u in values) >= q * n)


# --------------------------------------------------- exact percentiles
def test_percentile_exact_nearest_rank_examples():
    ordered = sorted([5.0, 1.0, 3.0, 2.0, 4.0])
    assert nearest_rank(ordered, 0.0) == 1.0
    assert nearest_rank(ordered, 0.5) == 3.0
    assert nearest_rank(ordered, 0.95) == 5.0
    assert nearest_rank(ordered, 1.0) == 5.0
    with pytest.raises(ValueError):
        nearest_rank(ordered, 1.5)
    with pytest.raises(ValueError):
        nearest_rank(ordered, -0.1)
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


@settings(max_examples=200, deadline=None)
@given(stream_and_cuts(), st.floats(min_value=0.0, max_value=1.0))
def test_percentiles_survive_any_split(case, q):
    # Answers land in the latency list in whatever order the request
    # threads finish; the percentile of the pieces joined in any order
    # equals the percentile of the unsplit stream.
    xs, cuts = case
    pieces = segments(xs, cuts)
    rejoined = [x for piece in reversed(pieces) for x in piece]
    if not xs:
        with pytest.raises(ValueError):
            nearest_rank(sorted(rejoined), q)
        return
    assert nearest_rank(sorted(rejoined), q) == nearest_rank(sorted(xs), q)


@settings(max_examples=200, deadline=None)
@given(stream_and_cuts(), st.floats(min_value=0.0, max_value=1.0))
def test_unit_batch_percentiles_are_exact_order_statistics(case, q):
    # Every observation is kept, so the percentile is an element of the
    # stream and agrees with the counting definition of the order
    # statistic however the stream was split.
    xs, cuts = case
    if not xs:
        return
    merged = sorted(x for piece in segments(xs, cuts) for x in piece)
    value = nearest_rank(merged, q)
    assert value in xs
    assert value == counting_oracle(xs, q)
