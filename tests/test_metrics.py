"""Unit + property tests for the metrics subpackage."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import (
    BatchMeans,
    coefficient_of_variation,
    improvement_percent,
    summarize,
    t_confidence_interval,
)
from repro.metrics.confidence import t_quantile

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------- summarize
def test_summarize_basic():
    s = summarize([2.0, 4.0, 6.0])
    assert s.count == 3
    assert s.mean == pytest.approx(4.0)
    assert s.minimum == 2.0 and s.maximum == 6.0
    assert s.cv == pytest.approx(np.std([2, 4, 6]) / 4)


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_cv_zero_mean_cases():
    assert summarize([0.0, 0.0]).cv == 0.0
    assert math.isinf(summarize([-1.0, 1.0]).cv)


@given(st.lists(floats, min_size=2, max_size=50), st.floats(0.1, 100))
@settings(max_examples=50)
def test_cv_scale_invariant(values, scale):
    """CV(aX) == CV(X) for a > 0."""
    base = coefficient_of_variation(values)
    scaled = coefficient_of_variation([v * scale for v in values])
    if math.isfinite(base) and base > 1e-9:
        assert scaled == pytest.approx(base, rel=1e-6)


# A sample Hypothesis once found for test_cv_scale_invariant: squaring
# its deviations (~1.6e-160) underflows into subnormals unless the
# sample is rescaled first, and CV(0.5·X) then read 0.99986·CV(X).
TINY_SAMPLE = [0.0, 3.121182760803852e-160]


def test_cv_exact_for_a_sample_whose_squares_underflow():
    assert summarize(TINY_SAMPLE).cv == 1.0
    assert summarize([v * 0.5 for v in TINY_SAMPLE]).cv == 1.0


def test_confidence_interval_scales_exactly_for_a_tiny_sample():
    base = t_confidence_interval(TINY_SAMPLE)
    half = t_confidence_interval([v * 0.5 for v in TINY_SAMPLE])
    assert half.mean == base.mean * 0.5
    assert half.half_width == base.half_width * 0.5


def test_rescaling_leaves_ordinary_samples_bit_identical():
    rng = np.random.default_rng(7)
    for _ in range(200):
        arr = rng.normal(size=int(rng.integers(2, 50))) * 10 ** rng.uniform(-5, 5)
        s = summarize(arr)
        assert (s.mean, s.std) == (float(arr.mean()), float(arr.std()))
        ci = t_confidence_interval(arr)
        sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
        assert ci.mean == float(arr.mean())
        assert ci.half_width == t_quantile(0.975, arr.size - 1) * sem


# ---------------------------------------------------- improvement percent
def test_improvement_percent_matches_paper_table1():
    """Back out the paper's own Table 1 arithmetic."""
    # RD CV 0.2540 with DBIMR 65.41% implies CV_DB ~ 0.1536.
    cv_db = 0.2540 / (1 + 65.41 / 100)
    assert improvement_percent(0.2540, cv_db) == pytest.approx(65.41, abs=0.01)


def test_improvement_percent_zero_when_equal():
    assert improvement_percent(0.3, 0.3) == pytest.approx(0.0)


def test_improvement_percent_invalid():
    with pytest.raises(ValueError):
        improvement_percent(0.3, 0.0)
    with pytest.raises(ValueError):
        improvement_percent(-0.1, 0.2)


# ------------------------------------------------------------ t intervals
def test_t_quantile_known_values():
    """Spot-check against standard t-table entries."""
    assert t_quantile(0.975, 10) == pytest.approx(2.228, abs=2e-3)
    assert t_quantile(0.975, 20) == pytest.approx(2.086, abs=2e-3)
    assert t_quantile(0.95, 5) == pytest.approx(2.015, abs=2e-3)
    assert t_quantile(0.5, 7) == 0.0


def test_t_quantile_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for p in (0.9, 0.95, 0.975, 0.995):
        for df in (1, 2, 5, 20, 100):
            assert t_quantile(p, df) == pytest.approx(
                float(scipy_stats.t.ppf(p, df)), abs=1e-6
            )


def test_t_quantile_invalid_inputs():
    with pytest.raises(ValueError):
        t_quantile(0.0, 5)
    with pytest.raises(ValueError):
        t_quantile(0.95, 0)


def test_confidence_interval_properties():
    ci = t_confidence_interval([10.0, 12.0, 11.0, 9.0, 13.0], level=0.95)
    assert ci.low < ci.mean < ci.high
    assert ci.contains(ci.mean)
    assert ci.count == 5
    assert ci.half_width > 0
    assert 0 < ci.relative_half_width < 1


def test_confidence_interval_needs_two():
    with pytest.raises(ValueError):
        t_confidence_interval([1.0])


def test_confidence_interval_level_bounds():
    with pytest.raises(ValueError):
        t_confidence_interval([1.0, 2.0], level=1.5)


def test_wider_level_gives_wider_interval():
    data = [10.0, 12.0, 11.0, 9.0, 13.0, 10.5]
    ci95 = t_confidence_interval(data, 0.95)
    ci99 = t_confidence_interval(data, 0.99)
    assert ci99.half_width > ci95.half_width


@given(st.lists(st.floats(1.0, 100.0), min_size=5, max_size=30))
@settings(max_examples=30)
def test_interval_contains_sample_mean(values):
    ci = t_confidence_interval(values)
    assert ci.contains(float(np.mean(values)))


# ------------------------------------------------------------ batch means
def test_batch_means_paper_protocol():
    """21 batches, first discarded, mean over the remaining 20."""
    bm = BatchMeans(batch_size=5, num_batches=21, discard=1)
    # Cold-start batch is optimistic (low), the rest are steady.
    for _ in range(5):
        bm.add(1.0)  # warm-up batch
    for _ in range(100):
        bm.add(10.0)
    assert bm.complete
    result = bm.result()
    assert result.num_batches == 20
    assert result.discarded == 1
    assert result.mean == pytest.approx(10.0)  # cold start excluded


def test_batch_means_without_discard_is_biased():
    biased = BatchMeans(batch_size=5, num_batches=21, discard=0)
    for _ in range(5):
        biased.add(1.0)
    for _ in range(100):
        biased.add(10.0)
    assert biased.result().mean < 10.0


def test_batch_means_ignores_extra_observations():
    bm = BatchMeans(batch_size=2, num_batches=3, discard=0)
    bm.extend([1, 2, 3, 4, 5, 6, 100, 100])
    assert bm.result().mean == pytest.approx(3.5)


def test_batch_means_observations_needed():
    bm = BatchMeans(batch_size=4, num_batches=3, discard=0)
    assert bm.observations_needed == 12
    bm.extend([1, 2, 3])
    assert bm.observations_needed == 9
    bm.extend(range(9))
    assert bm.observations_needed == 0
    assert bm.complete


def test_batch_means_incomplete_result():
    bm = BatchMeans(batch_size=2, num_batches=5, discard=1)
    bm.extend([1, 2, 3, 4])  # 2 batches collected
    result = bm.result()
    assert result.num_batches == 1


def test_batch_means_no_retained_raises():
    bm = BatchMeans(batch_size=2, num_batches=5, discard=1)
    bm.extend([1, 2])  # only the to-be-discarded batch
    with pytest.raises(ValueError):
        bm.result()


def test_batch_means_validation():
    with pytest.raises(ValueError):
        BatchMeans(batch_size=0)
    with pytest.raises(ValueError):
        BatchMeans(batch_size=1, num_batches=0)
    with pytest.raises(ValueError):
        BatchMeans(batch_size=1, num_batches=5, discard=5)


def test_batch_means_interval_present_with_enough_batches():
    bm = BatchMeans(batch_size=1, num_batches=5, discard=1)
    bm.extend([5, 4, 6, 5, 5])
    result = bm.result()
    assert result.interval is not None
    assert result.interval.contains(result.mean)
