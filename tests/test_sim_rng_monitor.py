"""Unit tests for RNG streams (`repro.sim.rng`)."""

import numpy as np
import pytest

from repro.sim import RandomStreams


# ------------------------------------------------------------ RandomStreams
def test_same_seed_same_stream():
    a = RandomStreams(seed=7)["traffic"].random(10)
    b = RandomStreams(seed=7)["traffic"].random(10)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStreams(seed=1)["traffic"].random(10)
    b = RandomStreams(seed=2)["traffic"].random(10)
    assert not np.array_equal(a, b)


def test_streams_are_independent_of_creation_order():
    s1 = RandomStreams(seed=3)
    _ = s1["a"].random(100)  # burn numbers on another stream
    v1 = s1["b"].random(5)

    s2 = RandomStreams(seed=3)
    v2 = s2["b"].random(5)  # "b" created first this time
    assert np.array_equal(v1, v2)


def test_named_streams_differ_from_each_other():
    s = RandomStreams(seed=9)
    assert not np.array_equal(s["x"].random(10), s["y"].random(10))


def test_stream_is_cached():
    s = RandomStreams(seed=0)
    assert s["t"] is s["t"]


def test_exponential_helper_mean():
    s = RandomStreams(seed=11)
    draws = [s.exponential("arr", rate=2.0) for _ in range(5000)]
    assert np.mean(draws) == pytest.approx(0.5, rel=0.1)


def test_exponential_invalid_rate():
    with pytest.raises(ValueError):
        RandomStreams(seed=0).exponential("x", rate=0.0)


def test_choice_index_bounds():
    s = RandomStreams(seed=5)
    for _ in range(100):
        assert 0 <= s.choice_index("c", 7) < 7
    with pytest.raises(ValueError):
        s.choice_index("c", 0)

