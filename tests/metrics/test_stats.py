"""Unit and property tests for statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.stats import Histogram, describe, mean, percentile, stddev

floats = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1,
    max_size=50,
)


def test_mean_basic():
    assert mean([1, 2, 3]) == 2.0
    assert mean([]) == 0.0


def test_stddev_basic():
    assert stddev([5, 5, 5]) == 0.0
    assert stddev([1]) == 0.0
    assert stddev([0, 2]) == 1.0


def test_percentile_endpoints():
    values = [3, 1, 2]
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 3
    assert percentile(values, 50) == 2


def test_percentile_interpolates():
    assert percentile([0, 10], 25) == 2.5


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


@given(values=floats, q=st.floats(min_value=0, max_value=100))
@settings(max_examples=100)
def test_percentile_within_range(values, q):
    p = percentile(values, q)
    assert min(values) <= p <= max(values)


@given(values=floats)
@settings(max_examples=100)
def test_percentile_monotone(values):
    assert percentile(values, 10) <= percentile(values, 90)


def test_describe_keys_and_empty():
    summary = describe([1.0, 2.0, 3.0])
    assert summary["count"] == 3
    assert summary["mean"] == 2.0
    assert describe([])["count"] == 0


def test_histogram_counts_and_bounds():
    hist = Histogram(0.0, 10.0, bins=10)
    hist.add_all([0.5, 1.5, 1.6, 9.99])
    assert hist.counts[0] == 1
    assert hist.counts[1] == 2
    assert hist.counts[9] == 1
    assert hist.total == 4


def test_histogram_under_overflow():
    hist = Histogram(0.0, 1.0, bins=2)
    hist.add(-1.0)
    hist.add(5.0)
    hist.add(1.0)  # high edge is exclusive
    assert hist.underflow == 1
    assert hist.overflow == 2
    assert sum(hist.counts) == 0


def test_histogram_density_integrates_to_one():
    hist = Histogram(0.0, 4.0, bins=8)
    hist.add_all([0.1, 1.1, 2.2, 3.3, 3.9])
    width = 0.5
    total = sum(density * width for _centre, density in hist.density())
    assert abs(total - 1.0) < 1e-9


def test_histogram_density_empty_is_zero():
    hist = Histogram(0.0, 1.0, bins=4)
    assert all(d == 0.0 for _c, d in hist.density())


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(0.0, 1.0, bins=0)
    with pytest.raises(ValueError):
        Histogram(1.0, 1.0, bins=4)
