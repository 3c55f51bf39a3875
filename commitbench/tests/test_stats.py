import pytest

from commitbench.stats import median, percentile, samples_beyond


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile(range(1, 12), 90) == 10
    assert percentile([1, 2], 75) == 1.75
    assert percentile([7], 90) == 7


def test_percentile_endpoints_are_min_and_max():
    values = [5, 3, 9, 1]
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 9


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_samples_beyond_counts_the_tail():
    # 120 samples: p90 sits at rank 107.1, so ranks 108..119 lie beyond it.
    assert samples_beyond(120, 90) == 12
    assert samples_beyond(110, 90) == 11
    assert samples_beyond(10, 50) == 5
    assert samples_beyond(0, 90) == 0


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
