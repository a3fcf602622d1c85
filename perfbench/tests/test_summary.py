import random

import pytest

from summary import tail


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(3).shuffle(values)
    assert tail(values) == (90, 90.0, 10)


def test_tail_on_the_smallest_qualifying_sample():
    value, percentile, beyond = tail([float(x) for x in range(11, 0, -1)])
    assert (value, beyond) == (1.0, 10)
    assert percentile == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_is_undefined_without_eleven_samples(n):
    assert tail([1.0] * n) is None


def test_tail_rank_moves_with_sample_count():
    value, percentile, beyond = tail(range(1, 41))
    assert (value, percentile, beyond) == (30, 75.0, 10)
