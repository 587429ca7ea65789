import pytest

from perfbench.stats import TAIL_SAMPLES_BEYOND, tail


@pytest.mark.parametrize("n, cap, pct", [
    (1000, 99, 99.0),    # enough samples: the named percentile itself
    (5000, 99, 99.0),
    (250, 99, 96.0),     # too few for p99: ten samples beyond p96
    (50, 90, 80.0),
    (11, 99, 100 / 11),  # the smallest sample that supports any tail
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, cap, pct):
    values = [float(i) for i in range(n)]
    value, got = tail(values, cap)
    assert got == pytest.approx(pct)
    assert sum(v > value for v in values) >= TAIL_SAMPLES_BEYOND


def test_tail_never_exceeds_the_cap():
    value, pct = tail([float(i) for i in range(100)], 50)
    assert pct == 50.0 and value == 49.0


def test_tail_rejects_samples_too_small_for_any_tail():
    with pytest.raises(ValueError):
        tail([1.0] * TAIL_SAMPLES_BEYOND, 99)
