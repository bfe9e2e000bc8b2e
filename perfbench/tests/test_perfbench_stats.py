"""The reporting rules, on fixed inputs."""

import pytest

from perfbench.common import (BenchError, rate_from_passes, spread,
                              tail_percentile)


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]       # 1 .. 1000
    assert tail_percentile(samples, 99) == 990.0       # 10 beyond
    with pytest.raises(BenchError):
        tail_percentile(samples[:999], 99)             # 9 beyond
    assert tail_percentile(samples[:20], 50) == 10.0
    with pytest.raises(BenchError):
        tail_percentile(samples[:19], 50)
    with pytest.raises(BenchError):
        tail_percentile([], 50)


def test_percentile_ignores_sample_order():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 8
    assert tail_percentile(samples, 50) == 3.0


def test_rate_comes_from_the_median_pass():
    # one slow pass and one fast outlier do not move the rate
    assert rate_from_passes(100, [2.0, 1.0, 9.0, 1.0, 1.0]) == 100.0
    assert rate_from_passes(60, [3.0, 2.0]) == 24.0


def test_spread_is_interquartile_over_median():
    assert spread([10.0] * 10) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert spread(values) == pytest.approx((6.0 - 2.0) / 4.0)
