"""The benchmark's own arithmetic: tail rule, quartile spread, bound check."""

import math
import statistics

import pytest

from stats import (
    nearest_rank,
    paired_overhead,
    quartile_spread,
    samples_beyond,
    scale_factors,
    tail,
    within_bound,
    worse_by,
)


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 99.9) == 100
    assert nearest_rank([7.0], 50) == 7.0


def test_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(100, 95) == 5
    assert samples_beyond(20, 50) == 10
    assert samples_beyond(19, 50) == 9


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, pct):
    values = [float(i) for i in range(1, n + 1)]
    got = tail(values)
    if pct is None:
        assert got is None
        return
    assert got[0] == pct
    assert sum(v > got[1] for v in values) >= 10


def test_tail_order_independent():
    values = [5.0, 1.0, 3.0] * 40
    assert tail(values) == tail(sorted(values))


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / med)
    assert quartile_spread([2.0] * 10) == 0.0


def test_worse_by_direction():
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert math.isinf(worse_by(0.0, 1.0, "lower"))
    with pytest.raises(ValueError):
        worse_by(1.0, 1.0, "faster")


def test_within_bound():
    assert within_bound(1.0, 1.09, "lower", 0.1)
    assert not within_bound(1.0, 1.11, "lower", 0.1)
    assert within_bound(1.0, 0.5, "lower", 0.1)
    assert within_bound(10.0, 9.5, "higher", 0.1)
    assert not within_bound(10.0, 8.9, "higher", 0.1)


def test_paired_overhead_is_median_of_pairs():
    got = paired_overhead([1.0, 1.2, 1.1], [1.5, 1.6, 1.9])
    # pairs give 0.5, 0.4, 0.8
    assert got["seconds"] == pytest.approx(0.5)
    assert got["pairs"] == 3
    assert got["untraced_range_s"] == pytest.approx(0.2)
    assert got["resolved"]


def test_paired_overhead_within_spread_is_unresolved():
    got = paired_overhead([1.0, 1.3], [0.95, 1.35])
    assert got["seconds"] == pytest.approx(0.0)
    assert not got["resolved"]
    negative = paired_overhead([1.0, 1.1], [0.5, 0.6])
    assert negative["seconds"] == pytest.approx(-0.5)
    assert not negative["resolved"]


def test_paired_overhead_needs_two_untraced_passes_to_resolve():
    got = paired_overhead([1.0], [2.0])
    assert got["pairs"] == 1
    assert not got["resolved"]
    with pytest.raises(ValueError):
        paired_overhead([], [])


def test_scale_factors_use_the_reference_times_on_both_sides():
    # segment 0 ran between 0.2 and 0.4 s references, segment 1 between 0.4 and 0.4
    assert scale_factors([0.2, 0.4, 0.4], 0.3) == pytest.approx([1.0, 0.75])
    with pytest.raises(ValueError):
        scale_factors([0.2], 0.3)
