"""The oracle routines themselves: frozen examples and self-consistency."""

import math
from fractions import Fraction

import pytest

from dbecurves import oracle
from dbecurves.exact import Interval, IntervalUnion

F = Fraction


def test_cantor_value_examples():
    assert oracle.cantor_value(F(0)) == 0
    assert oracle.cantor_value(F(1)) == 1
    assert oracle.cantor_value(F(1, 3)) == F(1, 2)
    assert oracle.cantor_value(F(1, 4)) == F(1, 3)
    assert oracle.cantor_value(F(3, 4)) == F(2, 3)
    assert oracle.cantor_value(F(1, 2)) == F(1, 2)


def test_riesz_value_examples():
    assert oracle.riesz_value(F(1, 4), F(1, 2)) == F(1, 4)
    assert oracle.riesz_value(F(1, 4), F(3, 4)) == F(7, 16)
    assert oracle.riesz_value(F(1, 4), F(0)) == 0
    assert oracle.riesz_value(F(1, 4), F(1)) == 1
    with pytest.raises(ValueError):
        oracle.riesz_value(F(1, 4), F(1, 3))


def test_raster_validation_and_grid():
    r = oracle.identity_raster(3)
    assert len(r.values) == 9
    assert r.x(4) == F(1, 2)
    t = oracle.cantor_raster(2)
    assert t.base == 3
    assert len(t.values) == 10
    with pytest.raises(ValueError):
        oracle.RasterFn(2, (F(0),))


def test_raster_image_measure_identity():
    r = oracle.identity_raster(3)
    lo, hi = oracle.raster_image_measure(r, IntervalUnion.closed(0, F(1, 2)))
    assert lo == hi == F(1, 2)


def test_raster_image_measure_cantor_flat_gap():
    r = oracle.raster_from_fn(oracle.cantor_value, 3)
    # [3/8, 5/8] sits inside the flat central gap
    lo, hi = oracle.raster_image_measure(r, IntervalUnion.closed(F(3, 8), F(5, 8)))
    assert lo == hi == 0


def test_raster_image_measure_riesz_bracket():
    r = oracle.riesz_raster(F(1, 4), 8)
    lo, hi = oracle.raster_image_measure(r, IntervalUnion.closed(0, F(1, 2)))
    assert lo <= F(1, 4) <= hi
    assert lo == hi == F(1, 4)  # endpoints on the grid make it exact
    # off-grid endpoints widen the bracket but keep it valid
    lo2, hi2 = oracle.raster_image_measure(
        r, IntervalUnion.closed(F(1, 1024), F(1, 2)))
    assert lo2 <= F(1, 4) - oracle.riesz_value(F(1, 4), F(1, 1024)) <= hi2
    assert lo2 <= hi2


def test_naive_polyline_segment():
    r = oracle.identity_raster(4)
    got = oracle.naive_polyline([r], 4)
    assert abs(float(got) - math.sqrt(2.0)) < 1e-40 + 1e-15


def test_naive_polyline_cantor_matches_closed_form():
    for d in (1, 2, 3, 10):
        naive = oracle.naive_polyline([oracle.cantor_raster(d)], d)
        closed = oracle.cantor_closed_form_length(d)
        assert abs(naive - closed) < F(1, 10 ** 40)


def test_cantor_closed_form_series():
    values = [oracle.cantor_closed_form_length(d) for d in range(1, 11)]
    assert all(u <= v for u, v in zip(values, values[1:]))
    assert values[-1] < 2
    assert abs(float(values[-1]) - 1.982809) < 1e-6


def test_brute_cover_sum_interval_cases():
    assert oracle.brute_cover_sum(IntervalUnion.closed(0, 1), F(1, 4)) == 1
    cover = IntervalUnion(
        Interval(F(a, 9), F(b, 9)) for a, b in ((0, 1), (2, 3), (6, 7), (8, 9))
    )
    assert oracle.brute_cover_sum(cover, F(1, 9)) == F(4, 9)


def test_brute_cover_sum_point_cases():
    assert oracle.brute_cover_sum([F(0), F(1)], F(1, 4)) == 0
    assert oracle.brute_cover_sum([F(0), F(1, 8), F(1)], F(1, 4)) == F(1, 8)
    assert oracle.brute_cover_sum([], F(1, 2)) == 0
    with pytest.raises(ValueError):
        oracle.brute_cover_sum([F(0)], 0)


def test_collapsed_riesz_length_matches_naive():
    a = F(1, 4)
    for d in (2, 6, 10):
        collapsed = oracle.collapsed_riesz_length(a, d)
        naive = oracle.naive_polyline([oracle.riesz_raster(a, d)], d)
        assert abs(collapsed - naive) < F(1, 10 ** 40)
