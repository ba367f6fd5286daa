"""Exact interval arithmetic: intervals, unions, measures, rationals."""

import random
from fractions import Fraction

import pytest

from dbecurves.exact import (
    Interval,
    IntervalUnion,
    decimal_str,
    format_rational,
    parse_rational,
)

F = Fraction


def test_parse_and_format_rational():
    assert parse_rational("2/3") == F(2, 3)
    assert parse_rational("5") == F(5)
    assert parse_rational(" -1/4 ") == F(-1, 4)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    assert format_rational(F(2)) == "2/1"
    assert format_rational(F(1, 3)) == "1/3"
    assert parse_rational(format_rational(F(-7, 12))) == F(-7, 12)


def test_decimal_str_exact():
    assert decimal_str(F(1, 2)) == "0.5"
    assert decimal_str(F(3)) == "3"
    assert decimal_str(F(1, 8)) == "0.125"
    assert decimal_str(F(7, 5)) == "1.4"
    assert decimal_str(F(-3, 16)) == "-0.1875"
    assert decimal_str(F(1, 10 ** 6)) == "0.000001"
    with pytest.raises(ValueError):
        decimal_str(F(1, 3))


def test_interval_basic():
    iv = Interval.closed(0, 1)
    assert iv.diam == 1
    assert iv.contains(F(1, 2))
    assert iv.contains(0) and iv.contains(1)
    op = Interval.open(0, 1)
    assert not op.contains(0) and not op.contains(1)
    assert op.contains(F(1, 2))
    pt = Interval.point(F(1, 3))
    assert pt.diam == 0 and pt.contains(F(1, 3))
    with pytest.raises(ValueError):
        Interval(1, 0)


def test_interval_str_and_json_roundtrip():
    iv = Interval(F(1, 4), F(3, 4), lo_closed=False, hi_closed=True)
    assert str(iv) == "(1/4,3/4]"
    assert Interval.from_json(iv.to_json()) == iv


def test_union_subtract_is_exact_on_open_endpoints():
    u = IntervalUnion.closed(0, 1) - IntervalUnion.closed(F(1, 4), F(3, 4))
    assert str(u) == "[0,1/4) u (3/4,1]"
    assert u.measure() == F(1, 2)
    assert not u.contains(F(1, 4))
    assert not u.contains(F(3, 4))
    assert u.contains(F(1, 8))
    # subtracting it back out yields the middle
    mid = IntervalUnion.closed(0, 1) - u
    assert mid == IntervalUnion.closed(F(1, 4), F(3, 4))


def test_union_merges_touching_components():
    a = IntervalUnion((Interval(F(0), F(1, 2), hi_closed=False),))
    b = IntervalUnion.closed(F(1, 2), 1)
    assert (a | b) == IntervalUnion.closed(0, 1)
    # open-open at the same point leaves a pinhole
    c = IntervalUnion((Interval(F(0), F(1, 2), hi_closed=False),))
    d = IntervalUnion((Interval(F(1, 2), F(1), lo_closed=False),))
    merged = c | d
    assert len(merged) == 2
    assert not merged.contains(F(1, 2))
    assert merged.measure() == 1


def test_union_intersect():
    a = IntervalUnion.closed(0, F(1, 2)) | IntervalUnion.closed(F(3, 4), 1)
    b = IntervalUnion.closed(F(1, 4), F(7, 8))
    got = a & b
    want = IntervalUnion.closed(F(1, 4), F(1, 2)) | IntervalUnion.closed(F(3, 4), F(7, 8))
    assert got == want
    assert got.measure() == F(3, 8)


def test_union_point_components_have_measure_zero():
    u = IntervalUnion.point(F(1, 3)) | IntervalUnion.closed(F(1, 2), 1)
    assert u.measure() == F(1, 2)
    assert u.contains(F(1, 3))


def test_subset_and_intersects():
    big = IntervalUnion.closed(0, 1)
    small = IntervalUnion.closed(F(1, 8), F(1, 4))
    assert small.subset_of(big)
    assert not big.subset_of(small)
    assert small.intersects(big)
    gap = IntervalUnion.closed(F(1, 2), F(3, 4))
    assert not small.intersects(gap)


def test_union_json_roundtrip():
    u = IntervalUnion.closed(0, F(1, 3)) | IntervalUnion(
        (Interval(F(1, 2), F(2, 3), lo_closed=False),)
    )
    assert IntervalUnion.from_json(u.to_json()) == u


def test_inclusion_exclusion_randomized():
    rng = random.Random(4821)
    for _ in range(200):
        def rand_union():
            k = rng.randint(1, 3)
            pts = sorted(rng.sample(range(0, 65), 2 * k))
            comps = []
            for i in range(k):
                lo, hi = F(pts[2 * i], 64), F(pts[2 * i + 1], 64)
                comps.append(Interval(lo, hi,
                                      lo_closed=rng.random() < 0.8,
                                      hi_closed=rng.random() < 0.8))
            return IntervalUnion(comps)

        a, b = rand_union(), rand_union()
        assert (a | b).measure() + (a & b).measure() == a.measure() + b.measure()
        assert (a - b).measure() == a.measure() - (a & b).measure()
        assert a - (a - b) == (a & b)
        assert (a - b) | (a & b) | (b - a) == (a | b)
