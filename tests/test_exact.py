"""Exact interval arithmetic: intervals, unions, measures, rationals."""

import random
from fractions import Fraction

import pytest

from dbecurves.curves import build_extremal_curve
from dbecurves.exact import (
    Interval,
    IntervalUnion,
    _end_cut,
    _pred,
    _start_cut,
    _succ,
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


def _loop_decimal_str(x):
    """Reference: `decimal_str` counting the factors of two by division and
    scaling the numerator by 10^digits // den."""
    num, den = x.numerator, x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError
    digits = max(twos, fives)
    scaled = num * 10 ** digits // x.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled))
    if digits == 0:
        return sign + text
    text = text.rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def test_decimal_str_equals_the_division_loop():
    rng = random.Random(34)
    values = [F(0), F(-7), F(12), F(5 ** 9), F(-1, 5 ** 7), F(3, 2 ** 5 * 5 ** 11),
              F(-(2 ** 80) - 1, 2 ** 80), F(1, 2 ** 200 * 5 ** 3)]
    for _ in range(300):
        num = rng.randrange(-(1 << 140), 1 << 140)
        values.append(F(num, 2 ** rng.randrange(150) * 5 ** rng.randrange(8)))
    for _ in range(200):  # more fives than twos, and the reverse
        num = rng.randrange(-(1 << 210), 1 << 210)
        values.append(F(num, 2 ** rng.randrange(60) * 5 ** rng.randrange(100)))
    for _ in range(100):  # 200-bit dyadics, as the length bounds print them
        values.append(F(rng.randrange(-(1 << 202), 1 << 202), 1 << 200))
    for x in values:
        assert decimal_str(x) == _loop_decimal_str(x), x
    for x in (F(1, 3), F(-5, 2 ** 70 * 7), F(1, 5 ** 4 * 11)):
        with pytest.raises(ValueError, match="no terminating decimal"):
            decimal_str(x)


def test_interval_basic():
    iv = Interval.closed(0, 1)
    assert iv.diam == 1
    assert iv.contains(F(1, 2))
    assert iv.contains(0) and iv.contains(1)
    op = Interval(0, 1, False, False)
    assert not op.contains(0) and not op.contains(1)
    assert op.contains(F(1, 2))
    pt = Interval(F(1, 3), F(1, 3))
    assert pt.diam == 0 and pt.contains(F(1, 3))
    with pytest.raises(ValueError):
        Interval(1, 0)


def test_interval_str_and_json_roundtrip():
    iv = Interval(F(1, 4), F(3, 4), lo_closed=False, hi_closed=True)
    assert str(iv) == "(1/4,3/4]"
    assert iv.to_json() == {"lo": "1/4", "hi": "3/4",
                            "lo_closed": False, "hi_closed": True}


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
    u = IntervalUnion.closed(F(1, 3), F(1, 3)) | IntervalUnion.closed(F(1, 2), 1)
    assert u.measure() == F(1, 2)
    assert u.contains(F(1, 3))


def intersects(u: IntervalUnion, v: IntervalUnion) -> bool:
    """u and v share a point (a test helper built on `intersect`)."""
    return not u.intersect(v).is_empty


def subset_of(u: IntervalUnion, v: IntervalUnion) -> bool:
    """u lies inside v (a test helper built on `subtract`)."""
    return u.subtract(v).is_empty


def test_subset_and_intersects():
    big = IntervalUnion.closed(0, 1)
    small = IntervalUnion.closed(F(1, 8), F(1, 4))
    assert subset_of(small, big)
    assert not subset_of(big, small)
    assert intersects(small, big)
    gap = IntervalUnion.closed(F(1, 2), F(3, 4))
    assert not intersects(small, gap)
    # a shared closed end is a shared point; a shared open end is not
    assert intersects(small, IntervalUnion.closed(F(1, 4), F(1, 2)))
    assert not intersects(small, IntervalUnion((Interval(F(1, 4), F(1, 2), lo_closed=False),)))


def test_union_json_roundtrip():
    u = IntervalUnion.closed(0, F(1, 3)) | IntervalUnion(
        (Interval(F(1, 2), F(2, 3), lo_closed=False),)
    )
    assert u.to_json() == [
        {"lo": "0/1", "hi": "1/3", "lo_closed": True, "hi_closed": True},
        {"lo": "1/2", "hi": "2/3", "lo_closed": False, "hi_closed": True},
    ]


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


def _subtract_reference(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Reference: every component of b re-splits every piece left so far."""
    pieces = list(a.components)
    for j in b.components:
        js, je = _start_cut(j), _end_cut(j)
        nxt = []
        for p in pieces:
            ps, pe = _start_cut(p), _end_cut(p)
            if je < ps or pe < js:
                nxt.append(p)
                continue
            if ps < js:
                nxt.append(Interval._from_cuts(ps, min(pe, _pred(js))))
            if je < pe:
                nxt.append(Interval._from_cuts(max(ps, _succ(je)), pe))
        pieces = nxt
    return IntervalUnion(pieces)


def _grid_union(rng, den, max_parts, max_len):
    """Possibly empty union of intervals and points on the grid k/den."""
    parts = []
    for _ in range(rng.randint(0, max_parts)):
        lo = rng.randint(0, den)
        hi = min(den, lo + rng.randint(0, max_len))
        closed = lo == hi or rng.random() < 0.5
        parts.append(Interval(F(lo, den), F(hi, den),
                              lo_closed=closed or rng.random() < 0.5,
                              hi_closed=closed or rng.random() < 0.5))
    return IntervalUnion(parts)


def _check_points(*unions):
    """Every cut value of the unions, their midpoints, and a point either side."""
    vals = sorted({v for u in unions for c in u.components for v in (c.lo, c.hi)}
                  | {F(-1), F(2)})
    return vals + [(u + v) / 2 for u, v in zip(vals, vals[1:])]


def test_subtract_merge_matches_nested_loop_reference():
    rng = random.Random(9104)
    spans = 0
    for _ in range(2500):
        a = _grid_union(rng, 16, 6, 4)
        b = _grid_union(rng, 16, 4, rng.choice((1, 4, 12)))
        got = a - b
        assert got == _subtract_reference(a, b)
        for x in _check_points(a, b):
            assert got.contains(x) == (a.contains(x) and not b.contains(x))
        spans += any(len(a & IntervalUnion((c,))) >= 2 for c in b.components)
    assert spans > 200


@pytest.mark.parametrize("a", [F(1, 4), F(1, 16)])
def test_one_shot_n_trunc_and_q1_match_the_folds(a):
    for n in (4, 5, 6):
        curve = build_extremal_curve(n, a, M=4, staircase_depth=2)
        for f, n_trunc in zip(curve.mappers, curve.n_truncs, strict=True):
            fold = IntervalUnion.empty()
            for t in f.terms[:-1]:
                fold = fold.union(IntervalUnion(c.iv for c in t.leaves()))
            assert n_trunc == fold
        q1 = IntervalUnion.closed(0, 1)
        for w in curve.w_domains:
            q1 = _subtract_reference(q1, w)
        assert curve.q1 == q1

