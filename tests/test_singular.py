"""Singular functions, staircase trees, and full-measure mappers."""

import itertools
import json
import math
import random
import sys
import threading
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from dbecurves import oracle, singular, trials
from dbecurves.oracle import riesz_nagy_inverse
from dbecurves.curves import build_extremal_curve, curve_from_json, curve_to_json
from dbecurves.exact import (
    _ABOVE, _AT, _BELOW, Interval, IntervalUnion, _end_cut, _start_cut)
from dbecurves.singular import (
    Affine,
    Cantor,
    Composition,
    ConstructionError,
    IntervalStaircase,
    NotEvaluableError,
    PiecewiseLinear,
    RieszNagy,
    RieszNagyImageGrid,
    StairCell,
    WeightedSum,
    _Excluded,
    _cut_over,
    _find_children,
    _rational_intervals,
    build_full_measure_mapper,
    build_interval_staircase,
    eval_cantor,
    eval_riesz_nagy,
    fn_from_json,
    grid_from_json,
    image_measure,
)
from test_exact import intersects

F = Fraction


# -- Cantor function --------------------------------------------------------


def test_cantor_frozen_values():
    assert eval_cantor(F(0)) == 0
    assert eval_cantor(F(1)) == 1
    assert eval_cantor(F(1, 3)) == F(1, 2)
    assert eval_cantor(F(2, 3)) == F(1, 2)
    assert eval_cantor(F(1, 2)) == F(1, 2)
    assert eval_cantor(F(1, 4)) == F(1, 3)
    assert eval_cantor(F(3, 4)) == F(2, 3)
    assert eval_cantor(F(1, 9)) == F(1, 4)


def test_cantor_matches_independent_walk():
    rng = random.Random(911)
    for _ in range(120):
        den = rng.randint(2, 1000)
        num = rng.randint(0, den)
        x = F(num, den)
        assert eval_cantor(x) == oracle.cantor_value(x), x


def test_cantor_monotone_and_flat_on_gaps():
    xs = [F(k, 81) for k in range(82)]
    vals = [eval_cantor(x) for x in xs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert eval_cantor(F(10, 27)) == eval_cantor(F(17, 27)) == F(1, 2)


def test_cantor_rejects_outside_domain():
    with pytest.raises(ValueError):
        eval_cantor(F(-1, 2))
    with pytest.raises(ValueError):
        eval_cantor(F(3, 2))


# -- Riesz-Nagy family ------------------------------------------------------


def test_riesz_nagy_frozen_values():
    a = F(1, 4)
    assert eval_riesz_nagy(a, F(0)) == 0
    assert eval_riesz_nagy(a, F(1)) == 1
    assert eval_riesz_nagy(a, F(1, 2)) == F(1, 4)
    assert eval_riesz_nagy(a, F(3, 4)) == F(7, 16)
    assert eval_riesz_nagy(a, F(1, 4)) == F(1, 16)


def test_riesz_nagy_matches_digit_product_oracle():
    for a in (F(1, 4), F(2, 5), F(3, 4)):
        for k in range(0, 129):
            x = F(k, 128)
            assert eval_riesz_nagy(a, x) == oracle.riesz_value(a, x), (a, x)


@pytest.mark.parametrize("a", [F(1, 4), F(3, 8), F(1, 3), F(2, 7), F(5, 9),
                               F(1, 1000), F(999, 1000), F(1, 1024), F(1023, 1024)])
def test_riesz_nagy_level_matches_oracle_and_halving_walk(a):
    # a dense dyadic column reads one level of the integer recursion
    f = RieszNagy(a)
    den, top = f.column(1024, range(1025))
    for k, v in enumerate(top):
        x = F(k, 1024)
        assert F(v, den) == eval_riesz_nagy(a, x) == oracle.riesz_value(a, x), (a, x)
    # every coarser level is the finest one at the shared points k/2^d
    for d in range(10):
        dd, level = f.column(1 << d, range((1 << d) + 1))
        assert [F(v, dd) for v in level] == [F(v, den) for v in top[::1 << (10 - d)]]


def test_riesz_nagy_level_rejects_bad_input():
    for a in (F(0), F(1), F(3, 2)):
        with pytest.raises(ValueError):
            RieszNagy(a)
    # a column over a denominator that is no power of two reads no level
    with pytest.raises(NotEvaluableError):
        RieszNagy(F(1, 3)).column(3, range(4))


def test_riesz_nagy_needs_dyadic_input():
    with pytest.raises(NotEvaluableError):
        eval_riesz_nagy(F(1, 4), F(1, 3))


def test_riesz_nagy_strictly_increasing_on_dyadics():
    a = F(1, 4)
    vals = [eval_riesz_nagy(a, F(k, 64)) for k in range(65)]
    assert all(u < v for u, v in zip(vals, vals[1:]))


def test_riesz_nagy_inverse_roundtrip():
    a = F(1, 4)
    for k in range(0, 33):
        x = F(k, 32)
        y = eval_riesz_nagy(a, x)
        assert riesz_nagy_inverse(a, y) == x
    assert riesz_nagy_inverse(a, F(7, 16)) == F(3, 4)


def test_riesz_nagy_inverse_off_image_raises():
    with pytest.raises(NotEvaluableError):
        riesz_nagy_inverse(F(1, 4), F(1, 3), max_steps=64)


# -- the digit walk against the two loops it replaced ------------------------


def _cantor_reference(x) -> F:
    """The ternary walk with cycle detection that eval_cantor used to run."""
    x = F(x)
    if not (0 <= x <= 1):
        raise NotEvaluableError("eval_cantor needs x in [0,1]")
    if x == 1:
        return F(1)
    num, den = x.numerator, x.denominator
    pre, d3 = 0, den
    while d3 % 3 == 0:
        d3 //= 3
        pre += 1
    bits = i = 0
    anchor = anchor_i = anchor_bits = None
    while True:
        if num == 0:
            return F(bits, 1 << i)
        if anchor is None:
            if i == pre:
                anchor, anchor_i, anchor_bits = num, i, bits
        elif num == anchor:
            period = i - anchor_i
            tail = F(bits - (anchor_bits << period), (1 << period) - 1)
            return (anchor_bits + tail) / (1 << anchor_i)
        dgt, num = divmod(3 * num, den)
        i += 1
        if dgt == 1:
            return F((bits << 1) | 1, 1 << i)
        bits = (bits << 1) | (dgt >> 1)


def _riesz_nagy_reference(a, x) -> F:
    """The Fraction halving recursion that eval_riesz_nagy used to run."""
    a, x = F(a), F(x)
    if not (0 < a < 1):
        raise ValueError("need 0 < a < 1")
    if not (0 <= x <= 1):
        raise NotEvaluableError("eval_riesz_nagy needs x in [0,1]")
    if x.denominator & (x.denominator - 1):
        raise NotEvaluableError(f"R_a is exactly evaluable only at dyadic x, got {x}")
    off, scale = F(0), F(1)
    while x not in (0, 1):
        if x <= F(1, 2):
            scale *= a
            x = 2 * x
        else:
            off += scale * a
            scale *= 1 - a
            x = 2 * x - 1
    return off + scale if x == 1 else off


def test_cantor_walk_equals_the_ternary_reference():
    rng = random.Random(27)
    xs = [F(k, m) for m in range(1, 201) for k in range(m + 1)]
    for _ in range(1500):
        m = rng.randint(1, 10**6)
        xs.append(F(rng.randint(0, m), m))
    for e in range(1, 40):
        for m in (2**e, 3**e, 2**e * 3**(e // 2)):
            xs += [F(1, m), F(m - 1, m), F(rng.randint(0, m), m)]
    # flat thirds, and periodic tails after a preperiod of ternary digits
    xs += [F(1, 3), F(2, 3), F(10, 27), F(17, 27), F(1, 12), F(3, 4) / 27,
           F(1, 10) / 27, F(1, 13) / 9 + F(2, 3), F(7, 10) / 243, F(1, 28) / 9 + F(2, 9)]
    for x in xs:
        assert eval_cantor(x) == _cantor_reference(x), x


@pytest.mark.parametrize("a", [F(1, 4), F(1, 3), F(3, 4), F(2, 5), F(2, 7), F(5, 16),
                               F(999, 1000), F(1, 1024)])
def test_riesz_nagy_walk_equals_the_halving_reference(a):
    rng = random.Random(str(a))
    xs = [F(k, 64) for k in range(65)]
    for e in range(7, 61):
        xs += [F(1, 2**e), F(2**e - 1, 2**e)]
        xs += [F(rng.randint(0, 2**e), 2**e) for _ in range(8)]
    for x in xs:
        assert eval_riesz_nagy(a, x) == _riesz_nagy_reference(a, x), x


@pytest.mark.parametrize("fn, ref, args", [
    (eval_cantor, _cantor_reference, (F(-1, 3),)),
    (eval_cantor, _cantor_reference, (F(4, 3),)),
    (eval_riesz_nagy, _riesz_nagy_reference, (F(1, 4), F(-1, 2))),
    (eval_riesz_nagy, _riesz_nagy_reference, (F(1, 4), F(3, 2))),
    (eval_riesz_nagy, _riesz_nagy_reference, (F(0), F(1, 2))),
    (eval_riesz_nagy, _riesz_nagy_reference, (F(1), F(1, 2))),
    (eval_riesz_nagy, _riesz_nagy_reference, (F(5, 4), F(1, 2))),
    (eval_riesz_nagy, _riesz_nagy_reference, (F(1, 4), F(1, 3))),
    (eval_riesz_nagy, _riesz_nagy_reference, (F(1, 4), F(5, 12))),
], ids=["cantor-below", "cantor-above", "riesz-below", "riesz-above", "weight-0",
        "weight-1", "weight-above-1", "riesz-third", "riesz-non-dyadic"])
def test_walk_errors_keep_the_reference_type_and_message(fn, ref, args):
    with pytest.raises(Exception) as want:
        ref(*args)
    with pytest.raises(Exception) as got:
        fn(*args)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


# -- function wrappers ------------------------------------------------------


def test_monotone_fn_wrappers():
    a = F(1, 4)
    r = RieszNagy(a)
    assert r(F(1, 2)) == F(1, 4)
    assert r.strictly_monotone and r.increasing
    c = Cantor()
    assert c(F(1, 4)) == F(1, 3)
    assert not c.strictly_monotone
    aff = Affine(F(-2), F(1))
    assert aff(F(1, 4)) == F(1, 2)
    assert not aff.increasing
    ident = Affine(1, 0)
    assert ident(F(5, 7)) == F(5, 7)
    comp = Composition(r, ident)
    assert comp(F(1, 2)) == F(1, 4)


def test_piecewise_linear_eval_and_pieces():
    pl = PiecewiseLinear(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1))))
    assert pl(F(1, 4)) == F(1, 2)
    assert pl(F(3, 4)) == F(1)
    pieces = list(pl.pieces())
    assert pieces[0][1] == 2 and pieces[1][1] == 0
    with pytest.raises(ValueError):
        PiecewiseLinear(((F(0), F(0)), (F(0), F(1))))
    with pytest.raises(ValueError):
        PiecewiseLinear(((F(0), F(1)), (F(1), F(0))))


def test_weighted_sum_increments():
    ws = WeightedSum((Affine(1, 0), RieszNagy(F(1, 4))), (F(1, 2), F(1, 2)))
    assert ws(F(1, 2)) == F(1, 2) * F(1, 2) + F(1, 2) * F(1, 4)
    assert ws.strictly_monotone
    with pytest.raises(ValueError):
        WeightedSum((Affine(1, 0),), (F(3, 2),))


def test_image_measure():
    u = IntervalUnion.closed(0, F(1, 2))
    assert image_measure(Affine(1, 0), u) == F(1, 2)
    assert image_measure(RieszNagy(F(1, 4)), u) == F(1, 4)
    two = IntervalUnion.closed(0, F(1, 4)) | IntervalUnion.closed(F(1, 2), 1)
    assert image_measure(RieszNagy(F(1, 4)), two) == F(1, 16) + F(3, 4)


def _pointwise(f, x):
    """f(x) without any column: a weighted sum adds its terms, a composition
    nests them, and a staircase is its leaf count plus the oracle's climb.
    Cantor, R_a, affine and piecewise-linear functions are their own call."""
    x = F(x)
    if isinstance(f, WeightedSum):
        return sum((w * _pointwise(t, x) for t, w in zip(f.terms, f.weights)), F(0))
    if isinstance(f, Composition):
        return _pointwise(f.outer, _pointwise(f.inner, x))
    if isinstance(f, IntervalStaircase):
        return _count_plus_climb(f, x)
    return f(x)


def _pointwise_image_measure(f, u):
    return sum((abs(_pointwise(f, c.hi) - _pointwise(f, c.lo)) for c in u.components), F(0))


@pytest.mark.parametrize("a", [F(1, 4), F(2, 7)])
def test_image_measure_column_matches_pointwise_endpoints(a):
    for n in (4, 5, 6):
        curve = build_extremal_curve(n, a, M=5, staircase_depth=2)
        back = curve_from_json(json.loads(json.dumps(curve_to_json(curve))))
        for f, n_trunc in [*zip(curve.mappers, curve.n_truncs, strict=True),
                           *zip(back.mappers, back.n_truncs, strict=True)]:
            got = image_measure(f, n_trunc)
            assert got == _pointwise_image_measure(f, n_trunc)
            assert got >= 1 - F(1, 32)
            # endpoints strictly inside leaf cells take the pointwise branch
            inner = IntervalUnion(Interval(c.lo + c.diam / 3, c.hi - c.diam / 5)
                                  for c in n_trunc.components)
            assert image_measure(f, inner) == _pointwise_image_measure(f, inner)


def test_image_measure_of_piecewise_linear_on_open_ends():
    f = PiecewiseLinear(((F(0), F(0)), (F(1, 4), F(1, 2)), (F(3, 4), F(5, 8)),
                         (F(1), F(1))))
    u = IntervalUnion((Interval(F(0), F(1, 8), hi_closed=False),
                       Interval(F(1, 4), F(1, 2), lo_closed=False, hi_closed=False),
                       Interval(F(5, 8), F(5, 8)),
                       Interval(F(3, 4), F(1), lo_closed=False)))
    assert image_measure(f, u) == _pointwise_image_measure(f, u)
    assert image_measure(f, u) == F(1, 4) + F(1, 16) + F(3, 8)


def test_fn_json_roundtrip():
    fns = [
        Cantor(),
        RieszNagy(F(2, 5)),
        Affine(F(1, 2), F(1, 8)),
        Affine(1, 0),
        PiecewiseLinear(((F(0), F(0)), (F(1), F(2)))),
        WeightedSum((Affine(1, 0), Cantor()), (F(1, 4), F(1, 2))),
        Composition(RieszNagy(F(1, 4)), Affine(1, 0)),
    ]
    for fn in fns:
        back = fn_from_json(fn.to_json())
        assert back.to_json() == fn.to_json()
        x = F(3, 8)
        assert back(x) == fn(x)


# -- the integer column protocol ----------------------------------------------


def _thresholds(bounds, den):
    """Numerators at and one away from floor(b * den) and ceil(b * den)."""
    out = set()
    for b in bounds:
        floor = b.numerator * den // b.denominator
        ceil = -(-b.numerator * den // b.denominator)
        out.update((floor - 1, floor, ceil, ceil + 1))
    return out


def _column_points(f, den, rng):
    """A sorted column over den: leaf bounds and knots of f exactly and one
    numerator off, points strictly inside its leaves, and random points."""
    bounds, leaves = [], []
    for t in getattr(f, "terms", (f,)):
        if isinstance(t, IntervalStaircase):
            bounds += [t.root.lo, t.root.hi]
            for c in t.leaves():
                bounds += [c.iv.lo, c.iv.hi]
                leaves += [c.iv.lo + c.iv.diam / 3, (c.iv.lo + c.iv.hi) / 2]
        elif isinstance(t, PiecewiseLinear):
            bounds += [x for x, _ in t.knots]
    nums = _thresholds(bounds, den) | _thresholds(leaves, den)
    nums |= {0, den, *(rng.randint(0, den) for _ in range(40))}
    return sorted(v for v in nums if 0 <= v <= den)


def _assert_column_is_pointwise(f, den, nums):
    want = [_pointwise(f, F(v, den)) for v in nums]
    for g in (f, fn_from_json(json.loads(json.dumps(f.to_json())))):
        d, got = g.column(den, nums)
        assert type(d) is int and d > 0 and all(type(v) is int for v in got)
        assert [F(v, d) for v in got] == want


def _column_cases():
    """(f, dens) for every component kind; R_a reads only dyadic columns."""
    c = build_extremal_curve(4, a=F(3, 8), M=3)
    mapper = c.mappers[0]
    stair = mapper.terms[0]
    pl = PiecewiseLinear(((F(0), F(0)), (F(1, 3), F(1, 5)), (F(5, 7), F(3, 11)),
                          (F(1), F(1))))
    # one denominator puts every leaf bound on an integer, the others do not
    exact = math.lcm(*(b.denominator for cell in stair.leaves()
                       for b in (cell.iv.lo, cell.iv.hi)))
    dens = (exact, 1 << 9, 3 ** 8 * 7)
    return [
        (Cantor(), dens),
        (RieszNagy(F(2, 7)), (1 << 10,)),
        (Affine(F(3, 5), F(1, 7)), dens),
        (Affine(-1, 1), dens),
        (pl, (105, 1 << 9, 3 ** 8 * 7)),
        (stair, dens),
        (mapper, dens),
        # non-affine, non-staircase terms beside a staircase and the identity
        (WeightedSum((stair, Cantor(), pl, Affine(1, 0)),
                     (F(1, 4), F(1, 8), F(1, 3), F(1, 16))), dens),
        (WeightedSum((mapper, RieszNagy(F(3, 8))), (F(1, 2), F(1, 2))), (1 << 9,)),
        (Composition(mapper, RieszNagy(F(3, 8))), (1 << 9,)),
        (Composition(mapper, Affine(-1, 1)), dens),  # decreasing inner
        (Composition(Affine(-1, 1), Affine(F(-1, 2), F(1, 2))), dens),
    ]


def test_integer_columns_equal_pointwise_evaluation():
    rng = random.Random(5)
    for f, dens in _column_cases():
        for den in dens:
            _assert_column_is_pointwise(f, den, _column_points(f, den, rng))
            _assert_column_is_pointwise(f, den, [])


def test_composition_column_equals_pointwise_evaluation():
    rng = random.Random(7)
    mapper = build_extremal_curve(4, a=F(3, 8), M=3).mappers[0]
    # knots at thirds: over 3 * 2^k every value is dyadic, so R_a can read it
    thirds = PiecewiseLinear(((F(0), F(0)), (F(1, 3), F(1, 8)), (F(2, 3), F(1, 2)),
                              (F(1), F(1))))
    pl = PiecewiseLinear(((F(0), F(0)), (F(1, 3), F(1, 5)), (F(5, 7), F(3, 11)),
                          (F(1), F(1))))
    inners = [
        (RieszNagy(F(3, 8)), [(1 << 9, _random_column(rng, 1 << 9, 600)),  # dense
                              (1 << 12, _random_column(rng, 1 << 12, 3))]),  # sparse
        (thirds, [(3 << 7, _random_column(rng, 3 << 7, 200, (128, 256)))]),
        (Affine(-1, 1), [(1 << 9, _random_column(rng, 1 << 9, 200))]),  # decreasing
    ]
    for outer in (RieszNagy(F(2, 7)), pl, mapper):
        for inner, columns in inners:
            for den, nums in columns:
                _assert_column_is_pointwise(Composition(outer, inner), den, nums)
    ws = WeightedSum((Composition(mapper, RieszNagy(F(3, 8))), Affine(1, 0), Cantor()),
                     (F(1, 2), F(1, 4), F(1, 8)))
    _assert_column_is_pointwise(ws, 1 << 9, _random_column(rng, 1 << 9, 600))


def _leaf_places(stair, den, nums):
    """(#{i : hi_i <= y}, whether y lies strictly inside a leaf) per y = v / den."""
    leaves = [(c.iv.lo, c.iv.hi) for c in stair.leaves()]
    return [(sum(hi <= y for _, hi in leaves), any(lo < y < hi for lo, hi in leaves))
            for y in (F(v, den) for v in nums)]


def test_integer_columns_reach_inside_leaves_and_both_sides_of_bounds():
    c = build_extremal_curve(4, a=F(3, 8), M=3)
    stair = c.mappers[0].terms[0]
    for den in (1 << 9, 3 ** 8 * 7):
        nums = _column_points(stair, den, random.Random(5))
        places = _leaf_places(stair, den, nums)
        assert any(inside for _, inside in places)
        assert len({i for i, inside in places if not inside}) > 3


def _inside_leaves(stairs, den):
    """Numerators over den strictly inside the leaves of the staircases: the
    first and last in each leaf that has any, and one between them."""
    nums = set()
    for t in stairs:
        for c in t.leaves():
            lo = c.iv.lo.numerator * den // c.iv.lo.denominator + 1
            hi = -(-c.iv.hi.numerator * den // c.iv.hi.denominator) - 1
            if lo <= hi:
                nums |= {lo, (lo + hi) // 2, hi}
    return sorted(nums)


def _fine_den(stair):
    """4 times the lcm of the leaf bounds' denominators: every leaf holds at
    least three numerators over it."""
    return 4 * math.lcm(*(b.denominator for c in stair.leaves() for b in (c.iv.lo, c.iv.hi)))


def test_climb_column_with_points_only_inside_leaves():
    # every point lies strictly inside a leaf, so each leaf's change of the
    # run constant lands on the first point inside the next leaf
    stair = build_extremal_curve(4, a=F(3, 8), M=3).mappers[0].terms[0]
    den = _fine_den(stair)
    nums = _inside_leaves([stair], den)
    assert len(nums) == 3 << stair.depth
    assert all(inside for _, inside in _leaf_places(stair, den, nums))
    _assert_column_is_pointwise(WeightedSum((stair, Affine(1, 0)), (F(1, 2), F(1, 3))),
                                den, nums)


def test_climb_column_of_one_staircase_twice_with_different_weights():
    stair = build_extremal_curve(4, a=F(3, 8), M=3).mappers[0].terms[0]
    f = WeightedSum((stair, Affine(1, 0), stair), (F(1, 3), F(1, 4), F(1, 6)))
    den = _fine_den(stair)
    rng = random.Random(11)
    for d in (den, 1 << 9, 3 ** 8 * 7):
        _assert_column_is_pointwise(f, d, _column_points(f, d, rng))
    _assert_column_is_pointwise(f, den, _inside_leaves([stair], den))


def test_climb_mapper_column_over_a_non_dyadic_denominator():
    # the column a mapper reads on an a = 2/5 curve: R_a at k / 2^9, over 5^9
    a = F(2, 5)
    mapper = build_extremal_curve(4, a=a).mappers[0]
    stairs = [t for t in mapper.terms if isinstance(t, IntervalStaircase)]
    den, nums = RieszNagy(a).column(1 << 9, range((1 << 9) + 1))
    assert den == 5 ** 9
    assert any(inside for t in stairs for _, inside in _leaf_places(t, den, nums))
    _assert_column_is_pointwise(mapper, den, nums)
    nums = sorted({*nums, *_column_points(mapper, den, random.Random(13)),
                   *_inside_leaves(stairs, den)})
    _assert_column_is_pointwise(mapper, den, nums)


def _count_plus_climb(stair, y):
    """(#{i : hi_i <= y} + [lo < y < hi] * c((y - lo)/(hi - lo))) / 2^depth,
    with c from the oracle."""
    count, climb = 0, F(0)
    for c in stair.leaves():
        lo, hi = c.iv.lo, c.iv.hi
        count += hi <= y
        if lo < y < hi:
            climb = oracle.cantor_value((y - lo) / (hi - lo))
    return (count + climb) / (1 << stair.depth)


def test_staircase_and_mapper_column_equal_the_leaf_count_oracle():
    eps = F(1, 1 << 40)
    first_leaf_at_root = 0
    for n, a in itertools.product((4, 5, 6), (F(3, 8), F(2, 5))):
        for mapper in build_extremal_curve(n, a=a).mappers:
            stairs = [t for t in mapper.terms if isinstance(t, IntervalStaircase)]
            ys = set()
            for t in stairs:
                first_leaf_at_root += t.leaves()[0].iv.lo == t.root.lo
                for c in t.leaves():
                    lo, hi = c.iv.lo, c.iv.hi
                    ys |= {lo, hi, *(lo + u * (hi - lo) for u in (F(1, 4), F(1, 2), F(7, 9)))}
                ys |= {e + s for e in (t.root.lo, t.root.hi) for s in (-eps, 0, eps)}
            ys = [y for y in ys if 0 <= y <= 1]
            # every point exactly, then the lattice points either side of it
            for den in (math.lcm(*(y.denominator for y in ys)), 1 << 12, 3 ** 5 * 5 ** 3):
                nums = sorted({v for y in ys for v in (y.numerator * den // y.denominator,
                                                       -(-y.numerator * den // y.denominator))})
                points = [F(v, den) for v in nums]
                for t in stairs:
                    assert [t(y) for y in points] == [_count_plus_climb(t, y) for y in points]
                got_den, got = mapper.column(den, nums)
                want = [sum(w * (_count_plus_climb(t, y) if t in stairs else t(y))
                            for t, w in zip(mapper.terms, mapper.weights)) for y in points]
                assert [F(v, got_den) for v in got] == want
    assert first_leaf_at_root


def test_integer_column_outside_the_domain_raises_the_pointwise_error():
    pl = PiecewiseLinear(((F(1, 4), F(0)), (F(1, 2), F(1, 3)), (F(3, 4), F(1))))
    for nums in ([0, 4, 8], [2, 3, 4, 6, 7], [3, 4, 6, 7]):
        with pytest.raises(NotEvaluableError) as got:
            pl.column(8, nums)
        bad = next(v for v in nums if not 2 <= v <= 6)
        with pytest.raises(NotEvaluableError) as want:
            pl(F(bad, 8))
        assert str(got.value) == str(want.value)


def _random_column(rng, den, size, must=()):
    """A random non-decreasing column over den with 0, den and `must`, and
    some numerators repeated."""
    nums = [0, den, *must, *(rng.randint(0, den) for _ in range(size))]
    nums += rng.sample(nums, len(nums) // 4)
    return sorted(nums)


@pytest.mark.parametrize("den, size", [(1 << 8, 200), (1 << 12, 5), (3 ** 5 * 7, 60)],
                         ids=["dyadic-dense", "dyadic-sparse", "non-dyadic"])
def test_piecewise_linear_and_riesz_columns_equal_pointwise_evaluation(den, size):
    rng = random.Random(den)
    for _ in range(20):
        pl = trials.random_piecewise_linear(rng, strict=rng.random() < 0.5)
        knots = [x.numerator * den // x.denominator for x, _ in pl.knots
                 if den % x.denominator == 0]
        _assert_column_is_pointwise(pl, den, _random_column(rng, den, size, knots))
    dyadic = den & (den - 1) == 0
    for a in (F(1, 4), F(2, 7), F(3, 4)):
        # off dyadic denominators only 0 and 1 are dyadic points
        nums = _random_column(rng, den, size) if dyadic else [0, 0, den]
        _assert_column_is_pointwise(RieszNagy(a), den, nums)


def test_riesz_column_reads_dense_dyadic_columns_off_one_level(monkeypatch):
    def eval_riesz_nagy(*_):
        raise AssertionError("a dense dyadic column went point by point")
    want = [RieszNagy(F(2, 7))(F(v, 64)) for v in (0, 5, 5, 63, 64)]
    monkeypatch.setattr(singular, "eval_riesz_nagy", eval_riesz_nagy)
    den, got = RieszNagy(F(2, 7)).column(64, [0, 5, 5, 63, 64])
    assert [F(v, den) for v in got] == want
    with pytest.raises(AssertionError, match="point by point"):
        RieszNagy(F(2, 7)).column(1 << 12, [0, 1])


@pytest.mark.parametrize("den, nums", [
    (8, [-1, 0, 5]), (8, [0, 3, 9]), (1 << 12, [7, (1 << 12) + 1]),
    (6, [0, 3, 4, 6]), (6, [0, 3, 7]),
], ids=["dense-below", "dense-above", "sparse-above", "non-dyadic", "non-dyadic-above"])
def test_riesz_column_outside_the_domain_raises_the_pointwise_error(den, nums):
    f = RieszNagy(F(1, 3))
    with pytest.raises(NotEvaluableError) as got:
        f.column(den, nums)
    with pytest.raises(NotEvaluableError) as want:
        for v in nums:
            f(F(v, den))
    assert str(got.value) == str(want.value)


# -- grids ------------------------------------------------------------------


def _split_holds(grid, gens):
    for g in range(gens):
        for k in range(1 << g):
            lo, hi = grid.point(k, g), grid.point(k + 1, g)
            assert grid.point(2 * k, g + 1) == lo
            assert grid.point(2 * k + 1, g + 1) == lo + grid.a * (hi - lo)


def test_dyadic_grid():
    g = RieszNagyImageGrid()
    assert g.a == F(1, 2)
    for gen in range(7):
        assert [g.point(k, gen) for k in range((1 << gen) + 1)] == [
            F(k, 1 << gen) for k in range((1 << gen) + 1)]
    _split_holds(g, 6)
    assert g.to_json() == {"kind": "dyadic"}
    _, tree = build_interval_staircase(Interval.closed(F(1, 8), F(7, 8)),
                                       IntervalUnion.closed(F(1, 4), F(1, 3)), 3)
    blob = json.dumps(tree.to_json())
    assert json.loads(blob)["tree"]["grid"] == {"kind": "dyadic"}
    assert json.dumps(fn_from_json(json.loads(blob)).to_json()) == blob


def test_riesz_image_grid():
    for a in (F(1, 4), F(5, 7), F(1, 16), F(15, 16)):
        g = RieszNagyImageGrid(a)
        assert g.a == a
        assert (g.point(0, 0), g.point(1, 1), g.point(1, 0)) == (0, a, 1)
        assert g.point(3, 3) == eval_riesz_nagy(a, F(3, 8))
        _split_holds(g, 5)
    for a in (0, 1):
        with pytest.raises(ValueError):
            RieszNagyImageGrid(a)
    # R_1/2 is the identity, so a = 1/2 is the dyadic grid
    half = grid_from_json({"kind": "riesz_nagy_image", "a": "1/2"})
    assert half.a == F(1, 2) and half.to_json() == {"kind": "dyadic"}


_SCAN_RETRIES = 3


def _scan_children(grid, parent, width_bound, excluded):
    """Reference for `_find_children`: list every cell of a generation under
    the start via `grid.point` and take the two leftmost admissible cells at
    least two indices apart.

    The first generation is the first one, at least 2 below a parent, where
    every cell under the start fits the width target.  For the root (k = -1)
    the start is the unit cell and the target min(width_bound, diam/8).
    Returns that generation and the pair, or None if no pair shows up within
    _SCAN_RETRIES more generations.
    """
    lo_bound, hi_bound = parent.iv.lo, parent.iv.hi
    if parent.k < 0:
        k0, g_start, target, least = 0, 0, min(width_bound, parent.iv.diam / 8), 0
    else:
        k0, g_start, target, least = parent.k, parent.g, width_bound, 2

    def cells(g):
        shift = g - g_start
        ks = range(k0 << shift, ((k0 + 1) << shift) + 1)
        pts = [grid.point(k, g) for k in ks]
        return [(k, g, Interval(lo, hi)) for k, lo, hi in zip(ks, pts, pts[1:])]

    first = g_start + least
    while max(iv.diam for _, _, iv in cells(first)) > target:
        first += 1
    for g in range(first, first + _SCAN_RETRIES + 1):
        good = [(k, g, iv) for k, g, iv in cells(g)
                if lo_bound <= iv.lo and iv.hi <= hi_bound
                and not intersects(IntervalUnion((iv,)), excluded)]
        later = [c for c in good[1:] if c[0] >= good[0][0] + 2]
        if later:
            return first, [good[0], later[0]]
    return first, None


def _random_excluded(rng, grid, k0, g0, depth):
    """Up to three intervals under the cell (k0, g0), mostly with ends on
    grid points (where cells start and end), with random open/closed flags."""
    comps = []
    for _ in range(rng.randint(0, 3)):
        g = g0 + rng.randint(1, depth)
        i = rng.randrange(k0 << (g - g0), (k0 + 1) << (g - g0))
        j = min(i + rng.randint(1, 4), (k0 + 1) << (g - g0))
        x, y = grid.point(i, g), grid.point(j, g)
        if rng.random() < 0.2:
            y = x + (y - x) * F(rng.randint(1, 9), 10)
        comps.append(Interval(x, y, rng.random() < 0.5, rng.random() < 0.5))
    return IntervalUnion(comps)


_DESCENT_GRIDS = [RieszNagyImageGrid()] + [RieszNagyImageGrid(a) for a in
                                           (F(1, 4), F(5, 7), F(1, 16), F(15, 16))]
_DESCENT_IDS = [g.to_json().get("a", "dyadic") for g in _DESCENT_GRIDS]


@pytest.mark.parametrize("grid", _DESCENT_GRIDS, ids=_DESCENT_IDS)
def test_find_children_matches_brute_force_scan(grid):
    rng = random.Random(str(grid.to_json()))
    shrink = max(grid.a, 1 - grid.a)
    cases = []
    for _ in range(30):
        g = rng.randint(1, 4)
        k = rng.randrange(1 << g)
        parent = StairCell(k, g, Interval(grid.point(k, g), grid.point(k + 1, g)))
        bound = parent.iv.diam * shrink ** rng.randint(1, 5)
        cases.append((parent, bound, _random_excluded(rng, grid, k, g, 6)))
    # a component ends exactly where the first admissible cell starts
    parent = StairCell(1, 1, Interval(grid.point(1, 1), grid.point(2, 1)))
    for closed in (False, True):
        for edge in (grid.point(5, 3), grid.point(11, 4)):
            left = Interval(parent.iv.lo, edge, True, closed)
            right = Interval(grid.point(7, 3), parent.iv.hi, closed, True)
            cases.append((parent, parent.iv.diam, IntervalUnion((left, right))))
    if shrink <= F(3, 4):  # else the root search starts too deep to list
        for _ in range(4):
            lo = F(rng.randint(0, 40), 97)
            root = Interval(lo, lo + F(rng.randint(45, 56), 97))
            cases.append((StairCell(-1, 0, root), F(1, 4),
                          _random_excluded(rng, grid, 0, 0, 7)))
    # components straddling the parent's ends overlap the outside pieces of
    # the cut list.  The search starts three generations down, at the points
    # p[0..8]; an end a third or two fifths of the way between two of them
    # lies off the lattice of every grid here.
    for k, g in ((1, 1), (2, 2), (5, 3)):
        p = [grid.point(8 * k + i, g + 3) for i in range(9)]
        lo, hi = p[0], p[8]
        parent = StairCell(k, g, Interval(lo, hi))
        bound = (hi - lo) * shrink ** 3
        for closed in (False, True):
            for t in (F(0), F(1, 3), F(2, 5)):
                left_end = p[1] + (p[2] - p[1]) * t
                right_start = p[7] - (p[7] - p[6]) * t
                straddle = IntervalUnion((
                    Interval(lo - 1, left_end, True, closed),
                    Interval(right_start, hi + 1, closed, True)))
                cases.append((parent, bound, straddle))
            inner = Interval(p[2] + (p[3] - p[2]) / 3, p[4] + (p[5] - p[4]) * F(2, 5),
                             closed, closed)
            cases.append((parent, bound, IntervalUnion((inner,))))
    if shrink <= F(3, 4):
        root = StairCell(-1, 0, Interval(F(1, 5), F(4, 5)))
        for closed in (False, True):
            straddle = IntervalUnion((Interval(F(1, 10), F(1, 3), True, closed),
                                      Interval(F(2, 3), F(9, 10), closed, True)))
            cases.append((root, F(1, 4), straddle))
    compared = 0
    for parent, bound, excluded in cases:
        first, want = _scan_children(grid, parent, bound, excluded)
        try:
            got = [(c.k, c.g, c.iv) for c in _find_children(
                grid, parent, bound, _Excluded(excluded, grid.a.denominator))]
        except ConstructionError:
            got = None
        if want is None:  # then no pair exists before the reference gave up
            assert got is None or got[0][1] > first + _SCAN_RETRIES
        else:
            assert got == want, (parent, excluded)
            compared += 1
    assert compared >= 0.75 * len(cases)


def _cmp(x, y):
    return (x > y) - (x < y)


@pytest.mark.parametrize("grid", _DESCENT_GRIDS, ids=_DESCENT_IDS)
def test_integer_cut_orders_like_the_fraction_cut(grid):
    q = grid.a.denominator
    for den in (q, q ** 3, 3 * q ** 2):
        for t in (-2, 0, 1, den - 1, den, den + 3):
            on = F(t, den)
            off = [on + F(1, 3 * den), on + F(2, 3 * den), on + F(1, 2 * den),
                   on - F(1, 5 * den)]
            for v in (on, *off):
                for side in (_BELOW, _AT, _ABOVE):
                    cut = _cut_over((v, side), den)
                    floor = math.floor(v * den)
                    for x in (floor - 1, floor, floor + 1):
                        assert (_cmp(cut, (x, _AT))
                                == _cmp((v, side), (F(x, den), _AT))), (v, side, x)



def _meeting(u, iv):
    """Reference for `_Excluded.meeting`: the components of u that meet the
    closed interval iv, by bisection over Fraction cuts."""
    comps = u.components
    return comps[bisect_left(comps, (iv.lo, _AT), key=_end_cut):
                 bisect_right(comps, (iv.hi, _AT), key=_start_cut)]


def _as_intervals(pairs, den):
    return tuple(Interval(F(s, den), F(e, den), s_side == _AT, e_side == _AT)
                 for (s, s_side), (e, e_side) in pairs)


def _assert_index_is(index, union, grid, rng):
    """index holds union's components exactly and meets what the bisection
    meets, for closed queries with ends on grid points, on component ends
    and off every lattice."""
    assert _as_intervals(index.cuts, index.den) == union.components
    ends = [x for c in union for x in (c.lo, c.hi)]

    def point():
        kind = rng.randrange(3)
        if kind == 0 and ends:
            return rng.choice(ends)
        return grid.point(rng.randint(0, 32), 5) if kind == 1 else F(rng.randint(0, 97), 97)

    for _ in range(60):
        iv = Interval(*sorted((point(), point())))
        assert _as_intervals(index.meeting(iv), index.den) == _meeting(union, iv), iv


@pytest.mark.parametrize("grid", _DESCENT_GRIDS, ids=_DESCENT_IDS)
def test_index_meets_what_the_fraction_bisection_meets(grid):
    rng = random.Random(f"index {grid.to_json()}")
    q = grid.a.denominator
    grown = 0
    for _ in range(25):
        g = rng.randint(0, 3)
        k = rng.randrange(1 << g)
        union = _random_excluded(rng, grid, k, g, 5)
        index = _Excluded(union, q)
        _assert_index_is(index, union, grid, rng)
        # closed cells of a finer generation, apart from the union's closure
        # and from each other, as the staircase search adds its leaves
        fine = g + rng.randint(1, 6)
        hull = IntervalUnion(Interval(c.lo, c.hi) for c in union)
        cells = []
        for j in sorted(rng.sample(range(1 << fine), min(6, 1 << fine))):
            cell = StairCell(j, fine, Interval(grid.point(j, fine), grid.point(j + 1, fine)))
            if not intersects(IntervalUnion((cell.iv,)), hull):
                hull = hull.union(IntervalUnion((cell.iv,)))
                cells.append(cell)
        index.at(fine)
        index.add(cells)
        union = IntervalUnion((*union, *(c.iv for c in cells)))
        grown += len(cells)
        _assert_index_is(index, union, grid, rng)
        den = index.den
        assert index.at(index.gen + rng.randint(1, 3)) > den  # a rescale
        _assert_index_is(index, union, grid, rng)
    assert grown >= 25


# -- staircase trees --------------------------------------------------------


def validate_tree(tree, excluded):
    """Recheck a staircase tree's nesting, separation, widths and avoidance
    of the set `excluded` it was built to avoid."""
    assert len(tree.levels[0]) == 1, "level 0 must hold exactly the root"
    for n in range(1, len(tree.levels)):
        level, parents = tree.levels[n], tree.levels[n - 1]
        assert len(level) == 2 * len(parents), f"level {n} has wrong cell count"
        bound = F(1, (n + 1) * (1 << n))
        for idx, cell in enumerate(level):
            parent = parents[idx // 2].iv
            assert parent.lo <= cell.iv.lo and cell.iv.hi <= parent.hi, (n, idx)
            assert cell.iv.diam <= bound, (n, idx)
            assert not intersects(IntervalUnion((cell.iv,)), excluded), (n, idx)
        for left, right in zip(level, level[1:]):
            assert left.iv.hi < right.iv.lo, f"level {n} cells not separated"


def test_staircase_tree_structure_and_bounds():
    _, tree = build_interval_staircase(Interval.closed(0, 1), IntervalUnion.empty(), 3)
    validate_tree(tree, IntervalUnion.empty())
    assert tree.depth == 3
    assert len(tree.leaves()) == 8
    for level in range(1, 4):
        width_bound = F(1, (level + 1) * (1 << level))
        for cell in tree.levels[level]:
            assert cell.iv.diam <= width_bound
    n = IntervalUnion(c.iv for c in tree.levels[3])
    assert n.measure() <= F(1, 4)


@pytest.mark.parametrize("root", [Interval(F(3, 2), F(3)), Interval(F(-1), F(1, 2)),
                                  Interval(F(1, 2), F(1, 2)), Interval(0, 1, False)])
def test_staircase_tree_needs_a_closed_root_in_the_unit_interval(root):
    with pytest.raises(ValueError):
        build_interval_staircase(root, IntervalUnion.empty(), 2)


def test_staircase_tree_avoids_excluded():
    excluded = IntervalUnion.closed(F(1, 3), F(2, 3))
    _, tree = build_interval_staircase(Interval.closed(0, 1), excluded, 3)
    validate_tree(tree, excluded)
    for level in range(1, 4):
        for cell in tree.levels[level]:
            assert not intersects(IntervalUnion((cell.iv,)), excluded)


def test_staircase_tree_room_counts_only_the_excluded_part_inside_the_root():
    _, tree = build_interval_staircase(Interval.closed(0, F(1, 4)),
                                       IntervalUnion.closed(F(1, 2), 1), 2)
    validate_tree(tree, IntervalUnion.closed(F(1, 2), 1))
    assert len(tree.leaves()) == 4
    # only 1/16 of the root's length 1/4 lies under the straddling component
    _, tree = build_interval_staircase(Interval.closed(F(1, 4), F(1, 2)),
                                       IntervalUnion.closed(0, F(5, 16)), 2)
    validate_tree(tree, IntervalUnion.closed(0, F(5, 16)))
    assert len(tree.leaves()) == 4
    covers = [IntervalUnion.closed(0, F(3, 4)),
              IntervalUnion((Interval(0, F(3, 8), True, False),
                             Interval(F(3, 8), 1, False))),
              IntervalUnion((Interval.closed(0, F(1, 8)),
                             Interval.closed(F(1, 4), F(1, 2))))]
    for excluded in covers:
        with pytest.raises(ConstructionError, match="no room"):
            build_interval_staircase(Interval.closed(F(1, 4), F(1, 2)), excluded, 2)


def test_staircase_tree_respects_leaf_cap():
    cap = F(1, 4096)
    _, tree = build_interval_staircase(Interval.closed(0, 1), IntervalUnion.empty(), 2,
                                       leaf_cap=cap)
    for cell in tree.levels[2]:
        assert cell.iv.diam <= cap


def test_staircase_tree_on_image_grid():
    a = F(1, 4)
    _, tree = build_interval_staircase(Interval.closed(0, 1), IntervalUnion.empty(), 2,
                                       grid=RieszNagyImageGrid(a))
    validate_tree(tree, IntervalUnion.empty())
    # leaf endpoints are exact R_a images of dyadics, so the inverse is exact
    for cell in tree.leaves():
        x_lo = riesz_nagy_inverse(a, cell.iv.lo)
        x_hi = riesz_nagy_inverse(a, cell.iv.hi)
        assert eval_riesz_nagy(a, x_lo) == cell.iv.lo
        assert eval_riesz_nagy(a, x_hi) == cell.iv.hi


def test_staircase_tree_json_roundtrip():
    _, tree = build_interval_staircase(Interval.closed(0, 1), IntervalUnion.empty(), 2)
    back = type(tree).from_json(tree.to_json())
    assert back.root == tree.root
    assert back.levels == tree.levels
    validate_tree(back, IntervalUnion.empty())


# -- interval staircases ----------------------------------------------------


def test_interval_staircase_tiles_unit_interval():
    depth = 3
    n, stair = build_interval_staircase(Interval.closed(0, 1),
                                        IntervalUnion.empty(), depth)
    assert n.measure() <= F(1, depth + 1)
    assert image_measure(stair, n) == 1
    leaves = sorted(n.components, key=lambda iv: iv.lo)
    step = F(1, 1 << depth)
    for i, leaf in enumerate(leaves):
        assert stair(leaf.lo) == i * step
        assert stair(leaf.hi) == (i + 1) * step


def test_interval_staircase_constant_on_gaps():
    n, stair = build_interval_staircase(Interval.closed(0, 1),
                                        IntervalUnion.empty(), 2)
    leaves = sorted(n.components, key=lambda iv: iv.lo)
    gap_mid_vals = []
    for left, right in zip(leaves, leaves[1:]):
        mid = (left.hi + right.lo) / 2
        lo_edge = stair(left.hi)
        hi_edge = stair(right.lo)
        probe = stair(left.hi + (right.lo - left.hi) * F(1, 7))
        assert lo_edge <= probe <= hi_edge
        gap_mid_vals.append(stair(mid))
    # values at gap midpoints sit inside removed middle thirds of the range
    assert gap_mid_vals[0] < F(1, 2) < gap_mid_vals[-1]


def test_interval_staircase_mid_gap_value():
    # at depth 2 the middle gap maps to 1/2
    n, stair = build_interval_staircase(Interval.closed(0, 1),
                                        IntervalUnion.empty(), 2)
    leaves = sorted(n.components, key=lambda iv: iv.lo)
    mid_gap = (leaves[1].hi + leaves[2].lo) / 2
    assert stair(mid_gap) == F(1, 2)


def test_interval_staircase_outside_support_clamps():
    n, stair = build_interval_staircase(Interval.closed(F(1, 4), F(1, 2)),
                                        IntervalUnion.empty(), 2)
    assert stair(F(0)) == 0
    assert stair(F(3, 4)) == 1
    assert image_measure(stair, n) == 1


def _reference_staircase(tree, x):
    """c(phi(x)), phi piecewise linear from each leaf onto its Cantor cover cell."""
    d = tree.depth
    width = F(1, 3**d)
    covers = [sum((F(2 * b, 3 ** (j + 1)) for j, b in enumerate(bits)), F(0))
              for bits in itertools.product((0, 1), repeat=d)]
    knots = [(tree.root.lo, F(0))]
    for cell, t in zip(tree.leaves(), covers):
        knots += [(cell.iv.lo, t), (cell.iv.hi, t + width)]
    knots.append((tree.root.hi, F(1)))
    if x <= tree.root.lo:
        return F(0)
    if x >= tree.root.hi:
        return F(1)
    for (x1, y1), (x2, y2) in zip(knots, knots[1:]):
        if x1 <= x <= x2 and x1 < x2:
            return oracle.cantor_value(y1 + (y2 - y1) * (x - x1) / (x2 - x1))
    raise AssertionError("x not covered by the reference knots")


def _staircase_probes(tree, rng):
    leaves = [c.iv for c in tree.leaves()]
    root = tree.root
    probes = [root.lo, root.hi, root.lo - F(1, 7), root.hi + F(1, 7),
              (root.lo + leaves[0].lo) / 2, (leaves[-1].hi + root.hi) / 2]
    for iv in leaves:
        probes += [iv.lo, iv.hi, (iv.lo + iv.hi) / 2, iv.lo + (iv.hi - iv.lo) / 3]
    for left, right in zip(leaves, leaves[1:]):
        probes += [(left.hi + right.lo) / 2, left.hi + (right.lo - left.hi) / 5]
    for _ in range(40):
        den = rng.randint(2, 10**6)
        probes.append(root.lo + root.diam * F(rng.randint(0, den), den))
    return probes


@pytest.mark.parametrize("grid", [RieszNagyImageGrid(), RieszNagyImageGrid(F(1, 3)),
                                  RieszNagyImageGrid(F(3, 8))])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_interval_staircase_closed_form_matches_reference(grid, depth):
    rng = random.Random(depth)
    roots = [(Interval.closed(0, 1), IntervalUnion.empty()),
             (Interval.closed(F(1, 3), F(5, 6)), IntervalUnion.closed(F(2, 5), F(1, 2))),
             (Interval.closed(F(1, 8), F(1, 4)), IntervalUnion.empty())]
    checked = 0
    for root, excluded in roots:
        _, stair = build_interval_staircase(root, excluded, depth, grid=grid)
        for x in _staircase_probes(stair, rng):
            assert stair(x) == _reference_staircase(stair, x), (root, depth, x)
            checked += 1
    assert checked > 3 * 50


@pytest.mark.parametrize("excluded", [
    IntervalUnion.empty(),
    IntervalUnion((Interval.closed(F(1, 5), F(2, 7)), Interval.closed(F(3, 5), F(2, 3)))),
    IntervalUnion((Interval(F(1, 5), F(2, 7), False, False),
                   Interval(F(3, 5), F(2, 3), True, False),
                   Interval(F(5, 6), 1, False, True))),
], ids=["empty", "closed-ends", "open-ends"])
def test_staircase_n_is_the_union_of_its_leaf_cells(excluded):
    for grid in (RieszNagyImageGrid(), RieszNagyImageGrid(F(3, 8))):
        for root, depth in ((Interval.closed(0, 1), 3), (Interval.closed(F(1, 8), F(7, 9)), 2)):
            n, stair = build_interval_staircase(root, excluded, depth, grid=grid)
            assert n == IntervalUnion(c.iv for c in stair.leaves())
            assert len(n) == 1 << depth
            assert not intersects(n, excluded)


def _tree_json_with_leaves(leaves, root=("0/1", "1/1")):
    _, tree = build_interval_staircase(Interval.closed(0, 1), IntervalUnion.empty(), 1)
    blob = tree.to_json()["tree"]
    blob["root"] = list(root)
    blob["levels"][1] = [list(iv) for iv in leaves]
    return blob


@pytest.mark.parametrize("leaves, root", [
    ((("1/8", "1/4"), ("1/4", "3/8")), ("0/1", "1/1")),   # touching leaves
    ((("1/8", "1/8"), ("1/2", "5/8")), ("0/1", "1/1")),   # zero-width leaf
    ((("1/8", "1/4"), ("1/2", "5/8")), ("1/4", "1/1")),   # leaf left of the root
    ((("1/8", "1/4"), ("1/2", "5/8")), ("0/1", "1/2")),   # leaf right of the root
    ((("1/2", "5/8"), ("1/8", "1/4")), ("0/1", "1/1")),   # leaves out of order
])
def test_interval_staircase_rejects_malformed_trees(leaves, root):
    with pytest.raises(ValueError):
        IntervalStaircase.from_json({"tree": _tree_json_with_leaves(leaves, root)})
    with pytest.raises(ValueError):
        fn_from_json({"kind": "interval_staircase",
                      "tree": _tree_json_with_leaves(leaves, root)})


def test_interval_staircase_rejects_wrong_leaf_count():
    blob = _tree_json_with_leaves((("1/8", "1/4"), ("1/2", "5/8")))
    blob["levels"][1].append(["3/4", "7/8"])
    blob["addresses"][1].append([6, 3])
    with pytest.raises(ValueError):
        IntervalStaircase.from_json({"tree": blob})


def test_interval_staircase_refuses_unequal_cell_and_address_lists():
    _, tree = build_interval_staircase(Interval.closed(0, 1), IntervalUnion.empty(), 1)
    for key in ("levels", "addresses"):
        for cut in (lambda lists: lists.pop(), lambda lists: lists[1].pop()):
            blob = json.loads(json.dumps(tree.to_json()))
            cut(blob["tree"][key])
            with pytest.raises(ValueError, match="^key 'addresses' does not fit key 'levels'$"):
                IntervalStaircase.from_json(blob)


# -- rational interval enumeration and mappers ------------------------------


def test_enumerate_rational_intervals_order():
    got = [(iv.lo, iv.hi) for iv in _rational_intervals(6)]
    assert got == [
        (F(0), F(1)),
        (F(0), F(1, 2)),
        (F(1, 2), F(1)),
        (F(0), F(1, 3)),
        (F(0), F(2, 3)),
        (F(1, 3), F(1, 2)),
    ]


def test_rational_intervals_first_use_from_many_threads():
    """Eight threads listing the intervals at once on a cleared memo all get
    the single-thread tuple, and none raises."""
    M = 3000
    want = _rational_intervals(M)
    _rational_intervals.cache_clear()
    results, errors = [None] * 8, []

    def run(i):
        try:
            results[i] = _rational_intervals(M)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(got == want for got in results)


def test_full_measure_mapper_bounds():
    n_trunc, f = build_full_measure_mapper(IntervalUnion.empty(), 3, 3)
    assert len(f.terms) - 1 == 3
    assert 1 - f.weights[-1] >= F(7, 8)
    assert image_measure(f, n_trunc) >= F(7, 8)
    assert f.strictly_monotone
    # stair unions pairwise disjoint
    stairs = [IntervalUnion(c.iv for c in t.leaves()) for t in f.terms[:-1]]
    for i in range(len(stairs)):
        for j in range(i + 1, len(stairs)):
            assert not intersects(stairs[i], stairs[j])


def test_full_measure_mapper_avoids_excluded():
    excluded = IntervalUnion.closed(F(2, 5), F(3, 5))
    n_trunc, f = build_full_measure_mapper(excluded, 4, 3)
    assert not intersects(n_trunc, excluded)
    assert image_measure(f, n_trunc) >= F(15, 16)


def test_full_measure_mapper_on_image_grid():
    a = F(1, 4)
    n_trunc, f = build_full_measure_mapper(IntervalUnion.empty(), 4, 3,
                                           grid=RieszNagyImageGrid(a))
    assert image_measure(f, n_trunc) >= F(15, 16)
    # all breakpoints invert exactly through R_a
    for comp in n_trunc.components:
        riesz_nagy_inverse(a, comp.lo)
        riesz_nagy_inverse(a, comp.hi)


@pytest.mark.parametrize("grid", [RieszNagyImageGrid(), RieszNagyImageGrid(F(1, 4))],
                         ids=["dyadic", "R_1/4"])
@pytest.mark.parametrize("excluded", [IntervalUnion.empty(),
                                      IntervalUnion.closed(F(2, 5), F(3, 5))],
                         ids=["nothing-excluded", "middle-excluded"])
def test_full_measure_mapper_returns_its_leaf_union_and_weighted_sum(excluded, grid):
    got = build_full_measure_mapper(excluded, 3, 2, grid=grid)
    assert type(got) is tuple and len(got) == 2
    n_trunc, f = got
    # f is sum 2^-(m+1) g_m + 2^-3 id, and N_trunc is the union of the g_m's leaves
    assert isinstance(f, WeightedSum)
    assert f.weights == (F(1, 2), F(1, 4), F(1, 8), F(1, 8))
    assert f.terms[-1].to_json() == Affine(1, 0).to_json()
    assert all(isinstance(t, IntervalStaircase) and t.grid.a == grid.a
               for t in f.terms[:-1])
    assert n_trunc == IntervalUnion(c.iv for t in f.terms[:-1] for c in t.leaves())
    assert not intersects(n_trunc, excluded)


@pytest.mark.parametrize("depth", [0, -1])
def test_full_measure_mapper_refuses_staircase_depth_below_one(depth):
    # a depth-0 staircase used to surface as a ConstructionError of term 1
    with pytest.raises(ValueError, match="staircase depth is not an integer >= 1"):
        build_full_measure_mapper(IntervalUnion.empty(), 2, depth)
