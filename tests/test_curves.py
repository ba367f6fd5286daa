"""Curve construction, sampling, the pairwise-coordinate property, and JSON."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from dbecurves import curves, singular
from dbecurves.curves import (
    CurveSpec,
    ExtremalCurve,
    build_extremal_curve,
    check_dbe_property,
    curve_from_json,
    curve_to_json,
    sample,
)
from dbecurves.exact import IntervalUnion
from dbecurves.hausdorff import certify_h1
from test_exact import intersects
from test_singular import validate_tree
from dbecurves.singular import (
    Affine,
    Cantor,
    Composition,
    IntervalStaircase,
    NotEvaluableError,
    PiecewiseLinear,
    RieszNagy,
    WeightedSum,
    eval_riesz_nagy,
    image_measure,
)

F = Fraction


def test_curve_spec_points():
    spec = CurveSpec(3, (RieszNagy(F(1, 4)),), F(1, 2))
    assert spec.point(F(0)) == (0, 0, F(1, 2))
    assert spec.point(F(1, 2)) == (F(1, 2), F(1, 4), F(1, 2))
    assert spec.point(F(1)) == (1, 1, F(1, 2))
    with pytest.raises(ValueError):
        CurveSpec(3, (), F(1, 2))
    with pytest.raises(ValueError):
        CurveSpec(3, (RieszNagy(F(1, 4)),), F(3, 2))


def test_build_extremal_curve_n3():
    c = build_extremal_curve(3, a=F(1, 4))
    assert c.n == 3
    assert isinstance(c.components[0], RieszNagy)
    assert c.point(F(3, 4)) == (F(3, 4), F(7, 16), F(1, 2))
    assert c.mappers == () and c.w_domains == ()
    assert c.q1 == IntervalUnion.closed(0, 1)
    with pytest.raises(ValueError):
        build_extremal_curve(2)
    with pytest.raises(ValueError):
        build_extremal_curve(3, a=F(1, 2))
    # n = 3 builds no mapper, and M and staircase_depth are checked all the same
    for bad in ({"M": 0}, {"M": 5 / 2}, {"staircase_depth": 0}):
        with pytest.raises(ValueError):
            build_extremal_curve(3, **bad)


def test_build_extremal_curve_n4_structure():
    c = build_extremal_curve(4, M=4)
    assert c.n == 4
    assert len(c.components) == 2
    assert len(c.mappers) == 1
    # W domains pull the mapper's percolation set back through h exactly
    w = c.w_domains[0]
    h = c.components[0]
    mapped = IntervalUnion(
        type(comp)(h(comp.lo), h(comp.hi), comp.lo_closed, comp.hi_closed)
        for comp in w.components
    )
    assert mapped == c.n_truncs[0]
    # q1 is exactly the complement of the W's
    assert c.q1 == IntervalUnion.closed(0, 1) - w
    assert image_measure(c.components[1], w) >= F(15, 16)


def test_build_extremal_curve_n5_disjoint_w():
    c = build_extremal_curve(5, M=3)
    assert len(c.mappers) == 2
    w1, w2 = c.w_domains
    assert not intersects(w1, w2)
    n1, n2 = c.n_truncs
    assert not intersects(n1, n2)


@pytest.mark.parametrize("M, staircase_depth", [(4, 2), (6, 3), (2, 1)])
@pytest.mark.parametrize("a", [F(1, 4), F(3, 8), F(7, 8), F(2, 5), F(1, 7)])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_extremal_w_cells_are_pairwise_separated(n, a, M, staircase_depth):
    # not only disjoint: no two W cells of any mappers touch, so a dyadic
    # chord holding a finer W cell never lies inside a coarser one
    c = build_extremal_curve(n, a=a, M=M, staircase_depth=staircase_depth)
    cells = sorted((F(k, 1 << g), F(k + 1, 1 << g)) for _, k, g, _ in c._w_cells)
    assert len(cells) == (n - 3) * M << staircase_depth
    for (_, left_hi), (right_lo, _) in zip(cells, cells[1:]):
        assert left_hi < right_lo, (n, a, M, staircase_depth, left_hi, right_lo)


def test_extremal_curve_fields_are_the_builders_choices():
    # W_j and q1 are derived from the mappers, so they must not come back as fields
    assert [f.name for f in dataclasses.fields(ExtremalCurve)] == [
        "n", "components", "alpha", "a", "M", "staircase_depth", "n_truncs"]


@pytest.mark.parametrize("a", [F(1, 4), F(2, 7)])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_extremal_curve_stores_each_mapper_once(n, a):
    c = build_extremal_curve(n, a=a, M=3)
    body = curve_to_json(c)
    assert len(c.mappers) == len(c.n_truncs) == len(body["mappers"]) == n - 3
    for j, f in enumerate(c.mappers):
        assert f is c.components[j + 1].outer
        assert c.n_truncs[j] == IntervalUnion(
            cell.iv for t in f.terms if isinstance(t, IntervalStaircase)
            for cell in t.leaves())
        assert body["mappers"][j]["level"] == c.M == 3
        assert F(body["mappers"][j]["image_lower_bound"]) == 1 - F(1, 1 << c.M)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_w_domains_and_q1_are_computed_only_when_read(n):
    c = build_extremal_curve(n)
    certify_h1(c, 4)
    sample(c, 4)
    assert "w_domains" not in vars(c) and "q1" not in vars(c)
    curve_to_json(c)
    assert "w_domains" in vars(c) and "q1" in vars(c)


@pytest.mark.parametrize("a", [F(1, 16), F(15, 16)])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_extremal_curve_at_skewed_weights(n, a):
    # the staircase search keeps these fast: a = 1/16 starts 33-52
    # generations below each staircase root
    c = build_extremal_curve(n, a=a)
    h = c.components[0]
    avoid = IntervalUnion.empty()  # the earlier mappers' N sets
    for f, n_trunc, w in zip(c.mappers, c.n_truncs, c.w_domains, strict=True):
        # staircase m avoided the earlier mappers' N sets and this mapper's N_0..N_(m-1)
        excluded = avoid
        for t in f.terms:
            if isinstance(t, IntervalStaircase):
                validate_tree(t, excluded)
                excluded = excluded.union(IntervalUnion(cell.iv for cell in t.leaves()))
        avoid = avoid.union(n_trunc)
        assert IntervalUnion(
            type(comp)(h(comp.lo), h(comp.hi), comp.lo_closed, comp.hi_closed)
            for comp in w.components) == n_trunc
        assert image_measure(f, n_trunc) >= 1 - F(1, 1 << c.M)
    assert check_dbe_property(sample(c, 5)).ok


def test_sample_counts_and_endpoints():
    c = build_extremal_curve(3)
    pts = sample(c, 4)
    assert len(pts) == 17
    assert pts[0] == (0, 0, F(1, 2))
    assert pts[-1] == (1, 1, F(1, 2))
    assert all(len(p) == 3 for p in pts)


def _pointwise(spec, depth):
    return [spec.point(F(k, 1 << depth)) for k in range((1 << depth) + 1)]


def _inside_leaf_count(c, depth):
    """Sample points whose h lies strictly inside a leaf of a mapper staircase."""
    hs = [c.components[0](F(k, 1 << depth)) for k in range((1 << depth) + 1)]
    return sum(1 for f in c.mappers for t in f.terms
               if isinstance(t, IntervalStaircase)
               for leaf in t.leaves() for y in hs if leaf.iv.lo < y < leaf.iv.hi)


_COLUMN_WEIGHTS = (F(1, 4), F(1, 3), F(3, 8), F(25, 32), F(1, 8))


@pytest.mark.parametrize("n, a, depth", [
    (3, F(1, 3), 9), (4, F(1, 4), 8), (4, F(2, 7), 8), (5, F(3, 8), 7),
    (6, F(5, 9), 6),
    *((n, a, 8) for a in _COLUMN_WEIGHTS for n in (4, 5, 6)
      if (n, a) != (4, F(1, 4))),
    (5, F(3, 8), 10)])
def test_sample_matches_pointwise_on_extremal_curves(n, a, depth):
    c = build_extremal_curve(n, a=a, M=3)
    want = _pointwise(c, depth)
    assert sample(c, depth) == want
    # loaded as a generic spec, h and the h inside each composition are
    # separate objects, so equal R_a columns must be memoized by value
    back = curve_from_json({**curve_to_json(c), "type": "curve"})
    if n >= 4:
        assert back.components[0] is not back.components[-1].inner
    assert sample(back, depth) == want


def test_sample_cases_reach_inside_staircase_leaves():
    # the run-filled mapper columns evaluate these points like __call__ does
    assert _inside_leaf_count(build_extremal_curve(5, a=F(3, 8), M=3), 10) >= 1
    assert _inside_leaf_count(build_extremal_curve(4, a=F(3, 8), M=3), 8) >= 1


def test_sample_matches_pointwise_on_mapper_compositions():
    c = build_extremal_curve(4, a=F(3, 8), M=3)
    mapper = c.mappers[0]
    comps = (
        Composition(mapper, Affine(-1, 1)),  # decreasing inner: point by point
        Composition(mapper, Affine(F(1, 2), F(1, 4))),
        Composition(WeightedSum((mapper, Cantor(), Affine(1, 0)),
                                (F(1, 2), F(1, 4), F(1, 8))), c.components[0]),
        Composition(Composition(mapper, mapper), c.components[0]),
        Composition(mapper.terms[0], c.components[0]),  # a bare staircase
        Composition(mapper, Cantor()),  # inner column with repeated values
    )
    spec = CurveSpec(2 + len(comps), comps, F(1, 3))
    want = _pointwise(spec, 8)
    assert sample(spec, 8) == want
    assert sample(curve_from_json(curve_to_json(spec)), 8) == want


def test_sample_matches_pointwise_on_generic_components():
    pl = PiecewiseLinear(((F(0), F(0)), (F(1, 3), F(1, 2)), (F(1), F(1))))
    ws = WeightedSum((Cantor(), pl, Affine(1, 0)), (F(1, 4), F(1, 2), F(1, 8)))
    comps = (Cantor(), pl, ws, Affine(F(1, 2), F(1, 4)),
             Composition(ws, RieszNagy(F(1, 3))), Composition(RieszNagy(F(2, 5)), pl))
    spec = CurveSpec(2 + len(comps), comps, F(1, 3))
    for depth in (0, 1, 6):
        got = sample(spec, depth)
        assert got == _pointwise(spec, depth)
        assert all(type(v) is F for p in got for v in p)
    assert sample(CurveSpec(2, (), F(1, 2)), 2) == _pointwise(CurveSpec(2, (), F(1, 2)), 2)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_extremal_columns_compute_the_riesz_level_once_per_depth(n, monkeypatch):
    # h and the h inside every Composition(mapper, h) are one RieszNagy
    depths = []
    level = singular._riesz_nagy_nums

    def counted(a, depth):
        depths.append(depth)
        return level(a, depth)
    monkeypatch.setattr(singular, "_riesz_nagy_nums", counted)
    c = build_extremal_curve(n)
    first = curves._columns(c, 8)
    assert depths == [8]
    again = curves._columns(c, 8)
    assert depths == [8]
    assert again == first and all(u is not v for (_, u), (_, v) in zip(first, again))
    curves._columns(c, 6)
    assert depths == [8, 6]


def test_loaded_spec_builds_each_riesz_level_once_for_all_its_copies(monkeypatch):
    # four copies of R_{2/7} in a weighted sum, one more as a composition's
    # inner function and one as a component; R_{1/3} twice
    r = RieszNagy
    spec = CurveSpec(6, (
        WeightedSum((r(F(2, 7)), r(F(2, 7)), r(F(1, 3)), r(F(2, 7)), r(F(2, 7))),
                    [F(1, 5)] * 5),
        Composition(Affine(F(1, 2), F(1, 4)), r(F(2, 7))), r(F(2, 7)), r(F(1, 3))), F(1, 3))
    want = {depth: curves._columns(spec, depth) for depth in (6, 8)}
    built = []
    level = singular._riesz_nagy_nums

    def counted(a, depth):
        built.append((a, depth))
        return level(a, depth)
    monkeypatch.setattr(singular, "_riesz_nagy_nums", counted)
    c = curve_from_json(curve_to_json(spec))
    for depth in (8, 8, 6):
        assert curves._columns(c, depth) == want[depth]
    # the load's unit-cube check reads each R_a at 0 and 1 off its level 0
    assert built == [(F(2, 7), 0), (F(1, 3), 0), (F(2, 7), 8), (F(1, 3), 8),
                     (F(2, 7), 6), (F(1, 3), 6)]


def test_sample_raises_the_pointwise_error():
    # the first component fails only right of 1/2, the second already at 0
    left = PiecewiseLinear(((F(0), F(0)), (F(1, 2), F(1))))
    right = PiecewiseLinear(((F(1, 4), F(0)), (F(1), F(1))))
    spec = CurveSpec(4, (left, right), F(1, 2))
    with pytest.raises(NotEvaluableError) as want:
        spec.point(F(0))
    with pytest.raises(NotEvaluableError) as got:
        sample(spec, 3)
    assert str(got.value) == str(want.value)


def test_check_dbe_property_valid_curve():
    c = build_extremal_curve(3)
    rep = check_dbe_property(sample(c, 5))
    assert rep.ok
    assert rep.pair_count == 33 * 32 // 2
    assert rep.violations == ()


def test_check_dbe_property_simple_violation():
    alpha = F(1, 2)
    pts = [(F(0), F(0), alpha), (F(1, 2), F(0), alpha)]
    rep = check_dbe_property(pts)
    assert not rep.ok
    assert rep.violations == ((0, 1, 2),)


def test_check_dbe_property_cantor_control():
    spec = CurveSpec(3, (Cantor(),), F(1, 2))
    rep = check_dbe_property(sample(spec, 4))
    assert not rep.ok
    # two x values inside the flat central gap share the c-value and alpha
    assert any(m == 2 for (_, _, m) in rep.violations)


def _random_point_sets(seed: int, count: int):
    """Seeded small-alphabet point sets, n = 2..5, 1-4 values per coordinate;
    one in three has a constant coordinate, so no pair can agree nowhere."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(2, 5)
        alphabets = [[F(v, 4) for v in range(rng.randint(1, 4))] for _ in range(n)]
        if rng.random() < 1 / 3:
            alphabets[rng.randrange(n)] = [F(1, 2)]
        grid = list(itertools.product(*alphabets))
        if len(grid) < 2:
            continue
        count -= 1
        yield rng.sample(grid, rng.randint(2, min(len(grid), 12)))


def test_check_dbe_property_matches_pairwise_on_random_sets():
    kinds = set()
    for pts in _random_point_sets(11, 600):
        want = curves._pairwise_dbe(pts)
        assert check_dbe_property(pts) == want
        matches = {m for _, _, m in want.violations}
        kinds.add((0 in matches, any(m >= 2 for m in matches)))
    # zero-match pairs, two-or-more-match pairs, both, and neither
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def flat_piece_curve() -> CurveSpec:
    """One flat piece holding five depth-6 sample points, ten violating pairs."""
    flat = PiecewiseLinear([(0, 0), (F(5, 16), F(3, 8)), (F(6, 16), F(3, 8)), (1, 1)])
    return CurveSpec(4, (RieszNagy(F(1, 3)), flat), F(3, 4))


def _dbe_samples():
    for n in (3, 4, 5, 6):
        yield sample(build_extremal_curve(n, a=F(2, 7)), 6)
    yield sample(CurveSpec(3, (Cantor(),), F(1, 2)), 6)
    yield sample(flat_piece_curve(), 6)


@pytest.mark.parametrize("pts", list(_dbe_samples()),
                         ids=["n3", "n4", "n5", "n6", "cantor", "flat-piece"])
def test_check_dbe_property_curve_samples_skip_the_pairwise_loop(pts, monkeypatch):
    want = curves._pairwise_dbe(pts)

    def refuse(_pts):
        raise AssertionError("curve samples share alpha, so no fallback")

    monkeypatch.setattr(curves, "_pairwise_dbe", refuse)
    assert check_dbe_property(pts) == want


def test_check_dbe_property_input_validation():
    with pytest.raises(ValueError):
        check_dbe_property([(F(0), F(0), F(1, 2))])
    with pytest.raises(ValueError):
        check_dbe_property([(F(0), F(0)), (F(0), F(0))])
    with pytest.raises(ValueError):
        check_dbe_property([(F(0), F(0)), (F(1), F(0), F(1))])


def test_curve_json_roundtrip_plain():
    spec = CurveSpec(3, (RieszNagy(F(1, 4)),), F(1, 2))
    back = curve_from_json(curve_to_json(spec))
    assert isinstance(back, CurveSpec)
    assert back.point(F(1, 2)) == spec.point(F(1, 2))
    assert curve_to_json(back) == curve_to_json(spec)


def test_curve_json_roundtrip_extremal():
    c = build_extremal_curve(4, M=3)
    blob = curve_to_json(c)
    back = curve_from_json(blob)
    assert isinstance(back, ExtremalCurve)
    assert back.n == 4
    assert curve_to_json(back) == blob
    for k in range(9):
        x = F(k, 8)
        assert back.point(x) == c.point(x)


def test_curve_json_deterministic():
    a = curve_to_json(build_extremal_curve(4))
    b = curve_to_json(build_extremal_curve(4))
    assert a == b


def test_extremal_alpha_constant_component():
    c = build_extremal_curve(3, alpha=F(2, 7))
    assert c.alpha == F(2, 7)
    assert all(p[-1] == F(2, 7) for p in sample(c, 3))


def test_riesz_nagy_matches_component_on_curve():
    a = F(2, 5)
    c = build_extremal_curve(3, a=a)
    for k in range(17):
        x = F(k, 16)
        assert c.point(x)[1] == eval_riesz_nagy(a, x)
