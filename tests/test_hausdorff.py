"""Two-sided measure certification, box counts, and inequality checkers."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from dbecurves import hausdorff, oracle, trials
from dbecurves.curves import (
    CurveSpec,
    _columns,
    build_extremal_curve,
    curve_from_json,
    curve_to_json,
    sample,
)
from dbecurves.exact import Interval, IntervalUnion
from dbecurves.hausdorff import (
    _BISECT_CAP,
    BoxCount,
    _chord_sum,
    _collapsed_riesz_length,
    _level_cuts,
    _sample_nums,
    _sqrt_sum,
    H1Certificate,
    LipschitzWitnessError,
    box_count,
    box_count_slope,
    certify_h1,
    check_derivative_bound,
    check_lipschitz_image,
    check_sum_image_bound,
    polyline_length,
    sqrt_enclosure,
    upper_bound_h1,
)
from dbecurves.partitions import LRPartition
from dbecurves.singular import (
    Affine,
    Cantor,
    Composition,
    MonotoneFn,
    NotEvaluableError,
    PiecewiseLinear,
    RieszNagy,
    WeightedSum,
    image_measure,
)
from test_curves import _inside_leaf_count
from test_singular import _pointwise

F = Fraction


# -- sqrt enclosures ----------------------------------------------------------


def test_sqrt_enclosure_exact_squares():
    lo, hi = sqrt_enclosure(F(4), 16)
    assert lo == hi == 2
    lo, hi = sqrt_enclosure(F(9, 16), 16)
    assert lo == hi == F(3, 4)
    lo, hi = sqrt_enclosure(F(0), 16)
    assert lo == hi == 0


def test_sqrt_enclosure_brackets_and_width():
    rng = random.Random(77)
    for _ in range(200):
        x = F(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 6))
        lo, hi = sqrt_enclosure(x, 32)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= F(1, 1 << 32)
    with pytest.raises(ValueError):
        sqrt_enclosure(F(-1), 8)


# -- exact upper bounds -------------------------------------------------------


def test_upper_bound_extremal_curves():
    for n in (3, 4, 5, 6):
        assert upper_bound_h1(build_extremal_curve(n)) == n - 1


def test_upper_bound_affine_component():
    spec = CurveSpec(3, (Affine(F(1, 2), F(0)),), F(1, 2))
    assert upper_bound_h1(spec) == F(3, 2)


def test_upper_bound_with_declared_pieces():
    blob = {"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
            "components": [{"kind": "riesz_nagy", "a": "1/4"}]}
    halves = [[{"lo": "0/1", "hi": "1/2", "lo_closed": True, "hi_closed": False}],
              [{"lo": "1/2", "hi": "1/1", "lo_closed": True, "hi_closed": True}]]
    short = [[{"lo": "0/1", "hi": "15/16", "lo_closed": True, "hi_closed": True}]]
    for pieces in (halves, short):
        spec = curve_from_json({**blob, "piece_domains": pieces})
        assert type(spec) is CurveSpec
        assert curve_to_json(spec) == blob
        assert upper_bound_h1(spec) == 2


def _block_sum_upper(curve, partition):
    """Reference: block measures plus per-component image measures per block."""
    total = F(0)
    for block in partition.blocks:
        total += block.measure()
        for f in curve.components:
            total += image_measure(f, block)
    return total


def test_upper_bound_equals_block_sum_over_partitions_of_the_unit_interval():
    mapper = build_extremal_curve(4, a=F(2, 7), M=2).components[1].outer
    pl = PiecewiseLinear(((F(0), F(0)), (F(1, 3), F(1, 5)), (F(5, 7), F(3, 11)),
                          (F(1), F(1))))
    kinds = (Cantor(), RieszNagy(F(1, 3)), Affine(F(-1, 2), F(3, 4)), pl,
             mapper.terms[0], mapper, Composition(mapper, Affine(-1, 1)),
             Composition(pl, RieszNagy(F(3, 8))))
    assert {f.kind for f in kinds} == {
        "cantor", "riesz_nagy", "affine", "piecewise_linear",
        "interval_staircase", "weighted_sum", "composition"}
    unit = IntervalUnion.closed(0, 1)
    rng = random.Random(9)
    for _ in range(200):
        comps = rng.sample(kinds, rng.randint(1, 4))
        spec = CurveSpec(len(comps) + 2, comps, F(rng.randint(0, 8), 8))
        partition = trials.random_partition(rng, unit)
        assert upper_bound_h1(spec) == _block_sum_upper(spec, partition)
    # a partition that misses part of [0,1] undercounts: 415/256 < H^1 = 2
    short = LRPartition([IntervalUnion.closed(0, F(15, 16))])
    spec = CurveSpec(3, (RieszNagy(F(1, 4)),), F(1, 2))
    assert _block_sum_upper(spec, short) == F(415, 256) < upper_bound_h1(spec)


def test_upper_bound_equals_the_pointwise_total_variation_on_generic_specs():
    # each component's two-point column against its ends one by one, read
    # without any column; decreasing inner functions reverse the column
    mapper = build_extremal_curve(4, a=F(2, 7), M=2).mappers[0]
    stair = mapper.terms[0]
    # x = 0 and x = 1 go to the middles of the first and last leaves
    first, last = ((c.iv.lo + c.iv.hi) / 2 for c in stair.leaves()[::len(stair.leaves()) - 1])
    specs = [
        CurveSpec(3, (Affine(F(-3, 4), F(7, 8)),), F(1, 2)),
        CurveSpec(4, (Composition(mapper, Affine(-1, 1)),
                      Composition(mapper, Affine(F(-1, 3), F(2, 3)))), F(1, 3)),
        CurveSpec(5, (stair, Composition(stair, Affine(last - first, first)),
                      Composition(RieszNagy(F(1, 3)), Affine(F(-1, 2), F(1, 2)))), F(1, 4)),
    ]
    for spec in specs:
        want = 1 + sum(abs(_pointwise(f, 1) - _pointwise(f, 0)) for f in spec.components)
        assert upper_bound_h1(spec) == want
    assert want not in (1, 2, 3, 4)  # the variations are not all 0 or 1


# -- polyline lower bounds ----------------------------------------------------


def test_polyline_depth0_single_chord():
    c = build_extremal_curve(3)
    value, radius = polyline_length(c, 0)
    root2 = math.sqrt(2.0)
    assert abs(float(value) - root2) < 1e-15
    assert radius <= F(1, 1 << 64)


def test_polyline_nondecreasing_and_sandwiched():
    c = build_extremal_curve(3, a=F(1, 4))
    upper = upper_bound_h1(c)
    prev = None
    for d in range(1, 17):
        value, radius = polyline_length(c, d)
        assert prev is None or value >= prev
        assert value - radius <= upper
        prev = value


def test_polyline_collapsed_matches_naive_oracle():
    a = F(1, 4)
    c = build_extremal_curve(3, a=a)
    for d in (4, 8, 10):
        value, radius = polyline_length(c, d)
        naive = oracle.naive_polyline([oracle.riesz_raster(a, d)], d)
        assert abs(value - naive) <= radius + F(1, 1 << 40)


@pytest.mark.parametrize("a", [F(1, 4), F(1, 3), F(2, 7), F(3, 7), F(1, 1024),
                               F(999, 1000)])
def test_collapsed_length_equals_sqrt_enclosure_sum(a):
    for d in [*range(41), 132]:
        for bits in (1, 32, 64 + d):
            lo = hi = F(0)
            for k in range(d + 1):
                w = a ** (d - k) * (1 - a) ** k
                tlo, thi = sqrt_enclosure(F(1, 4 ** d) + w * w, bits)
                lo += math.comb(d, k) * tlo
                hi += math.comb(d, k) * thi
            assert _collapsed_riesz_length(a, d, bits) == (lo, hi)


def _sqrt_sum_collapsed(a, depth, bits):
    """Reference: the collapsed sum as d + 1 `_sqrt_sum` terms over 4^d q^2d,
    each P_k and C(d, k) computed afresh."""
    p, q = a.numerator, a.denominator
    q2d = q ** (2 * depth)
    den = q2d << (2 * depth)
    pks = (p ** (depth - k) * (q - p) ** k for k in range(depth + 1))
    return _sqrt_sum(((math.comb(depth, k), q2d + (pk * pk << (2 * depth)), den)
                      for k, pk in enumerate(pks)), bits)


# the weights of the length-series slots in perfbench's sample-consumers
_SERIES_WEIGHTS = [w for p in ("3/7", "2/5", "3/8", "1/3", "5/16", "3/10", "2/7", "1/4")
                   for w in (F(p), 1 - F(p))]


def test_collapsed_length_walk_equals_the_sqrt_sum_reference():
    for a in _SERIES_WEIGHTS:
        for d in range(141):
            for bits in (1, 32, 64 + d):
                assert _collapsed_riesz_length(a, d, bits) == \
                    _sqrt_sum_collapsed(a, d, bits), (a, d, bits)
    for a in (F(1, 1024), F(999, 1000), F(1, 10 ** 50 + 151)):
        for d in range(61):
            for bits in (1, d, 64 + d):
                assert _collapsed_riesz_length(a, d, bits) == \
                    _sqrt_sum_collapsed(a, d, bits), (a, d, bits)
    # precision 4000 at depth 96, the edge of the printed-length budget
    assert _collapsed_riesz_length(F(1, 4), 96, 4096) == \
        _sqrt_sum_collapsed(F(1, 4), 96, 4096)


def test_collapsed_length_reads_an_exact_root():
    # at a = 3/8, d = 1 the first chord is (1/2, 3/8), of length exactly 5/8,
    # and the second (1/2, 5/8) has the irrational length sqrt(41)/8
    for bits in (3, 10, 64):
        lo, hi = _collapsed_riesz_length(F(3, 8), 1, bits)
        assert hi - lo == F(1, 1 << bits)
        r41 = math.isqrt(41 << (2 * bits - 6))
        assert lo == F(5, 8) + F(r41, 1 << bits)
    for bits in (1, 2, 3):  # below 3 bits 5/8 is not a dyadic r / 2^bits
        assert _collapsed_riesz_length(F(3, 8), 1, bits) == \
            _sqrt_sum_collapsed(F(3, 8), 1, bits)


@pytest.mark.parametrize("a", [F(3, 7), F(1, 4), F(7, 10)])
def test_collapsed_polyline_matches_the_decimal_oracle(a):
    c = build_extremal_curve(3, a=a)
    for d in (64, 132):
        value, radius = polyline_length(c, d)
        oracle_value = oracle.collapsed_riesz_length(a, d, prec=80)
        assert abs(value - oracle_value) <= radius + F(1, 10 ** 60)


def _fraction_chord_sum(curve, depth, precision=64):
    """Reference: the chord loop summing `sqrt_enclosure` of Fraction squares."""
    bits = precision + depth
    pts = sample(curve, depth)
    lo = hi = F(0)
    for p, q in zip(pts, pts[1:]):
        slo, shi = sqrt_enclosure(sum(((c2 - c1) ** 2 for c1, c2 in zip(p, q)), F(0)),
                                  bits)
        lo += slo
        hi += shi
    return (lo + hi) / 2, (hi - lo) / 2


@pytest.mark.parametrize("n", [4, 5, 6])
def test_integer_chord_sum_equals_fraction_loop_on_extremal_curves(n):
    for a in (F(1, 4), F(3, 8), F(5, 7)):
        c = build_extremal_curve(n, a=a)
        for d in (0, 1, 5, 9):
            for precision in (1, 64):
                assert polyline_length(c, d, precision) == \
                    _fraction_chord_sum(c, d, precision)


def test_integer_chord_sum_equals_fraction_loop_on_generic_specs():
    # column denominators 3-smooth times 2^k, 7^d, and 3 * 5 * 7 * 11
    pl = PiecewiseLinear(((F(0), F(0)), (F(1, 3), F(1, 5)), (F(5, 7), F(3, 11)),
                          (F(1), F(1))))
    ws = WeightedSum((Cantor(), RieszNagy(F(2, 7))), (F(1, 2), F(1, 3)))
    specs = [CurveSpec(3, (Cantor(),), F(1, 2)), CurveSpec(3, (ws,), F(1, 3)),
             CurveSpec(3, (pl,), F(2, 3)), CurveSpec(5, (Cantor(), ws, pl), F(1, 7))]
    for spec in specs:
        for d in (0, 3, 9):
            for precision in (1, 64):
                assert polyline_length(spec, d, precision) == \
                    _fraction_chord_sum(spec, d, precision)


def test_integer_chord_sum_equals_fraction_loop_with_in_leaf_points():
    # both samples hold points strictly inside a mapper staircase leaf, whose
    # values are not on the run denominators (test_curves checks the count)
    for n, d in ((5, 10), (4, 8)):
        c = build_extremal_curve(n, a=F(3, 8), M=3)
        for precision in (1, 64):
            assert polyline_length(c, d, precision) == \
                _fraction_chord_sum(c, d, precision)


def test_polyline_chord_sum_matches_naive_oracle():
    c = build_extremal_curve(4, a=F(3, 8), M=3)
    for d in (3, 6):
        value, radius = polyline_length(c, d)
        rasters = [oracle.raster_from_fn(f, d) for f in c.components]
        naive = oracle.naive_polyline(rasters, d)
        assert abs(value - naive) <= radius + F(1, 1 << 40)


def _per_chord_sum(curve, depth, bits):
    """Reference: `_chord_sum` with one square root per chord, as it was
    before the chords were grouped into classes."""
    columns = _columns(curve, depth)
    L = math.lcm(1 << depth, *(den for den, _ in columns))
    sums = [(L >> depth) ** 2] * (1 << depth)
    for den, nums in columns:
        m = L // den
        sums = [s + (m * (v - u)) ** 2 for s, u, v in zip(sums, nums, nums[1:])]
    L2 = L * L
    return _sqrt_sum(((1, s, L2) for s in sums), bits)


# one weight from each of the nine strata of the certify benchmark
_STRATUM_WEIGHTS = tuple(map(F, ("2/7", "5/16", "5/7", "11/16", "3/7", "3/5", "7/32",
                                 "1/5", "1/8")))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_chord_classes_sum_to_the_per_chord_enclosure(n):
    for a in _STRATUM_WEIGHTS:
        c = build_extremal_curve(n, a=a)
        for precision in (1, 64):
            bits = precision + 9
            assert _chord_sum(c, 9, bits) == _per_chord_sum(c, 9, bits), (a, precision)


def test_chord_classes_sum_to_the_per_chord_enclosure_on_generic_specs():
    pl = PiecewiseLinear(((F(0), F(0)), (F(1, 3), F(1, 5)), (F(5, 7), F(3, 11)),
                          (F(1), F(1))))
    ws = WeightedSum((Cantor(), RieszNagy(F(2, 7))), (F(1, 2), F(1, 3)))
    specs = [CurveSpec(3, (Cantor(),), F(1, 2)), CurveSpec(3, (ws,), F(1, 3)),
             CurveSpec(3, (pl,), F(2, 3)), CurveSpec(5, (Cantor(), ws, pl), F(1, 7)),
             CurveSpec(2, (), F(1, 2))]
    for spec in specs:
        for d in (0, 3, 9):
            for precision in (1, 64):
                bits = precision + d
                assert _chord_sum(spec, d, bits) == _per_chord_sum(spec, d, bits)


def test_chord_sum_takes_one_root_per_distinct_square(monkeypatch):
    calls = []

    def record(terms, bits):
        calls.append(list(terms))
        return _sqrt_sum(calls[-1], bits)

    monkeypatch.setattr(hausdorff, "_sqrt_sum", record)
    for n, a, d in ((4, F(2, 7), 9), (5, F(3, 8), 10), (6, F(1, 8), 9)):
        c = build_extremal_curve(n, a=a, M=3)
        calls.clear()
        assert _chord_sum(c, d, 64 + d) == _per_chord_sum(c, d, 64 + d)
        (terms,) = calls
        squares = [s for _, s, _ in terms]
        assert len(set(squares)) == len(squares)
        assert len({den for _, _, den in terms}) == 1
        assert sum(count for count, _, _ in terms) == 1 << d
        assert len(terms) < (1 << d) // 4


def _special_chords(curve, depth):
    """(inside, containing): the chords inside a W cell of generation <= depth,
    and the chords that hold a finer W cell."""
    inside, containing = set(), set()
    for _, k, g, _ in curve._w_cells:
        if g > depth:
            containing.add(k >> (g - depth))
        else:
            inside.update(range(k << (depth - g), (k + 1) << (depth - g)))
    return inside, containing


def _assert_w_cell_sum_is_the_chord_sum(c, depths, fraction_depths=()):
    for d in depths:
        for precision in (1, 64):
            value, radius = polyline_length(c, d, precision)
            assert (value - radius, value + radius) == _chord_sum(c, d, precision + d), \
                (c.n, c.a, c.M, c.staircase_depth, d, precision)
            if d in fraction_depths:
                assert (value, radius) == _fraction_chord_sum(c, d, precision)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_w_cell_chord_sum_equals_the_column_chord_sums(n):
    for a in _STRATUM_WEIGHTS:
        _assert_w_cell_sum_is_the_chord_sum(build_extremal_curve(n, a=a), range(13), (0, 3, 6, 9))


@pytest.mark.parametrize("M, staircase_depth", [(2, 1), (6, 3)])
def test_w_cell_chord_sum_at_other_mapper_shapes(M, staircase_depth):
    for n in (4, 5, 6):
        for a in (F(3, 8), F(2, 5), F(7, 8)):
            c = build_extremal_curve(n, a, M, F(1, 2), staircase_depth)
            _assert_w_cell_sum_is_the_chord_sum(c, range(13), (4,))
    # the W cells of 3/8 are coarser than the depth-12 chords and finer than
    # the depth-5 ones, so both kinds of special chord are summed
    c = build_extremal_curve(6, F(3, 8), M, F(1, 2), staircase_depth)
    assert _special_chords(c, 12)[0] and _special_chords(c, 5)[1]


def test_w_cell_chord_sum_on_a_loaded_extremal_curve():
    c = curve_from_json(curve_to_json(build_extremal_curve(5, F(2, 5), 3, F(1, 3), 2)))
    _assert_w_cell_sum_is_the_chord_sum(c, range(0, 13, 3), (6,))


@pytest.mark.parametrize("n, a", [(4, F(3, 8)), (5, F(7, 8))])
def test_w_cell_chord_sum_matches_naive_oracle(n, a):
    c = build_extremal_curve(n, a=a)
    inside, containing = _special_chords(c, 8)
    if a == F(3, 8):
        assert inside  # some W cell is coarser than the chords
    else:
        assert not inside and containing  # every W cell is finer
    value, radius = polyline_length(c, 8)
    rasters = [oracle.raster_from_fn(f, 8) for f in c.components]
    assert abs(value - oracle.naive_polyline(rasters, 8)) <= radius + F(1, 1 << 40)


def test_w_cell_chord_sum_reads_only_the_chords_inside_coarse_cells(monkeypatch):
    def no_columns(curve, depth):
        raise AssertionError("a full column was read")

    cases = [(build_extremal_curve(n, a=a), d)
             for n, a, d in ((4, F(2, 7), 11), (5, F(1, 3), 10), (4, F(3, 8), 9),
                             (6, F(4, 5), 10))]
    expected = [_chord_sum(c, d, 64 + d) for c, d in cases]
    monkeypatch.setattr(hausdorff, "_columns", no_columns)
    for (c, d), (lo, hi) in zip(cases, expected):
        reads = []
        for f in set(c.components):
            def column(den, nums, read=f.column):
                reads.append((den, list(nums)))
                return read(den, nums)
            monkeypatch.setattr(f, "column", column)
        inside, containing = _special_chords(c, d)
        ends = sorted({x for k in inside for x in (k, k + 1)})
        value, radius = polyline_length(c, d)
        assert (value - radius, value + radius) == (lo, hi)
        # a W cell of generation d is one chord, summed from its step
        assert all(den == 1 << d and nums == ends for den, nums in reads), (c.a, d)
        assert all(len(nums) <= 2 * len(inside | containing) + 2 for _, nums in reads)
        assert bool(reads) == bool(inside)


def test_polyline_chord_sum_matches_naive_oracle_with_in_leaf_points():
    c = build_extremal_curve(5, a=F(3, 8), M=3)
    assert _inside_leaf_count(c, 10) >= 1
    value, radius = polyline_length(c, 10)
    rasters = [oracle.raster_from_fn(f, 10) for f in c.components]
    naive = oracle.naive_polyline(rasters, 10)
    assert abs(value - naive) <= radius + F(1, 1 << 40)


def test_polyline_general_path_matches_collapsed():
    a = F(1, 4)
    collapsed_curve = build_extremal_curve(3, a=a)
    # same geometry but forced through the generic chord walk: alpha plus an
    # extra constant coordinate changes nothing about chord lengths
    spec = CurveSpec(4, (RieszNagy(a), Affine(F(0), F(1, 2))), F(1, 2))
    for d in (2, 5, 8):
        v1, r1 = polyline_length(collapsed_curve, d)
        v2, r2 = polyline_length(spec, d)
        assert abs(v1 - v2) <= r1 + r2


@pytest.mark.parametrize("a", [F(1, 4), F(1, 3), F(2, 7), F(3, 7), F(999, 1000),
                               F(1, 1024)])
def test_chord_sum_equals_collapsed_length_exactly_on_n3(a):
    c = build_extremal_curve(3, a=a)
    for d in range(15):
        for precision in (1, 64):
            bits = precision + d
            assert _collapsed_riesz_length(a, d, bits) == _chord_sum(c, d, bits)


def test_polyline_taxicab_bounds_per_depth():
    c = build_extremal_curve(3)
    for d in (3, 6):
        value, radius = polyline_length(c, d)
        # chords dominate the larger coordinate increment and are below the sum
        assert value + radius >= 1
        assert value - radius <= 2


def test_certificate_fields_and_validation():
    c = build_extremal_curve(3)
    cert = certify_h1(c, 12)
    assert cert.upper == 2
    assert cert.lower - cert.error_radius <= cert.upper
    assert cert.lower_depth == 12
    assert cert.lower_method.endswith("collapsed-binomial")
    blob = cert.to_json()
    assert blob["upper"] == "2/1"
    assert blob["schema_version"] == 1
    with pytest.raises(ValueError):
        H1Certificate(F(1), F(2), F(1, 2), 3, "x", "y")


def test_certificate_general_method_tag():
    c = build_extremal_curve(4, M=3)
    cert = certify_h1(c, 5)
    assert cert.upper == 3
    assert cert.lower_method.endswith("chord-sum")


# -- box counting -------------------------------------------------------------


def test_box_count_pinned_series_and_slope():
    c = build_extremal_curve(3, a=F(1, 4))
    slope, series = box_count_slope(c, range(4, 11))
    assert [bc.count for bc in series] == [23, 45, 93, 180, 354, 701, 1365]
    assert 0.9 <= slope <= 1.1
    assert all(isinstance(bc, BoxCount) for bc in series)
    counts = [bc.count for bc in series]
    assert counts == sorted(counts)


def test_box_count_slope_samples_once_at_the_finest_depth():
    c = build_extremal_curve(4, a=F(2, 7))
    _, series = box_count_slope(c, range(3, 9))
    for bc, m in zip(series, range(3, 9)):
        assert bc.count == box_count(c, m).count


def test_box_count_segment_slope_near_one():
    spec = CurveSpec(3, (Affine(1, 0),), F(1, 2))
    slope, series = box_count_slope(spec, range(3, 9))
    assert 0.9 <= slope <= 1.1
    # a diagonal hits about 2^m cells at resolution m
    for bc, m in zip(series, range(3, 9)):
        assert (1 << m) <= bc.count <= (1 << m) + 1


# -- Lipschitz image bound ----------------------------------------------------


def test_lipschitz_affine_and_identity():
    F01 = IntervalUnion.closed(0, 1)
    assert check_lipschitz_image(Affine(F(1, 2), F(0)), F(1, 2), F01)
    assert check_lipschitz_image(Affine(1, 0), F(1), F01)


def test_lipschitz_riesz_max_cell_slope():
    a = F(1, 4)
    f = RieszNagy(a)
    depth = 8
    dom = IntervalUnion.closed(F(1, 2), 1)
    scale = 1 << depth
    slopes = []
    prev = f(F(1, 2))
    for k in range(scale // 2 + 1, scale + 1):
        cur = f(F(k, scale))
        slopes.append((cur - prev) * scale)
        prev = cur
    c = max(slopes)
    assert check_lipschitz_image(f, c, dom, sample_depth=depth)


def test_lipschitz_false_declaration_raises_with_witness():
    f = Affine(F(2), F(0))
    with pytest.raises(LipschitzWitnessError) as err:
        check_lipschitz_image(f, F(1), IntervalUnion.closed(0, 1),
                              sample_depth=3)
    x, y, fx, fy = err.value.witness
    assert abs(fy - fx) > abs(y - x)


def _all_pairs_witness(f, c, dom, depth, pairs=itertools.combinations):
    """First (x, y, f(x), f(y)) over all sample pairs with |f(y) - f(x)| > c (y - x)."""
    xs = {e for comp in dom.components for e in (comp.lo, comp.hi)}
    xs |= {F(k, 1 << depth) for k in range((1 << depth) + 1)
           if dom.contains(F(k, 1 << depth))}
    pts = sorted(xs)
    vals = [f(x) for x in pts]
    for i, j in pairs(range(len(pts)), 2):
        if abs(vals[j] - vals[i]) > c * (pts[j] - pts[i]):
            return pts[i], pts[j], vals[i], vals[j]
    return None


def _consecutive(items, _):
    items = list(items)
    return zip(items, items[1:])


def test_lipschitz_consecutive_probe_matches_all_pairs():
    rng = random.Random(2207)
    depth = 5
    cases = []
    for _ in range(60):
        f = trials.random_piecewise_linear(rng, strict=rng.random() < 0.5)
        c = max(abs(s) for _, s in f.pieces())
        cases.append((f, c, trials.random_union(rng)))
    for _ in range(20):
        f = RieszNagy(rng.choice((F(1, 4), F(1, 3), F(3, 4), F(2, 5))))
        grid = [f(F(k, 1 << depth)) for k in range((1 << depth) + 1)]
        c = max(v - u for u, v in zip(grid, grid[1:])) * (1 << depth)
        cases.append((f, c, trials.random_union(rng, den=1 << depth)))
    raised = 0
    for f, c_true, dom in cases:
        for c in (c_true, c_true - F(1, 1 << 20)):
            want = _all_pairs_witness(f, c, dom, depth)
            try:
                ok = check_lipschitz_image(f, c, dom, sample_depth=depth)
            except LipschitzWitnessError as err:
                assert want is not None
                assert err.witness == _all_pairs_witness(f, c, dom, depth, _consecutive)
                x, y, fx, fy = err.witness
                assert x < y and (fx, fy) == (f(x), f(y))
                assert abs(fy - fx) > c * (y - x)
                raised += 1
            else:
                assert want is None
                assert ok == (image_measure(f, dom) <= c * dom.measure())
    assert 0 < raised < 2 * len(cases)


def _open_grid_domains():
    """Unions with open ends on grid points and parts outside [0, 1]."""
    yield IntervalUnion((Interval(F(-1, 2), F(1, 4), hi_closed=False),
                         Interval(F(1, 2), F(3, 4), lo_closed=False),
                         Interval(F(7, 8), F(3, 2), lo_closed=False)))
    yield IntervalUnion((Interval(F(-1), F(0), hi_closed=True),
                         Interval(F(1, 8), F(1, 8)),
                         Interval(F(3, 16), F(5, 16), False, False),
                         Interval(F(1), F(2), lo_closed=False)))
    # components touching at an open end share it
    yield IntervalUnion((Interval(F(1, 8), F(1, 4), hi_closed=False),
                         Interval(F(1, 4), F(5, 8), lo_closed=False)))
    rng = random.Random(6610)
    for _ in range(200):
        parts = []
        for _ in range(rng.randint(0, 4)):
            lo = rng.randint(-8, 40)
            hi = lo + rng.randint(0, 12)
            parts.append(Interval(F(lo, 32), F(hi, 32), rng.random() < 0.5 or lo == hi,
                                  rng.random() < 0.5 or lo == hi))
        yield IntervalUnion(parts)


def test_lipschitz_grid_listing_matches_contains_scan():
    for dom in _open_grid_domains():
        ends = {x for comp in dom.components for x in (comp.lo, comp.hi)}
        for depth in (0, 3, 5):
            scale = 1 << depth
            grid = {F(k, scale) for k in range(scale + 1) if dom.contains(F(k, scale))}
            den, nums = _sample_nums(dom, depth)
            assert den == math.lcm(scale, *(x.denominator for x in ends))
            assert [F(v, den) for v in nums] == sorted(ends | grid)


def test_lipschitz_column_error_is_the_pointwise_one():
    # the piecewise-linear column fails first, at 3/4, but point by point
    # the R_a term fails earlier, at the non-dyadic end 1/3
    pl = PiecewiseLinear(((F(0), F(0)), (F(1, 2), F(1))))
    f = WeightedSum((pl, RieszNagy(F(1, 4))), (F(1, 2), F(1, 2)))
    dom = IntervalUnion.closed(0, F(1, 3)) | IntervalUnion.closed(F(3, 4), 1)
    with pytest.raises(NotEvaluableError, match="dyadic x, got 1/3"):
        check_lipschitz_image(f, F(2), dom, sample_depth=3)
    with pytest.raises(NotEvaluableError, match="3/4 outside"):
        f.column(12, [0, 4, 9, 12])


def test_lipschitz_false_constant_raises_on_open_and_outside_domains():
    f = Affine(F(2), F(0))
    for dom in _open_grid_domains():
        if dom.measure() == 0:
            continue
        with pytest.raises(LipschitzWitnessError) as err:
            check_lipschitz_image(f, F(3, 2), dom, sample_depth=3)
        x, y, fx, fy = err.value.witness
        assert x < y and abs(fy - fx) > F(3, 2) * (y - x)
        assert check_lipschitz_image(f, F(2), dom, sample_depth=3)


# -- two-function cover-sum bound ---------------------------------------------


class _Recorder(MonotoneFn):
    """Wraps f and records every point it is evaluated at."""

    def __init__(self, f):
        self.f = f
        self.calls = []
        self.increasing = f.increasing
        self.strictly_monotone = f.strictly_monotone

    def __call__(self, x):
        self.calls.append(x)
        return self.f(x)


def _delta_cuts(f, comp, delta):
    """Reference: depth-first bisection of comp until f moves by at most
    delta per piece; the cut list is the left end and each piece's right end."""
    cuts = [comp.lo]
    stack = [(comp.lo, comp.hi, 0)]
    out = []
    while stack:
        u, v, d = stack.pop()
        if abs(f(v) - f(u)) <= delta:
            out.append((u, v))
            continue
        if d >= _BISECT_CAP:
            raise NotEvaluableError("could not refine below delta")
        mid = (u + v) / 2
        stack.append(((mid, v, d + 1)))
        stack.append(((u, mid, d + 1)))
    out.sort()
    for u, v in out:
        cuts.append(v)
    return cuts


def _sum_image_bound_reference(f1, f2, D, delta):
    """Reference: every sum and the refinement evaluate f1 and f2 afresh."""
    s1 = s2 = refined = F(0)
    for comp in D.components:
        cuts1 = _delta_cuts(f1, comp, delta)
        cuts2 = _delta_cuts(f2, comp, delta)
        s1 += sum((f1(v) - f1(u) for u, v in zip(cuts1, cuts1[1:])), F(0))
        s2 += sum((f2(v) - f2(u) for u, v in zip(cuts2, cuts2[1:])), F(0))
        merged = sorted(set(cuts1) | set(cuts2))
        for u, v in zip(merged, merged[1:]):
            d1, d2 = f1(v) - f1(u), f2(v) - f2(u)
            assert d1 <= delta and d2 <= delta
            refined += d1 + d2
    return refined <= s1 + s2


def test_sum_image_bound_evaluates_each_point_once():
    rng = random.Random(3318)
    cases = [(Affine(1, 0), Cantor(), IntervalUnion.closed(0, 1), F(1, 8))]
    for _ in range(40):
        f1 = trials.random_piecewise_linear(rng, strict=True)
        f2 = trials.random_piecewise_linear(rng, strict=True)
        cases.append((f1, f2, trials.random_union(rng), F(1, 1 << rng.randint(2, 5))))
    for f1, f2, dom, delta in cases:
        r1, r2 = _Recorder(f1), _Recorder(f2)
        ok = check_sum_image_bound(r1, r2, dom, delta)
        ref1, ref2 = _Recorder(f1), _Recorder(f2)
        assert ok == _sum_image_bound_reference(ref1, ref2, dom, delta)
        for got, ref in ((r1, ref1), (r2, ref2)):
            assert len(got.calls) == len(set(got.calls))
            assert set(got.calls) == set(ref.calls)
            assert len(ref.calls) > len(got.calls)


def _level_cut_points(f, D, delta):
    """`_level_cuts` of every component of D, as points; f at each is checked."""
    den = math.lcm(*(x.denominator for c in D.components for x in (c.lo, c.hi)))
    spans = [(c.lo.numerator * den // c.lo.denominator,
              c.hi.numerator * den // c.hi.denominator) for c in D.components]
    level, vden, cuts = _level_cuts(f, spans, den, delta)
    out = []
    for (a, b), cut in zip(spans, cuts):
        xs = [F((a << level) + j * (b - a), den << level) for j, _ in cut]
        assert [F(v, vden) for _, v in cut] == [f(x) for x in xs]
        out.append(xs)
    return out


def _cantor_cover(level):
    return IntervalUnion(
        Interval(F(k, 3 ** level), F(k + 1, 3 ** level)) for k in range(3 ** level)
        if all(k // 3 ** i % 3 != 1 for i in range(level)))


def test_level_order_cuts_equal_depth_first_bisection():
    rng = random.Random(1717)
    cases = [(Affine(1, 0), IntervalUnion.closed(0, 1), F(1, 8)),
             (Cantor(), IntervalUnion.closed(0, 1), F(1, 8)),
             (Cantor(), _cantor_cover(3), F(1, 16)),
             # a point component, open ends, and two components sharing an end
             (Cantor(), IntervalUnion((Interval(F(1, 5), F(1, 5)),
                                       Interval(F(1, 3), F(4, 5), lo_closed=False,
                                                hi_closed=False))), F(1, 8)),
             (Affine(1, 0), IntervalUnion((Interval(F(0), F(1, 2), hi_closed=False),
                                            Interval(F(1, 2), F(1), lo_closed=False))),
              F(1, 8))]
    for _ in range(60):
        dom, delta = trials.random_union(rng), F(1, 1 << rng.randint(2, 7))
        for _ in range(2):
            cases.append((trials.random_piecewise_linear(rng, strict=True), dom, delta))
    for f, dom, delta in cases:
        want = [_delta_cuts(f, comp, delta) for comp in dom.components]
        assert _level_cut_points(f, dom, delta) == want
    for f1, f2 in zip(cases[::2], cases[1::2]):
        for dom, delta in ((f1[1], f1[2]), (f2[1], f2[2])):
            assert (check_sum_image_bound(f1[0], f2[0], dom, delta)
                    == _sum_image_bound_reference(f1[0], f2[0], dom, delta))


class _Jump(MonotoneFn):
    """x below 1/3 and x + 1 from 1/3 on: no dyadic piece straddling 1/3 is
    delta-fine for delta < 1, so bisection reaches its cap."""

    strictly_monotone = True

    def __call__(self, x):
        x = F(x)
        return x + (x >= F(1, 3))


def test_sum_image_bound_raises_at_the_bisection_cap():
    F01 = IntervalUnion.closed(0, 1)
    with pytest.raises(NotEvaluableError, match="could not refine below delta"):
        _delta_cuts(_Jump(), F01.components[0], F(1, 4))
    for f1, f2 in ((Affine(1, 0), _Jump()), (_Jump(), Affine(1, 0))):
        with pytest.raises(NotEvaluableError, match="could not refine below delta"):
            check_sum_image_bound(f1, f2, F01, F(1, 4))


def test_sum_image_bound_identity_pair():
    F01 = IntervalUnion.closed(0, 1)
    assert check_sum_image_bound(Affine(1, 0), Affine(1, 0), F01, F(1, 4))


def test_sum_image_bound_identity_plus_cantor():
    cover = IntervalUnion.empty()
    # level-3 cover of the ternary construction
    for k in range(27):
        digits = (k // 9, (k // 3) % 3, k % 3)
        if 1 not in digits:
            cover = cover | IntervalUnion.closed(F(k, 27), F(k + 1, 27))
    assert check_sum_image_bound(Affine(1, 0), Cantor(), cover, F(1, 8))


def test_sum_image_bound_piecewise_pairs():
    f1 = PiecewiseLinear(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(1))))
    f2 = PiecewiseLinear(((F(0), F(0)), (F(1, 4), F(1, 2)), (F(1), F(1))))
    d = IntervalUnion.closed(0, F(3, 8)) | IntervalUnion.closed(F(1, 2), F(7, 8))
    assert check_sum_image_bound(f1, f2, d, F(1, 16))
    with pytest.raises(ValueError):
        check_sum_image_bound(f1, f2, d, 0)


# -- derivative-integral bound --------------------------------------------------


def test_derivative_bound_identity():
    assert check_derivative_bound(Affine(F(1), F(0)),
                                  IntervalUnion.closed(0, F(1, 2)))


def test_derivative_bound_flat_piece():
    pl = PiecewiseLinear(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1))))
    flat_part = IntervalUnion.closed(F(1, 2), 1)
    assert check_derivative_bound(pl, flat_part)
    # slopes 2 then 0 over the whole interval: 1 <= 1 with equality
    assert check_derivative_bound(pl, IntervalUnion.closed(0, 1))


def test_derivative_bound_requires_piecewise_affine():
    with pytest.raises(TypeError):
        check_derivative_bound(Cantor(), IntervalUnion.closed(0, 1))


def test_derivative_bound_domain_check():
    pl = PiecewiseLinear(((F(0), F(0)), (F(1, 2), F(1))))
    with pytest.raises(Exception):
        check_derivative_bound(pl, IntervalUnion.closed(0, 1))


def test_derivative_bound_domain_is_the_closed_knot_span():
    pl = PiecewiseLinear(((F(1, 4), F(0)), (F(1, 2), F(1, 2)), (F(3, 4), F(1))))
    # strict slopes make the bound an equality, so an integral too small fails
    for e in (IntervalUnion.closed(F(1, 4), F(3, 4)), IntervalUnion.empty(),
              IntervalUnion((Interval(F(1, 4), F(3, 8), False, False),
                             Interval(F(7, 16), F(5, 8), True, False)))):
        assert check_derivative_bound(pl, e)
    for e in (IntervalUnion.closed(F(1, 8), F(1, 2)),
              IntervalUnion.closed(F(1, 2), F(7, 8)),
              IntervalUnion.closed(0, F(1, 8)) | IntervalUnion.closed(F(1, 2), F(5, 8))):
        with pytest.raises(NotEvaluableError):
            check_derivative_bound(pl, e)
    # an affine map evaluates anywhere, so only the check refuses E beyond [0, 1]
    for e in (IntervalUnion.closed(F(-1, 2), F(1, 2)), IntervalUnion.closed(F(1, 2), F(3, 2))):
        with pytest.raises(NotEvaluableError):
            check_derivative_bound(Affine(1, 0), e)
