"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion line prints even under pytest's capture (via capsys.disabled)
so a plain `pytest -v` run shows the ten verdicts inline.  Tolerances and
pinned constants are stated next to each check; pinned values were computed
once by the independent oracle routines and frozen here.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from dbecurves import oracle
from dbecurves.curves import (
    CurveSpec,
    build_extremal_curve,
    check_dbe_property,
    sample,
)
from dbecurves.exact import Interval, IntervalUnion, parse_rational
from dbecurves.hausdorff import box_count_slope, polyline_length, upper_bound_h1
from dbecurves.setfamily import max_family_size, near_pencil, unique_intersection
from dbecurves.singular import (
    Cantor,
    build_full_measure_mapper,
    build_interval_staircase,
    eval_cantor,
    eval_riesz_nagy,
    image_measure,
)
from dbecurves.trials import (
    run_derivative_trials,
    run_lipschitz_trials,
    run_refinement_trials,
    run_sum_bound_trials,
)
from test_exact import intersects

F = Fraction

# First depth at which the collapsed a=1/4 polyline length reaches 1.9;
# computed once with oracle.collapsed_riesz_length (decimal sqrt, prec 50):
# depth 34 gives 1.89938..., depth 35 gives 1.90366...
PINNED_DSTAR = 35

_FIXTURE = Path(__file__).parent / "fixtures" / "regression.json"


def _report(capsys, num, desc, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {num:2d}: {desc}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {num:2d}: {desc}")


def test_criterion_01_exact_upper_bounds(capsys):
    def body():
        for n in (3, 4, 5, 6):
            t0 = time.monotonic()
            curve = build_extremal_curve(n)
            got = upper_bound_h1(curve)
            elapsed = time.monotonic() - t0
            assert got == F(n - 1), f"n={n}: got {got}"
            assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"

    _report(capsys, 1, "upper bound is exactly n-1 for n=3..6, each under 1 s",
            body)


def test_criterion_02_lower_bound_convergence_n3(capsys):
    def body():
        curve = build_extremal_curve(3, a=F(1, 4))
        upper = F(2)
        t0 = time.monotonic()
        prev = None
        reached = None
        for d in range(1, 65):
            value, radius = polyline_length(curve, d)
            assert prev is None or value >= prev, f"decreased at depth {d}"
            assert value - radius <= upper, f"exceeded upper bound at depth {d}"
            if reached is None and value >= F(19, 10):
                reached = d
            prev = value
        elapsed = time.monotonic() - t0
        assert reached == PINNED_DSTAR, f"first depth >= 1.9 was {reached}"
        assert elapsed < 1.0, f"collapsed series took {elapsed:.2f}s"

    _report(capsys, 2, "a=1/4 polyline lengths rise to 1.9 at the pinned "
                       "depth 35, never pass 2, under 1 s", body)


def test_criterion_03_cantor_graph_diagnostic(capsys):
    def body():
        closed = oracle.cantor_closed_form_length(10)
        naive = oracle.naive_polyline([oracle.cantor_raster(10)], 10)
        assert abs(naive - closed) < F(1, 10 ** 6)
        assert abs(float(closed) - 1.982809) < 1e-6
        series = [oracle.cantor_closed_form_length(d) for d in range(1, 11)]
        assert all(u <= v for u, v in zip(series, series[1:]))
        assert all(v <= 2 for v in series)

    _report(capsys, 3, "Cantor-graph polyline at depth 10 matches the closed "
                       "form within 1e-6; series nondecreasing, capped by 2",
            body)


def test_criterion_04_mapper_truncations_exact(capsys):
    def body():
        for M in range(1, 11):
            n_trunc, f = build_full_measure_mapper(IntervalUnion.empty(), M, 3)
            stairs = [IntervalUnion(c.iv for c in t.leaves()) for t in f.terms[:-1]]
            for i in range(len(stairs)):
                for j in range(i + 1, len(stairs)):
                    assert not intersects(stairs[i], stairs[j]), (M, i, j)
            assert f.strictly_monotone, M
            got = image_measure(f, n_trunc)
            assert got >= 1 - F(1, 1 << M), (M, got)

    _report(capsys, 4, "truncated mappers at M=1..10: disjoint stair sets, "
                       "strictly increasing, image measure >= 1 - 2^-M exactly",
            body)


def test_criterion_05_staircase_identities_exact(capsys):
    def body():
        for d in range(1, 13):
            n, stair = build_interval_staircase(
                Interval.closed(0, 1), IntervalUnion.empty(), d)
            assert n.measure() <= F(1, d + 1), d
            assert image_measure(stair, n) == 1, d

    _report(capsys, 5, "staircases at depths 1..12: domain measure <= "
                       "1/(d+1) and image measure exactly 1", body)


def test_criterion_06_pairwise_coordinate_property(capsys):
    def body():
        for n in (3, 4, 5, 6):
            curve = build_extremal_curve(n)
            rep = check_dbe_property(sample(curve, 8))
            assert rep.ok, f"n={n}: {rep.violations[:3]}"
            assert rep.pair_count == 257 * 256 // 2
        control = CurveSpec(3, (Cantor(),), F(1, 2))
        rep = check_dbe_property(sample(control, 8))
        assert not rep.ok
        assert len(rep.violations) >= 1

    _report(capsys, 6, "all 257-point samples of n=3..6 curves agree pairwise "
                       "in exactly one coordinate; Cantor control violates",
            body)


def test_criterion_07_randomized_inequality_suites(capsys):
    def body():
        assert run_refinement_trials(500, seed=101) == 0
        assert run_sum_bound_trials(500, seed=102) == 0
        assert run_lipschitz_trials(500, seed=103) == 0
        assert run_derivative_trials(500, seed=104) == 0

    _report(capsys, 7, "500 randomized trials per inequality suite "
                       "(refinement, cover sum, Lipschitz, derivative): "
                       "zero violations", body)


def test_criterion_08_exhaustive_family_search(capsys):
    def body():
        for n in (2, 3, 4, 5):
            t0 = time.monotonic()
            assert max_family_size(n) == n
            assert time.monotonic() - t0 < 60.0
        for n in (3, 4, 5):
            pencil = near_pencil(n)
            assert unique_intersection(pencil)
            assert len(pencil) == n

    _report(capsys, 8, "exhaustive search: largest unique-intersection family "
                       "has size n for n=2..5; near-pencils attain it", body)


def test_criterion_09_box_count_slope(capsys):
    def body():
        curve = build_extremal_curve(3, a=F(1, 4))
        slope, _ = box_count_slope(curve, range(4, 11))
        assert 0.9 <= slope <= 1.1, slope

    _report(capsys, 9, "box-count slope over m=4..10 for the n=3 curve lies "
                       "in [0.9, 1.1]", body)


def test_criterion_10_oracle_regression_corpus(capsys):
    def body():
        with open(_FIXTURE, "r", encoding="utf-8") as fh:
            corpus = json.load(fh)
        for x_s, want_s in corpus["cantor_values"]["values"].items():
            assert eval_cantor(parse_rational(x_s)) == parse_rational(want_s)
        for a_s, table in corpus["riesz_values"]["values"].items():
            a = parse_rational(a_s)
            for x_s, want_s in table.items():
                assert eval_riesz_nagy(a, parse_rational(x_s)) == \
                    parse_rational(want_s)
        section = corpus["polyline_lengths"]
        curve = build_extremal_curve(3, a=parse_rational(section["a"]))
        tol = F(1, 1 << 40)
        for d_s, want_s in section["collapsed"].items():
            value, radius = polyline_length(curve, int(d_s))
            assert abs(value - F(want_s)) <= radius + tol
        for d_s, want_s in section["naive"].items():
            value, radius = polyline_length(curve, int(d_s))
            assert abs(value - F(want_s)) <= radius + tol

    _report(capsys, 10, "estimators agree with the frozen oracle corpus "
                        "within declared error radii", body)
