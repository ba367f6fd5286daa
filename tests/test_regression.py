"""Estimators against the frozen oracle corpus in fixtures/regression.json.

Every expected value in the corpus was generated by the independent oracle
routines (see fixtures/make_regression.py); these tests recompute the
estimator side and compare within the declared error radii.  Cover sums
have no estimator, so their test recomputes the oracle against the corpus.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from dbecurves.curves import build_extremal_curve
from dbecurves.exact import Interval, IntervalUnion, parse_rational
from dbecurves.hausdorff import polyline_length
from dbecurves.oracle import brute_cover_sum
from dbecurves.singular import (
    Affine,
    Cantor,
    RieszNagy,
    eval_cantor,
    eval_riesz_nagy,
    image_measure,
)

F = Fraction

_FIXTURE = Path(__file__).parent / "fixtures" / "regression.json"


@pytest.fixture(scope="module")
def corpus():
    with open(_FIXTURE, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["schema_version"] == 1
    return data


def test_cantor_values_match_corpus(corpus):
    for x_s, want_s in corpus["cantor_values"]["values"].items():
        assert eval_cantor(parse_rational(x_s)) == parse_rational(want_s), x_s


def test_riesz_values_match_corpus(corpus):
    for a_s, table in corpus["riesz_values"]["values"].items():
        a = parse_rational(a_s)
        for x_s, want_s in table.items():
            assert eval_riesz_nagy(a, parse_rational(x_s)) == parse_rational(want_s)


def test_polyline_lengths_match_corpus(corpus):
    section = corpus["polyline_lengths"]
    a = parse_rational(section["a"])
    tol = F(1, 1 << 40)
    curve = build_extremal_curve(3, a=a)
    for d_s, want_s in section["collapsed"].items():
        value, radius = polyline_length(curve, int(d_s))
        assert abs(value - F(want_s)) <= radius + tol, d_s
    for d_s, want_s in section["naive"].items():
        value, radius = polyline_length(curve, int(d_s))
        assert abs(value - F(want_s)) <= radius + tol, d_s


def test_collapsed_equals_naive_in_corpus(corpus):
    section = corpus["polyline_lengths"]
    tol = F(1, 1 << 40)
    for d_s, want_s in section["collapsed"].items():
        assert abs(F(want_s) - F(section["naive"][d_s])) <= tol


def _union(obj) -> IntervalUnion:
    """An IntervalUnion read from its `to_json` list."""
    return IntervalUnion(
        Interval(parse_rational(c["lo"]), parse_rational(c["hi"]),
                 c["lo_closed"], c["hi_closed"])
        for c in obj
    )


_FNS = {
    "cantor": Cantor(),
    "riesz_1/4": RieszNagy(F(1, 4)),
    "identity": Affine(1, 0),
}


def test_image_measures_within_corpus_brackets(corpus):
    for case in corpus["image_measures"]["cases"]:
        fn = _FNS[case["fn"]]
        u = _union(case["union"])
        got = image_measure(fn, u)
        lo = parse_rational(case["lower"])
        hi = parse_rational(case["upper"])
        assert lo <= got <= hi, case


def test_cover_sums_match_corpus(corpus):
    for case in corpus["cover_sums"]["cases"]:
        u = _union(case["union"])
        delta = parse_rational(case["delta"])
        want = parse_rational(case["value"])
        assert brute_cover_sum(u, delta) == want, case
