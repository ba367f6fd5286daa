"""Property tests of the curve JSON round trip (skipped without hypothesis).

A curve written by `curve_to_json` and read back by `curve_from_json` must
write the same JSON again and evaluate to the same point at every probed
dyadic x.  Generic specs are drawn from every component kind, with one
component nested three combinators deep; extremal curves cover n 3-6 and
M 1-3.
"""

import json
from fractions import Fraction
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dbecurves.curves import (  # noqa: E402
    CurveSpec,
    build_extremal_curve,
    curve_from_json,
    curve_to_json,
)
from dbecurves.singular import (  # noqa: E402
    Affine,
    Cantor,
    Composition,
    PiecewiseLinear,
    RieszNagy,
    WeightedSum,
)

F = Fraction
KINDS = {"cantor", "riesz_nagy", "affine", "piecewise_linear",
         "interval_staircase", "weighted_sum", "composition"}
WEIGHTS = (F(1, 4), F(1, 3), F(2, 7), F(3, 8), F(5, 9))

_settings = settings(max_examples=150, deadline=None, database=None, derandomize=True)

# the staircase terms of one built mapper, mapping [0,1] onto [0,1]
_STAIRCASES = build_extremal_curve(4, a=F(2, 7), M=2).mappers[0].terms[:-1]

# slope k/4 and an offset that keeps both ends in [0,1]
_affine = st.integers(-4, 4).flatmap(
    lambda k: st.integers(max(0, -k), min(4, 4 - k)).map(
        lambda o: Affine(F(k, 4), F(o, 4))))


def _piecewise_linear(xs_ys):
    xs, ys = xs_ys
    xs = sorted({0, *xs, 8})
    ys = sorted(ys[:len(xs)] + [0] * (len(xs) - len(ys)))
    return PiecewiseLinear((F(x, 8), F(y, 8)) for x, y in zip(xs, ys))


_leaf = st.one_of(
    st.just(Cantor()),
    st.sampled_from(WEIGHTS).map(RieszNagy),
    _affine,
    st.tuples(st.lists(st.integers(1, 7), max_size=4),
              st.lists(st.integers(0, 8), min_size=2, max_size=6)).map(_piecewise_linear),
    st.sampled_from(_STAIRCASES),
)


def _rising(f):
    """f itself when non-decreasing, else 1 - f, so it may enter a weighted sum."""
    return f if f.increasing else Composition(Affine(-1, 1), f)


def _combine(forced, free):
    """A weighted sum or composition with `forced` among its arguments."""
    weighted = st.tuples(forced, st.lists(free, max_size=2), st.integers(1, 3)).map(
        lambda t: WeightedSum(
            [_rising(f) for f in (t[0], *t[1])],
            [F(1, 1 << (t[2] + 1))] * (len(t[1]) + 1)))
    outer = st.tuples(forced, free).map(lambda t: Composition(t[0], t[1]))
    inner = st.tuples(free, forced).map(lambda t: Composition(t[0], t[1]))
    return st.one_of(weighted, outer, inner)


def _nested(depth):
    """Functions with a chain of `depth` weighted sums or compositions."""
    fn = _leaf
    for _ in range(depth):
        fn = _combine(fn, _leaf)
    return fn


_any_fn = st.one_of(_leaf, _nested(1))

_spec = st.tuples(_nested(3), st.lists(_any_fn, max_size=3),
                  st.integers(0, 8)).map(
    lambda t: CurveSpec(len(t[1]) + 3, (t[0], *t[1]), F(t[2], 8)))


def _kinds(obj):
    found = set()
    stack = [obj]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            found.add(value.get("kind"))
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return found - {None}


def _at(curve, x):
    """curve.point(x), or the type of the error it raises."""
    try:
        return curve.point(x)
    except Exception as exc:  # the loaded curve must fail the same way
        return type(exc)


def _check_round_trip(curve):
    obj = json.loads(json.dumps(curve_to_json(curve)))
    ends = (_at(curve, F(0)), _at(curve, F(1)))
    if any(isinstance(p, type) for p in ends):
        # the loader evaluates every component at 0 and 1 and rejects the spec
        with pytest.raises(ends[isinstance(ends[1], type)]):
            curve_from_json(obj)
        return obj
    back = curve_from_json(obj)
    assert type(back) is type(curve)
    assert curve_to_json(back) == obj
    for k in range(9):
        x = F(k, 8)
        assert _at(back, x) == _at(curve, x)
    return obj


@lru_cache(maxsize=None)
def _extremal(n, a, M, depth):
    return build_extremal_curve(n, a=a, M=M, staircase_depth=depth)


def test_generic_specs_cover_every_kind():
    assert {f.kind for f in _STAIRCASES} == {"interval_staircase"}
    seen = set()

    @_settings
    @given(_spec)
    def collect(spec):
        seen.update(_kinds(curve_to_json(spec)))
    collect()
    assert KINDS <= seen


@_settings
@given(_spec)
def test_generic_spec_round_trip(spec):
    _check_round_trip(spec)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(3, 6), st.sampled_from(WEIGHTS), st.integers(1, 3),
       st.integers(1, 2))
def test_extremal_curve_round_trip(n, a, M, depth):
    obj = _check_round_trip(_extremal(n, a, M, depth))
    assert (obj["n"], obj["M"], len(obj["mappers"])) == (n, M, n - 3)
