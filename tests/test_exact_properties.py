"""Property tests of IntervalUnion set algebra (skipped without hypothesis).

Each operation is checked against pointwise membership at every endpoint
value of its operands, at every midpoint between consecutive endpoints, and
at one point on either side of them all.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dbecurves.exact import Interval, IntervalUnion, _end_cut, _start_cut  # noqa: E402

F = Fraction
DEN = 12

_interval = st.builds(
    lambda lo, length, lo_closed, hi_closed: Interval(
        F(lo, DEN), F(lo + length, DEN),
        lo_closed or length == 0, hi_closed or length == 0),
    st.integers(0, DEN), st.integers(0, DEN // 2), st.booleans(), st.booleans())
_union = st.lists(_interval, max_size=6).map(IntervalUnion)

_settings = settings(max_examples=300, deadline=None, database=None)


def _probes(*unions):
    vals = sorted({v for u in unions for c in u.components for v in (c.lo, c.hi)}
                  | {F(-1), F(2)})
    return vals + [(u + v) / 2 for u, v in zip(vals, vals[1:])]


def _is_canonical(u):
    comps = u.components
    return (all(_start_cut(c) <= _end_cut(c) for c in comps)
            and all(_end_cut(x) < _start_cut(y)
                    and not (x.hi == y.lo and (x.hi_closed or y.lo_closed))
                    for x, y in zip(comps, comps[1:])))


@_settings
@given(_union, _union)
def test_union_is_pointwise_or(a, b):
    got = a | b
    assert _is_canonical(got)
    for x in _probes(a, b):
        assert got.contains(x) == (a.contains(x) or b.contains(x))


@_settings
@given(_union, _union)
def test_union_merge_matches_normalizing_all_components(a, b):
    assert (a | b).components == IntervalUnion(a.components + b.components).components
    assert (a | IntervalUnion.empty()).components == a.components
    assert (IntervalUnion.empty() | a).components == a.components


@_settings
@given(_union, _union)
def test_intersect_is_pointwise_and(a, b):
    got = a & b
    assert _is_canonical(got)
    for x in _probes(a, b):
        assert got.contains(x) == (a.contains(x) and b.contains(x))


@_settings
@given(_union, _union)
def test_subtract_is_pointwise_and_not(a, b):
    got = a - b
    assert _is_canonical(got)
    for x in _probes(a, b):
        assert got.contains(x) == (a.contains(x) and not b.contains(x))
