"""Curves in [0,1]^n whose points pairwise share exactly one coordinate.

A curve is the point set {(x, f_1(x), ..., f_{n-2}(x), alpha)} for monotone
components f_i and a fixed last coordinate alpha.  When every component is
strictly increasing, two distinct points can only agree in the alpha slot,
which is the de Bruijn-Erdos property for point pairs.  The extremal builder
realizes the measure-maximizing family: h = R_a in slot 2 and full-measure
mappers composed with h in the later slots, together with the domains
W_j = h^{-1}(N_j) on which those mappers climb fastest.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations

from .exact import Interval, IntervalUnion, ONE, ZERO, _spec_key, format_rational
from .singular import (
    Composition,
    IntervalStaircase,
    MonotoneFn,
    RieszNagy,
    RieszNagyImageGrid,
    _Excluded,
    build_full_measure_mapper,
    fn_from_json,
)

SCHEMA_VERSION = 1

# Deepest JSON nesting a curve spec may have.  Building and evaluating a spec
# recurse once per level, so the limit keeps them far below Python's
# recursion limit; constructed specs nest about 10 deep.
MAX_NESTING = 64
# Each mapper term builds 2^depth leaf cells and the spec JSON doubles per
# level; depth 8 already takes seconds, so larger depths are refused up front.
_MAX_STAIRCASE_DEPTH = 7
# construction time grows faster than n^2: `construct` takes 0.6 s at n = 100
# and, with this bound lifted, 2.5 s at n = 200 (2 vCPUs, x86_64)
_MAX_N = 100
# Build time follows the (n - 3) * M * 2^staircase_depth leaf cells; near 4096,
# 1.5 s (n = 4, M = 128, depth 5) to 12 s (n = 4, M = 1024, depth 2), 2 vCPUs.
_MAX_LEAF_CELLS = 4096
# A grid generation shrinks a staircase cell by r = max(a, 1 - a) = s/q at most
# and puts its ends over q times the denominator.  The last leaves are under
# 2^-(M + depth + 5) wide, so their ends lie over at most q^g, least r^g <= that.
# Past 2^14000 a spec can pass CPython's 4300 printable digits.  Near it, 0.1 s at
# n = 4 and 6.4 s at n = 100 (a = 232/233), 40 s at a = 7/8, M = 891 (2 vCPUs).
_MAX_LEAF_DEN_BITS = 14000


def _check_staircase_depth(depth, name: str) -> None:
    """Refuse a staircase depth outside the integers 1.._MAX_STAIRCASE_DEPTH: a
    depth-0 staircase's only leaf is its whole root interval, which leaves no
    room for the next mapper term or mapper."""
    if type(depth) is not int or not 1 <= depth <= _MAX_STAIRCASE_DEPTH:
        raise ValueError(f"{name} is not an integer in 1..{_MAX_STAIRCASE_DEPTH}")


@dataclass(frozen=True)
class CurveSpec:
    """The point set {(x, f_1(x), ..., f_{n-2}(x), alpha)}."""

    n: int
    components: tuple[MonotoneFn, ...]
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "components", tuple(self.components))
        if type(self.n) is not int or self.n < 2:
            raise ValueError("need an integer n >= 2")
        if len(self.components) != self.n - 2:
            raise ValueError(f"n={self.n} needs {self.n - 2} component functions")
        if not (ZERO <= self.alpha <= ONE):
            raise ValueError("alpha must lie in [0,1]")

    def point(self, x) -> tuple[Fraction, ...]:
        x = Fraction(x)
        return (x, *(f(x) for f in self.components), self.alpha)


@dataclass(frozen=True)
class ExtremalCurve(CurveSpec):
    """The curve of `build_extremal_curve`: its fields are what the builder chose.

    Each mapper is stored once, as the outer function of its component, with
    its leaf union N_trunc in `n_truncs`.  The domains W_j = h^{-1}(N_j) and
    their complement q1 are derived on first read.
    """

    a: Fraction
    M: int
    staircase_depth: int
    n_truncs: tuple[IntervalUnion, ...]

    @property
    def mappers(self) -> tuple[MonotoneFn, ...]:
        return tuple(c.outer for c in self.components[1:])

    @cached_property
    def _w_cells(self) -> tuple[tuple[int, int, int, Fraction], ...]:
        """(j, k, g, step) per leaf of mapper j's staircase terms, in term order.

        Leaf (k, g) is the image under h of the W cell [k/2^g, (k+1)/2^g].  A
        term of weight w and depth s is constant in x off its W cells and
        climbs by step = w/2^s across each of them.
        """
        return tuple((j, c.k, c.g, w / t._scale)
                     for j, f in enumerate(self.mappers)
                     for t, w in zip(f.terms, f.weights) if isinstance(t, IntervalStaircase)
                     for c in t.leaves())

    @cached_property
    def w_domains(self) -> tuple[IntervalUnion, ...]:
        """W_j = h^{-1}(N_j): the union of mapper j's W cells."""
        cells = [[] for _ in self.mappers]
        for j, k, g, _ in self._w_cells:
            cells[j].append(Interval(Fraction(k, 1 << g), Fraction(k + 1, 1 << g)))
        return tuple(map(IntervalUnion, cells))

    @cached_property
    def q1(self) -> IntervalUnion:
        """[0, 1] minus every W_j."""
        return IntervalUnion.closed(0, 1).subtract(
            IntervalUnion(c for w in self.w_domains for c in w.components))


def build_extremal_curve(n: int, a=Fraction(1, 4), M: int = 4,
                         alpha=Fraction(1, 2), staircase_depth: int = 2) -> ExtremalCurve:
    """Build the extremal curve of dimension n, 3 <= n <= _MAX_N.

    n=3 gives (x, R_a(x), alpha).  For n >= 4 the later components are
    full-measure mappers composed with h = R_a, each built to avoid the
    previous mappers' N sets; the mappers' staircase cells come from the
    R_a image grid, so every W_j = h^{-1}(N_j) is read off their addresses.
    A bad n, a, M, alpha or staircase depth, or a build past a budget, raises
    ValueError before any mapper is built.
    """
    if type(n) is not int or not 3 <= n <= _MAX_N:
        raise ValueError(f"extremal construction needs an integer n in 3..{_MAX_N}")
    if type(M) is not int or M < 1:
        raise ValueError(f"M is not an integer >= 1: {M!r}")
    _check_staircase_depth(staircase_depth, "staircase_depth")
    a = Fraction(a)
    alpha = Fraction(alpha)
    if not (ZERO < a < ONE) or a == Fraction(1, 2):
        raise ValueError("need 0 < a < 1 with a != 1/2")
    if not ZERO <= alpha <= ONE:
        raise ValueError("alpha must lie in [0,1]")
    if (cells := (n - 3) * M << staircase_depth) > _MAX_LEAF_CELLS:
        raise ValueError(f"(n - 3) * M * 2^staircase_depth = {cells} leaf cells, "
                         f"over the budget of {_MAX_LEAF_CELLS}")
    s, q = max(a, 1 - a).as_integer_ratio()
    over, under = (n > 3) << (M + staircase_depth + 5), 1  # 0 at n = 3: no mappers
    while over > under:
        over, under = over * s, under * q
        if under.bit_length() > _MAX_LEAF_DEN_BITS:
            raise ValueError(f"a = {a} is too near 0 or 1 for M = {M} and staircase "
                             f"depth {staircase_depth}: leaf ends over 2^{_MAX_LEAF_DEN_BITS}")
    h = RieszNagy(a)
    grid = RieszNagyImageGrid(a)
    avoid = _Excluded(IntervalUnion.empty(), grid.a.denominator)  # grown by each mapper
    components, n_truncs = [h], []
    for _ in range(n - 3):
        n_trunc, f = build_full_measure_mapper(avoid, M, staircase_depth, grid=grid)
        components.append(Composition(f, h))
        n_truncs.append(n_trunc)
    return ExtremalCurve(n, components, alpha, a, M, staircase_depth, tuple(n_truncs))


def _columns(curve, depth: int) -> list[tuple[int, list[int]]]:
    """The (den, nums) column of each component on the grid k * 2^-depth.

    A component that cannot be evaluated raises the error that point-by-point
    evaluation of the curve meets first.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    try:
        return [f.column(1 << depth, range((1 << depth) + 1)) for f in curve.components]
    except ValueError:
        for k in range((1 << depth) + 1):
            curve.point(Fraction(k, 1 << depth))
        raise


def sample(curve, depth: int) -> list[tuple[Fraction, ...]]:
    """The 2^depth + 1 exact curve points at x = k * 2^-depth, sorted by x.

    Equal to [curve.point(k * 2^-depth) for k in ...]: the Fraction view of
    `_columns` for library callers.  The command line reads the integer
    columns themselves.
    """
    columns = [[Fraction(v, den) for v in nums] for den, nums in _columns(curve, depth)]
    xs = [Fraction(k, 1 << depth) for k in range((1 << depth) + 1)]
    alphas = [curve.alpha] * len(xs)
    return list(zip(xs, *columns, alphas))


@dataclass(frozen=True)
class DbeReport:
    """Outcome of the pairwise unique-shared-coordinate check."""

    ok: bool
    violations: tuple[tuple[int, int, int], ...]  # (i, j, match count)
    pair_count: int


def check_dbe_property(points) -> DbeReport:
    """Check every pair of points agrees in exactly one coordinate.

    Coordinates are compared as given, so any numbers that compare equal
    match: Fractions, or the integer rows `verify --dbe` builds from one
    denominator per column.  Counts equal-value classes instead of comparing
    pairs.  The class sizes of each coordinate give `shared`, the match
    count summed over all pairs.
    A pair agreeing in two or more coordinates shares a value pair in two
    repeated coordinates, so grouping by value pairs lists every such pair;
    they are the violations exactly when `shared` minus their excess matches
    equals the pair count, i.e. when no pair agrees nowhere.  Otherwise the
    pairwise loop gives the report.
    """
    pts = list(map(tuple, points))
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points are not a valid curve sample")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise ValueError("points of mixed dimension")
    shared = 0
    repeated = []
    for c in range(len(pts[0])):
        same = sum(k * (k - 1) // 2 for k in Counter(p[c] for p in pts).values())
        if same:
            shared += same
            repeated.append(c)
    multi = set()
    for c1, c2 in combinations(repeated, 2):
        groups = defaultdict(list)
        for i, p in enumerate(pts):
            groups[p[c1], p[c2]].append(i)
        for group in groups.values():
            multi.update(combinations(group, 2))
    violations = sorted(
        (i, j, sum(1 for c1, c2 in zip(pts[i], pts[j]) if c1 == c2))
        for i, j in multi
    )
    pair_count = len(pts) * (len(pts) - 1) // 2
    excess = sum(m - 1 for _, _, m in violations)
    if shared - excess != pair_count:  # some pair agrees in no coordinate
        return _pairwise_dbe(pts)
    return DbeReport(not violations, tuple(violations), pair_count)


def _pairwise_dbe(pts) -> DbeReport:
    """The O(N^2) pair-by-pair report on validated points."""
    violations = []
    for i in range(len(pts)):
        p = pts[i]
        for j in range(i + 1, len(pts)):
            q = pts[j]
            matches = sum(1 for c1, c2 in zip(p, q) if c1 == c2)
            if matches != 1:
                violations.append((i, j, matches))
    pair_count = len(pts) * (len(pts) - 1) // 2
    return DbeReport(not violations, tuple(violations), pair_count)


# -- serialization -------------------------------------------------------------


def curve_to_json(curve) -> dict:
    extremal = isinstance(curve, ExtremalCurve)
    out = {
        "schema_version": SCHEMA_VERSION,
        "type": "extremal_curve" if extremal else "curve",
        "n": curve.n,
        "alpha": format_rational(curve.alpha),
        "components": [f.to_json() for f in curve.components],
    }
    if extremal:
        out.update({
            "a": format_rational(curve.a),
            "M": curve.M,
            "staircase_depth": curve.staircase_depth,
            "mappers": [
                {
                    "level": len(f.terms) - 1,
                    "image_lower_bound": format_rational(1 - f.weights[-1]),
                    "n_trunc": n_trunc.to_json(),
                }
                for f, n_trunc in zip(curve.mappers, curve.n_truncs)
            ],
            "w_domains": [w.to_json() for w in curve.w_domains],
            "q1": curve.q1.to_json(),
        })
    return out


def _nesting(obj) -> int:
    """Container depth of a JSON value (a scalar is 0), found without recursion."""
    deepest = 0
    stack = [(obj, 1)]
    while stack:
        value, depth = stack.pop()
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            deepest = max(deepest, depth)
            stack.extend((v, depth + 1) for v in value)
    return deepest


def curve_from_json(obj: dict):
    """Read a curve from `curve_to_json` output.

    A spec nesting deeper than MAX_NESTING is rejected before anything is
    built.  An extremal spec is rebuilt from n, a, M, alpha and
    staircase_depth, after a size check that bounds the work by the spec's
    length (n - 3 mappers of M * 2^staircase_depth N_trunc components), and
    each key of the rebuilt curve's JSON must equal the spec's.  Keys the
    loader does not read are ignored; that includes the `"piece_domains"`
    partition older specs may carry, which never changed the upper bound of
    a curve whose pieces cover [0,1].
    """
    if not isinstance(obj, dict):
        raise ValueError("spec is not a JSON object")
    if _nesting(obj) > MAX_NESTING:
        raise ValueError(f"spec nests deeper than {MAX_NESTING} levels")
    if _spec_key(obj, "schema_version", int) != SCHEMA_VERSION:
        raise ValueError("unsupported schema_version")
    kind = _spec_key(obj, "type")
    if kind == "extremal_curve":
        return _extremal_from_json(obj)
    if kind != "curve":
        raise ValueError(f"unknown curve type {kind!r}")
    components = tuple(map(fn_from_json, _spec_key(obj, "components", list)))
    # Every component kind is monotone, so its values at 0 and 1 bound it.
    for i, f in enumerate(components, 2):
        for x in (ZERO, ONE):
            y = f(x)
            if not ZERO <= y <= ONE:
                raise ValueError(f"coordinate {i} leaves the unit cube: "
                                 f"{format_rational(y)} at x = {x}")
    return CurveSpec(_spec_key(obj, "n"), components, _spec_key(obj, "alpha", Fraction))


def _extremal_from_json(obj: dict) -> ExtremalCurve:
    """The curve the spec's parameters build, if the spec is that curve's JSON."""
    n, M, depth = (_spec_key(obj, key, int) for key in ("n", "M", "staircase_depth"))
    _check_staircase_depth(depth, "key 'staircase_depth'")
    mappers = _spec_key(obj, "mappers", [dict])
    if len(mappers) != max(n - 3, 0):
        raise ValueError(f"key 'mappers' does not fit key 'n' = {n}")
    if any(len(_spec_key(m, "n_trunc", list)) != M << depth for m in mappers):
        raise ValueError(f"key 'mappers' does not fit key 'M' = {M} "
                         f"at staircase_depth {depth}")
    curve = build_extremal_curve(n, _spec_key(obj, "a", Fraction), M,
                                 _spec_key(obj, "alpha", Fraction), depth)
    for key, value in curve_to_json(curve).items():
        # compared as JSON text, since true == 1 == 1.0 in Python
        if (json.dumps(_spec_key(obj, key), sort_keys=True)
                != json.dumps(value, sort_keys=True)):
            raise ValueError(f"key {key!r} differs from the curve its parameters build")
    return curve
