"""Monotone singular functions and staircase constructions.

Four families of machinery live here:

* exact evaluators for the Cantor function and the Riesz-Nagy functions R_a,
* composable monotone-function descriptors (affine, piecewise linear,
  weighted sums, compositions) with exact rational evaluation,
* nested-interval staircase trees: given an interval I, an excluded set and
  a depth d, build a small union N of 2^d subintervals avoiding the excluded
  set together with a continuous non-decreasing f_I that maps N onto [0,1],
* truncated full-measure mappers: strictly increasing f on [0,1] and a union
  N_trunc with measure(f(N_trunc)) >= 1 - 2^-M, assembled from staircases
  over the first M intervals of a fixed rational-interval enumeration.

Everything evaluates in exact rational arithmetic or raises; no floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .exact import (
    _ABOVE,
    _AT,
    _BELOW,
    Interval,
    IntervalUnion,
    ONE,
    ZERO,
    _end_cut,
    _spec_key,
    _start_cut,
    format_rational,
)


class NotEvaluableError(ValueError):
    """Exact evaluation is not possible at the requested point."""


class ConstructionError(RuntimeError):
    """A staircase or mapper construction ran out of admissible intervals."""


_HALF = Fraction(1, 2)

# Guard against pathological digit periods.  Unreachable for the rationals
# this library produces: a flat digit or the cycle shows up long before.
_DIGIT_STEP_CAP = 2_000_000


def _num_over(v: Fraction, den: int) -> int:
    """The numerator of v over den, a multiple of v's denominator."""
    return v.numerator * (den // v.denominator)


def _over_lcm(vals) -> tuple[int, list[int]]:
    """(den, nums) with vals[k] = nums[k] / den, den the lcm of their denominators."""
    den = math.lcm(*{v.denominator for v in vals})
    return den, [_num_over(v, den) for v in vals]


def _floor_times(b: Fraction, den: int) -> int:
    """floor(b * den): v / den <= b exactly when the integer v is at most this."""
    return b.numerator * den // b.denominator


def _ceil_times(b: Fraction, den: int) -> int:
    """ceil(b * den): v / den >= b exactly when the integer v is at least this."""
    return -(-b.numerator * den // b.denominator)


def _is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def _digit_walk(x: Fraction, base: int, q: int, maps) -> Fraction:
    """f(x) for the f with f(0) = 0, f(1) = 1 and f((j + t)/base) = (o + s*f(t))/q
    on digit j, where (o, s) = maps[j].

    After i digits of the canonical expansion f(x) = (off + scale*f(t))/q^i
    on integers, for the remainder t.  The walk stops at t = 0, once a flat
    digit (s = 0) zeroes the scale, or when t returns to its value off0,
    scale0 at the end of the preperiod P: then
    (off0 + scale0*f(t))*q^(i-P) = off + scale*f(t) gives f(t).
    """
    if x == ONE:
        return ONE
    num, den = x.numerator, x.denominator
    # remainders are purely periodic once the factors den shares with base are used up
    pre, rest = 0, den
    while (g := math.gcd(rest, base)) > 1:
        rest //= g
        pre += 1
    off, scale, i = 0, 1, 0
    while num and scale:
        if i == pre:
            anchor, off0, scale0 = num, off, scale
        elif i > pre and num == anchor:
            return Fraction(scale0 * off - off0 * scale, (scale0 * q**(i - pre) - scale) * q**pre)
        if i > _DIGIT_STEP_CAP:
            raise RuntimeError("digit period beyond step cap")
        j, num = divmod(num * base, den)
        o, s = maps[j]
        off, scale, i = q * off + scale * o, scale * s, i + 1
    return Fraction(off, q**i)


def eval_cantor(x) -> Fraction:
    """Exact value of the Cantor function at a rational x in [0,1].

    The digit walk of the canonical ternary expansion: the first digit 1
    ends it with a dyadic value; an all-{0,2} rational tail is eventually
    periodic, giving a value with denominator (2^L - 1) * 2^P for preperiod
    P and period L.
    """
    x = Fraction(x)
    if not (ZERO <= x <= ONE):
        raise NotEvaluableError("eval_cantor needs x in [0,1]")
    return _digit_walk(x, 3, 2, ((0, 1), (1, 0), (1, 1)))


def eval_riesz_nagy(a, x) -> Fraction:
    """Exact R_a at a dyadic rational x by the digit walk of its binary expansion.

    R(x) = a*R(2x) on [0,1/2] and R(x) = a + (1-a)*R(2x-1) on [1/2,1].
    Non-dyadic x raises NotEvaluableError.
    """
    a = Fraction(a)
    x = Fraction(x)
    if not (ZERO < a < ONE):
        raise ValueError("need 0 < a < 1")
    if not (ZERO <= x <= ONE):
        raise NotEvaluableError("eval_riesz_nagy needs x in [0,1]")
    if not _is_dyadic(x):
        raise NotEvaluableError(f"R_a is exactly evaluable only at dyadic x, got {x}")
    p, q = a.numerator, a.denominator
    return _digit_walk(x, 2, q, ((0, p), (p, q - p)))


# A column over 2^d reads all 2^d + 1 level-d values when it holds at least
# 2^d / _DENSE_LEVEL points; a sparser one is evaluated point by point.  One
# point costs about as much as 130-600 level values at depths 5-10.
_DENSE_LEVEL = 64


def _riesz_nagy_nums(a: Fraction, depth: int) -> tuple[int, list[int]]:
    """(q^depth, nums): R_a(k/2^depth) = nums[k] / q^depth for a = p/q.

    Level by level, the values are integer numerators over q^j: the
    midpoint of a cell with end numerators l, r is q*l + p*(r - l) (the
    self-similarity R((2k+1)/2^j) = L + a*(R - L)), and the old values are
    rescaled by q.
    """
    p, q = a.numerator, a.denominator
    nums = [0, 1]
    for _ in range(depth):
        nxt = [0] * (2 * len(nums) - 1)
        nxt[::2] = [q * v for v in nums]
        nxt[1::2] = [q * l + p * (r - l) for l, r in zip(nums, nums[1:])]
        nums = nxt
    return q**depth, nums


# -- monotone function descriptors -------------------------------------------


class MonotoneFn:
    """Base descriptor: exact evaluation plus direction/strictness flags.  A
    kind defines `column` or `__call__`: a point is the one-point column."""

    increasing: bool = True
    strictly_monotone: bool = False
    kind: str = "abstract"

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        den, (v,) = self.column(x.denominator, [x.numerator])
        return Fraction(v, den)

    def column(self, den: int, nums) -> tuple[int, list[int]]:
        """self at nums[k] / den for a non-decreasing integer list nums.

        The values come back in the same form: integer numerators over one
        denominator, here the lcm of the values' denominators.
        """
        return _over_lcm([self(Fraction(v, den)) for v in nums])

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class Cantor(MonotoneFn):
    """The devil's staircase c on [0,1]: non-decreasing, not injective."""

    kind = "cantor"

    def __call__(self, x) -> Fraction:
        return eval_cantor(x)

    def to_json(self) -> dict:
        return {"kind": self.kind}


class RieszNagy(MonotoneFn):
    """R_a: strictly increasing singular function, exact at dyadics."""

    kind = "riesz_nagy"
    strictly_monotone = True

    def __init__(self, a):
        self.a = Fraction(a)
        if not (ZERO < self.a < ONE):
            raise ValueError("need 0 < a < 1")
        # [(d, _riesz_nagy_nums(a, d))] last read densely, shared by the equal
        # R_a leaves of a loaded spec
        self._level = [(None, None)]

    def __call__(self, x) -> Fraction:
        return eval_riesz_nagy(self.a, x)

    def column(self, den: int, nums) -> tuple[int, list[int]]:
        """A dense column over den = 2^d inside [0, 1] reads the level-d
        values of the integer recursion, kept until a column at another depth;
        any other goes point by point."""
        d = den.bit_length() - 1
        if (den == 1 << d and den <= _DENSE_LEVEL * len(nums)
                and 0 <= nums[0] and nums[-1] <= den):
            last = self._level[0]
            if last[0] != d:
                last = self._level[0] = d, _riesz_nagy_nums(self.a, d)
            qd, level = last[1]
            return qd, [level[v] for v in nums]
        return super().column(den, nums)

    def to_json(self) -> dict:
        return {"kind": self.kind, "a": format_rational(self.a)}

    def __repr__(self) -> str:
        return f"RieszNagy({self.a})"


class Affine(MonotoneFn):
    kind = "affine"

    def __init__(self, slope, offset):
        self.slope = Fraction(slope)
        self.offset = Fraction(offset)
        self.increasing = self.slope >= 0
        self.strictly_monotone = self.slope != 0

    def __call__(self, x) -> Fraction:
        return self.slope * Fraction(x) + self.offset

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "slope": format_rational(self.slope),
            "offset": format_rational(self.offset),
        }

    def __repr__(self) -> str:
        return f"Affine({self.slope}, {self.offset})"


class PiecewiseLinear(MonotoneFn):
    """Non-decreasing piecewise-linear interpolant through rational knots."""

    kind = "piecewise_linear"

    def __init__(self, knots):
        knots = tuple((Fraction(x), Fraction(y)) for x, y in knots)
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        # knot i is (xn[i] / X, yn[i] / Y) for integers xn[i], yn[i]
        X, xn = _over_lcm([k[0] for k in knots])
        Y, yn = _over_lcm([k[1] for k in knots])
        if any(x1 >= x2 for x1, x2 in zip(xn, xn[1:])):
            raise ValueError("knot x-values must be strictly increasing")
        if any(y1 > y2 for y1, y2 in zip(yn, yn[1:])):
            raise ValueError("knot y-values must be non-decreasing")
        self.knots = knots
        self.strictly_monotone = all(y1 < y2 for y1, y2 in zip(yn, yn[1:]))
        # Piece i is f(v / den) = (s_i * v + b_i * den) / (self._den * den).
        # Over Y * P, P the lcm of the knot gaps g = x2 - x1 and m = P / g,
        # s_i = m * (y2 - y1) * X and b_i = m * (y1 * g - (y2 - y1) * x1).
        P = math.lcm(*(x2 - x1 for x1, x2 in zip(xn, xn[1:])))
        lines = []
        for x1, x2, y1, y2 in zip(xn, xn[1:], yn, yn[1:]):
            m, dy = P // (x2 - x1), y2 - y1
            lines.append((m * dy * X, m * (y1 * (x2 - x1) - dy * x1)))
        g = math.gcd(Y * P, *(c for line in lines for c in line))
        self._den = Y * P // g
        self._lines = [(s // g, b // g) for s, b in lines]
        self._X, self._xn = X, xn

    def pieces(self):
        """Yield (Interval, slope) per linear piece."""
        for (x1, y1), (x2, y2) in zip(self.knots, self.knots[1:]):
            yield Interval(x1, x2), (y2 - y1) / (x2 - x1)

    __call__ = MonotoneFn.__call__  # a name of its own: perfbench traces it per class

    def column(self, den: int, nums) -> tuple[int, list[int]]:
        """Piece by piece over self._den * den: knot piece i takes the points
        from its left knot up to the next knot (the last piece also its right
        knot), one integer multiply-add each.  The first point outside the
        knots raises NotEvaluableError.
        """
        X, xn = self._X, self._xn
        below = bisect_left(nums, -(-xn[0] * den // X))
        inside = bisect_right(nums, xn[-1] * den // X)
        if below or inside < len(nums):
            x = Fraction(nums[0] if below else nums[inside], den)
            raise NotEvaluableError(f"{x} outside piecewise-linear domain")
        cuts = [0, *(bisect_left(nums, -(-x * den // X)) for x in xn[1:-1]), len(nums)]
        out = []
        for start, stop, (s, b) in zip(cuts, cuts[1:], self._lines):
            b *= den
            out += [s * v + b for v in nums[start:stop]]
        return self._den * den, out

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "knots": [[format_rational(x), format_rational(y)] for x, y in self.knots],
        }


class WeightedSum(MonotoneFn):
    """Positive-weight sum of non-decreasing terms, weights summing to <= 1."""

    kind = "weighted_sum"

    def __init__(self, terms, weights):
        self.terms = tuple(terms)
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.terms) != len(self.weights):
            raise ValueError("terms/weights length mismatch")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if sum(self.weights, ZERO) > ONE:
            raise ValueError("weights must sum to at most 1")
        if not all(t.increasing for t in self.terms):
            raise ValueError("weighted sum terms must be non-decreasing")
        self.strictly_monotone = any(t.strictly_monotone for t in self.terms)

    def column(self, den: int, nums) -> tuple[int, list[int]]:
        """The column by runs, as integer numerators over one denominator L.

        Affine terms fold into one slope and offset.  A depth-d staircase is
        #{i : hi_i <= y} / 2^d, plus c((y - lo)/(hi - lo)) / 2^d strictly
        inside a leaf [lo, hi]: each leaf changes a running constant by w/2^d
        at the first point at or right of its right end, and each point inside
        it adds its climb.  Between two changes a point is one integer
        multiply-add.  Other terms add their own columns.
        """
        slope = offset = ZERO
        changes: dict[int, Fraction] = {}  # index -> change of the run constant
        climbs: dict[int, Fraction] = {}  # index -> climb above the run constant
        others = []  # (weight / column denominator, column numerators)
        for t, w in zip(self.terms, self.weights):
            if isinstance(t, Affine):
                slope += w * t.slope
                offset += w * t.offset
            elif isinstance(t, IntervalStaircase):
                step, bounds, end = w / t._scale, t._bounds, 0
                for lo, hi in zip(bounds[::2], bounds[1::2]):
                    start = bisect_right(nums, _floor_times(lo, den), end)
                    end = bisect_left(nums, _ceil_times(hi, den), start)
                    for k in range(start, end):
                        climb = step * eval_cantor((Fraction(nums[k], den) - lo) / (hi - lo))
                        climbs[k] = climbs.get(k, ZERO) + climb
                    if end < len(nums):
                        changes[end] = changes.get(end, ZERO) + step
            else:
                d, col = t.column(den, nums)
                others.append((w / d, col))
        slope /= den
        L = math.lcm(*(v.denominator for v in (slope, offset, *changes.values(),
                                               *climbs.values(), *(m for m, _ in others))))
        s, const = _num_over(slope, L), _num_over(offset, L)
        cuts = sorted({0, *changes, len(nums)})
        out = []
        for start, stop in zip(cuts, cuts[1:]):
            if start in changes:
                const += _num_over(changes[start], L)
            out += [s * v + const for v in nums[start:stop]]
        for m, col in others:
            m = _num_over(m, L)
            out = [o + m * v for o, v in zip(out, col)]
        for k, v in climbs.items():
            out[k] += _num_over(v, L)
        return L, out

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "weights": [format_rational(w) for w in self.weights],
            "terms": [t.to_json() for t in self.terms],
        }


class Composition(MonotoneFn):
    kind = "composition"

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner
        self.increasing = outer.increasing == inner.increasing
        self.strictly_monotone = outer.strictly_monotone and inner.strictly_monotone

    def column(self, den: int, nums) -> tuple[int, list[int]]:
        """outer at the inner's column, reversed first and back after when
        the inner function is decreasing."""
        den, nums = self.inner.column(den, nums)
        if self.inner.increasing:
            return self.outer.column(den, nums)
        den, nums = self.outer.column(den, nums[::-1])
        return den, nums[::-1]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "outer": self.outer.to_json(),
            "inner": self.inner.to_json(),
        }

    def __repr__(self) -> str:
        return f"Composition({self.outer!r}, {self.inner!r})"


# -- grids supplying staircase cells ------------------------------------------


class RieszNagyImageGrid:
    """Cells [R_a(k*2^-g), R_a((k+1)*2^-g)]: the R_a image of the dyadic grid.

    Staircases built on this grid keep every endpoint inside the dyadic
    image of R_a, so preimages under R_a stay exactly computable.  By
    self-similarity a cell [lo, hi] splits at lo + a*(hi - lo).  R_1/2 is
    the identity, so the default a = 1/2 is the dyadic grid
    [k*2^-g, (k+1)*2^-g], the default staircase cell source.
    """

    def __init__(self, a=_HALF):
        self.a = Fraction(a)
        if not ZERO < self.a < ONE:
            raise ValueError("need 0 < a < 1")

    def point(self, k: int, g: int) -> Fraction:
        return eval_riesz_nagy(self.a, Fraction(k, 1 << g))

    def to_json(self) -> dict:
        if self.a == _HALF:
            return {"kind": "dyadic"}
        return {"kind": "riesz_nagy_image", "a": format_rational(self.a)}


def grid_from_json(obj: dict):
    kind = _spec_key(obj, "kind")
    if kind == "dyadic":
        return RieszNagyImageGrid()
    if kind == "riesz_nagy_image":
        return RieszNagyImageGrid(_spec_key(obj, "a", Fraction))
    raise ValueError(f"unknown grid kind {kind!r}")


# -- interval staircases -------------------------------------------------------


@dataclass(frozen=True)
class StairCell:
    """A tree node: grid address (k, g) plus its realized interval."""

    k: int
    g: int
    iv: Interval


_RETRY_GENERATIONS = 64


def _cut_over(c, den: int):
    """The cut c = (v, side) as an integer cut over den.

    It orders against every (t, _AT) as c orders against (t/den, _AT).  An
    end off the 1/den lattice lies strictly between two lattice points, so
    it becomes the cut just above the lower one.
    """
    v, side = c
    m, r = divmod(den, v.denominator)
    if r:
        return v.numerator * den // v.denominator, _ABOVE
    return v.numerator * m, side


class _Excluded:
    """The set a staircase search avoids, as one sorted index of integer cuts.

    `cuts` lists the components left to right as (start, end) integer cut
    pairs over `den` = L0 * q^gen, for q the grid's split denominator and L0
    the lcm of the given union's denominators.  Every end is exact, and
    every grid point of generation <= gen lies on the 1/den lattice.  The
    components are disjoint but may touch.  A finer generation rescales the
    whole index by a power of q, so no lcm or gcd runs while the search
    descends.
    """

    def __init__(self, u: IntervalUnion, q: int):
        self.q, self.gen = q, 0
        self.den = den = math.lcm(1, *(v.denominator for c in u for v in (c.lo, c.hi)))
        self.cuts = [(_cut_over(_start_cut(c), den), _cut_over(_end_cut(c), den)) for c in u]

    def at(self, g: int) -> int:
        """den, once the index is rescaled to generation g if that is finer."""
        if g > self.gen:
            f = self.q ** (g - self.gen)
            self.cuts = [((s * f, s_side), (e * f, e_side))
                         for (s, s_side), (e, e_side) in self.cuts]
            self.den *= f
            self.gen = g
        return self.den

    def meeting(self, iv: Interval) -> list:
        """The cut pairs of the components that meet the closed interval iv."""
        cuts = self.cuts
        return cuts[bisect_left(cuts, _cut_over((iv.lo, _AT), self.den), key=lambda c: c[1]):
                    bisect_right(cuts, _cut_over((iv.hi, _AT), self.den), key=lambda c: c[0])]

    def add(self, cells) -> None:
        """Insert closed grid cells of generation <= gen that meet no component."""
        for c in cells:
            insort(self.cuts, ((_num_over(c.iv.lo, self.den), _AT),
                               (_num_over(c.iv.hi, self.den), _AT)))


def _admissible_cells(p: int, q: int, node, g: int, cuts):
    """Yield, left to right, the generation-g cells (k, lo, hi) under
    node = (k, g', lo, hi) that meet no component of cuts.

    Every end is an integer numerator over one denominator D, a multiple of
    q^(g - g'), so a cell [lo, hi] splits exactly at lo + p*(hi - lo)//q for
    the split ratio p/q.  cuts lists the components as (start, end) integer
    cut pairs over D: the first starts left of every cell, the rest are
    sorted by start, and the last ends right of every cell.  Components may
    overlap or touch.

    A left-first descent: nodes arrive in non-decreasing lo, so one pointer
    walks the components, stopping at the first that does not end left of
    the node.  Every component before it ends left of the node and every
    later one starts no earlier, so a cell left of it meets none of them (no
    cell lies left of the first).  A node inside the pointer's component is
    skipped with its subtree; a node inside a later, overlapping one is only
    pruned less, as none of its cells passes the test.
    """
    j = 0
    stack = [node]
    while stack:
        k, gk, lo, hi = stack.pop()
        at_lo = (lo, _AT)
        while cuts[j][1] < at_lo:
            j += 1  # the component ends left of this node and of all later ones
        comp_start, comp_end = cuts[j]
        if comp_start <= at_lo and (hi, _AT) <= comp_end:
            continue
        if gk < g:
            mid = lo + p * (hi - lo) // q
            stack += ((2 * k + 1, gk + 1, mid, hi), (2 * k, gk + 1, lo, mid))
        elif (hi, _AT) < comp_start:
            yield k, lo, hi


def _find_children(grid, parent: StairCell, width_bound: Fraction, excluded: _Excluded):
    """Pick the two leftmost separated admissible cells under one parent.

    The tree's root (k = -1) need not be a grid cell, so its cells come from
    under the unit cell.  Admissible: inside the parent and disjoint from
    excluded, at the first generation where every cell under the start fits
    the width target.  The sibling must start at least two grid steps after
    the first cell so the two are separated by a gap.  The descent finds the
    same cells, with the same exact ends, as a left-to-right scan of the
    generation.  If a generation has no admissible pair the search retries
    one generation finer, up to a cap.

    The search runs on integers over the index's denominator: the width
    loop compares numerators, and the cut list is the outside of the
    parent, as one piece ending just left of it and one starting just right
    of it, around the index's cut pairs that meet the parent, in start order
    and not merged with the outside pieces.  It is rebuilt only when a finer
    generation rescales the index.  Only the two returned cells become
    Fractions.
    """
    bounds = parent.iv
    if parent.k < 0:
        start = StairCell(0, 0, Interval(ZERO, ONE))
        w, target, least = ONE, min(width_bound, bounds.diam / 8), 0
    else:
        start, w, target, least = parent, bounds.diam, width_bound, 2
    p, q = grid.a.numerator, grid.a.denominator
    shrink = max(p, q - p)  # max child/parent width ratio, over q
    # w * (shrink/q)^extra > target, cross-multiplied
    over, under = w.numerator * target.denominator, target.numerator * w.denominator
    extra = 0
    while over > under:
        over *= shrink
        under *= q
        extra += 1
    g0 = start.g + max(extra, least)
    for g in range(g0, g0 + _RETRY_GENERATIONS + 1):
        if g == g0 or g > excluded.gen:
            den = excluded.at(g)
            lo, hi = _cut_over((bounds.lo, _BELOW), den), _cut_over((bounds.hi, _ABOVE), den)
            cuts = [((lo[0] - den, _AT), lo), *excluded.meeting(bounds), (hi, (hi[0] + den, _AT))]
            node = (start.k, start.g, _num_over(start.iv.lo, den), _num_over(start.iv.hi, den))
        cells = _admissible_cells(p, q, node, g, cuts)
        first = next(cells, None)
        for cell in cells:
            if cell[0] >= first[0] + 2:  # leave at least a one-cell gap
                return [StairCell(k, g, Interval(Fraction(lo, den), Fraction(hi, den)))
                        for k, lo, hi in (first, cell)]
        # no pair at this generation; try finer cells
    raise ConstructionError(
        f"no admissible pair of subintervals in [{bounds.lo},{bounds.hi}] "
        f"under width {width_bound}"
    )


class IntervalStaircase(MonotoneFn):
    """c composed with the linear map of each leaf cell onto its Cantor cover cell.

    Continuous and non-decreasing on [0,1]: 0 left of the tree's root
    interval, 1 right of it, and inside the root it climbs from 0 to 1 while
    staying constant on every gap between leaf cells.  The leaf union N
    therefore maps onto [0,1]: its image keeps measure 1 at every finite depth.

    Leaf i (left to right) maps linearly onto the i-th level-d Cantor cover
    interval, where c climbs from i/2^d to (i+1)/2^d self-similarly, so the
    value inside leaf i is (i + c(u))/2^d for u the relative position in the
    leaf, and the gap after leaf i holds the constant (i+1)/2^d.

    The staircase is its tree of nested grid cells under the root: level n
    holds 2^n cells, left to right, and the leaves are level d.  Children lie
    inside their parent with a gap between them, cells at level n have width
    at most 1/((n+1)*2^n), and every cell at level >= 1 avoids the excluded
    set given to `build_interval_staircase` (the root itself may meet it).
    """

    kind = "interval_staircase"

    def __init__(self, root: Interval, levels, grid):
        self.root = root
        self.levels = [list(lv) for lv in levels]
        self.grid = grid
        leaves = self.leaves()
        if len(leaves) != 1 << self.depth:
            raise ValueError(f"a depth-{self.depth} staircase needs "
                             f"{1 << self.depth} leaf cells, got {len(leaves)}")
        bounds = [root.lo]
        for cell in leaves:
            bounds.extend((cell.iv.lo, cell.iv.hi))
        bounds.append(root.hi)
        # root.lo <= lo_0 < hi_0 < lo_1 < ... < hi_last <= root.hi
        for i, (left, right) in enumerate(zip(bounds, bounds[1:])):
            if left > right or (left == right and 0 < i < len(bounds) - 2):
                raise ValueError("staircase leaf cells must be nonempty, "
                                 "separated, and inside the root, left to right")
        self._bounds = bounds[1:-1]
        self._scale = len(leaves)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def leaves(self) -> list[StairCell]:
        return self.levels[-1]

    __call__ = MonotoneFn.__call__  # a name of its own: perfbench traces it per class

    def column(self, den: int, nums) -> tuple[int, list[int]]:
        """The column of the one-term weighted sum, where the climb lives."""
        return WeightedSum((self,), (ONE,)).column(den, nums)

    def to_json(self) -> dict:
        return {"kind": self.kind, "tree": {
            "root": [format_rational(self.root.lo), format_rational(self.root.hi)],
            "grid": self.grid.to_json(),
            "levels": [
                [[format_rational(c.iv.lo), format_rational(c.iv.hi)] for c in level]
                for level in self.levels
            ],
            "addresses": [[[c.k, c.g] for c in level] for level in self.levels],
        }}

    @classmethod
    def from_json(cls, obj: dict) -> IntervalStaircase:
        tree = _spec_key(obj, "tree", dict)
        root = Interval(*_spec_key(tree, "root", (Fraction, Fraction)))
        ends = _spec_key(tree, "levels", [[(Fraction, Fraction)]])
        addresses = _spec_key(tree, "addresses", [[(int, int)]])
        if list(map(len, addresses)) != list(map(len, ends)):
            raise ValueError("key 'addresses' does not fit key 'levels'")
        levels = [
            [StairCell(k, g, Interval(lo, hi)) for (lo, hi), (k, g) in zip(eps, adrs)]
            for eps, adrs in zip(ends, addresses)
        ]
        return cls(root, levels, grid_from_json(_spec_key(tree, "grid", dict)))


def build_interval_staircase(I: Interval, excluded: IntervalUnion, depth: int,
                             grid=None, leaf_cap=None):
    """Return (N, f_I): the leaf-cell union and the depth-`depth` staircase under I.

    N is the union of the 2^depth leaf cells (measure <= 1/(depth+1)), formed
    here from f_I's leaves, every cell at level >= 1 avoids `excluded`, and
    f_I is continuous non-decreasing with f_I = 0 left of I, 1 right of I,
    and image of N equal to [0,1].

    Raises ConstructionError up front when the part of excluded inside I has
    all of I's length: the components that meet I, in order, leave no gap of
    positive length between I's ends.
    """
    if grid is None:
        grid = RieszNagyImageGrid()
    f = _staircase(I, _Excluded(excluded, grid.a.denominator), depth, grid, leaf_cap)
    # f has checked that the closed leaf cells are separated, left to right
    return IntervalUnion._canonical(tuple(c.iv for c in f.leaves())), f


def _staircase(I: Interval, excluded: _Excluded, depth: int, grid, leaf_cap):
    """`build_interval_staircase`'s f_I, built against an index; callers
    read the leaf cells from it.  The gaps between I's ends and the
    components that meet I compare as integer cuts, exactly: each gap has a
    component end on the lattice, and with no component meeting it, I has
    room."""
    if not (I.lo_closed and I.hi_closed and ZERO <= I.lo < I.hi <= ONE):
        raise ValueError("I must be a nondegenerate closed interval in [0, 1]")
    meeting = excluded.meeting(I)
    left = _cut_over((I.lo, _AT), excluded.den)
    for (start, _), (end, _) in meeting:
        if (start, _AT) > left:
            break  # a gap of positive length left of this component
        left = (end, _AT)
    else:
        if meeting and _cut_over((I.hi, _AT), excluded.den) <= left:
            raise ConstructionError("excluded set leaves no room inside I")
    root = StairCell(-1, 0, I)
    levels: list[list[StairCell]] = [[root]]
    for n in range(1, depth + 1):
        bound = Fraction(1, (n + 1) * (1 << n))
        if n == depth and leaf_cap is not None:
            bound = min(bound, Fraction(leaf_cap))
        nxt: list[StairCell] = []
        for cell in levels[-1]:
            nxt.extend(_find_children(grid, cell, bound, excluded))
        levels.append(nxt)
    return IntervalStaircase(I, levels, grid)


# -- truncated full-measure mappers -------------------------------------------


@cache
def _rational_intervals(M: int) -> tuple[Interval, ...]:
    """The first M intervals [p,q] in [0,1] ordered by largest denominator, then
    by (lo, hi), listed once per M as a tuple of immutable intervals.

    The first few: [0,1], [0,1/2], [1/2,1], [0,1/3], [0,2/3], [1/3,1/2], ...
    """
    out, b = [], 0
    while len(out) < M:
        b += 1
        points = sorted({Fraction(p, q) for q in range(1, b + 1) for p in range(q + 1)})
        out += [Interval(lo, hi) for i, lo in enumerate(points) for hi in points[i + 1:]
                if max(lo.denominator, hi.denominator) == b]
    return tuple(out[:M])


def image_measure(f: MonotoneFn, u: IntervalUnion) -> Fraction:
    """Measure of f(u) for monotone f: summed endpoint differences.

    The endpoints lo_0 <= hi_0 <= lo_1 <= ... form a non-decreasing list, so
    f reads them as one column over their common denominator.
    """
    den, nums = _over_lcm([x for comp in u.components for x in (comp.lo, comp.hi)])
    den, vals = f.column(den, nums)
    return Fraction(sum(abs(hi - lo) for lo, hi in zip(vals[::2], vals[1::2])), den)


def build_full_measure_mapper(excluded: IntervalUnion, M: int,
                              staircase_depth: int, grid=None):
    """Return (N_trunc, f): the full-measure construction cut at M staircase terms.

    Walks the fixed interval enumeration I_0, I_1, ...; inside each I_m a
    depth-`staircase_depth` staircase g_m is built avoiding `excluded` and
    every earlier N, with leaf cells capped small enough that all N's together
    stay well below the room available in later intervals.  N_trunc is the
    union of the staircases' leaf cells, and f = sum 2^-(m+1) g_m + 2^-M id
    is strictly increasing with f(0)=0, f(1)=1 and the exact image bound
    measure(f(N_trunc)) >= 1 - 2^-M = 1 - f.weights[-1].  The mapper's level
    M is len(f.terms) - 1.

    `excluded` may also be the `_Excluded` index of the grid's earlier
    builds, which this build then grows by its own leaf cells: that is how
    `build_extremal_curve` hands one mapper's N_trunc on to the next.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    # a depth-0 tree's only leaf is its whole root, leaving later terms no room
    if type(staircase_depth) is not int or staircase_depth < 1:
        raise ValueError(f"staircase depth is not an integer >= 1: {staircase_depth!r}")
    if grid is None:
        grid = RieszNagyImageGrid()
    index = (excluded if isinstance(excluded, _Excluded)
             else _Excluded(excluded, grid.a.denominator))
    stairs = []
    for m, I_m in enumerate(_rational_intervals(M)):
        cap = Fraction(1, 1 << (m + 6 + staircase_depth))
        try:
            g_m = _staircase(I_m, index, staircase_depth, grid, cap)
        except ConstructionError as e:
            raise ConstructionError(f"mapper term {m} failed inside {I_m}: {e}") from e
        stairs.append(g_m)
        index.add(g_m.leaves())
    # the leaf cells of all terms are closed and pairwise separated
    den = index.den
    n_trunc = IntervalUnion._canonical(tuple(sorted(
        (c.iv for g_m in stairs for c in g_m.leaves()), key=lambda iv: _num_over(iv.lo, den))))
    weights = [Fraction(1, 1 << (m + 1)) for m in range(M)]
    tail = Fraction(1, 1 << M)
    f = WeightedSum(stairs + [Affine(1, 0)], weights + [tail])
    bound = ONE - tail
    got = image_measure(f, n_trunc)
    if got < bound:
        raise AssertionError(f"mapper image measure {got} below bound {bound}")
    return n_trunc, f


# -- serialization -------------------------------------------------------------


def fn_from_json(obj: dict, leaves: dict | None = None) -> MonotoneFn:
    """The function of a `to_json` spec.  Equal R_a leaves share one dense
    level across the calls given one `leaves` dict, a -> level."""
    if not isinstance(obj, dict):
        raise ValueError("function spec is not a JSON object")
    leaves = {} if leaves is None else leaves
    kind = _spec_key(obj, "kind")
    if kind == "cantor":
        return Cantor()
    if kind == "riesz_nagy":
        f = RieszNagy(_spec_key(obj, "a", Fraction))
        f._level = leaves.setdefault(f.a, f._level)
        return f
    if kind == "affine":
        return Affine(_spec_key(obj, "slope", Fraction), _spec_key(obj, "offset", Fraction))
    if kind == "piecewise_linear":
        return PiecewiseLinear(_spec_key(obj, "knots", [(Fraction, Fraction)]))
    if kind == "interval_staircase":
        return IntervalStaircase.from_json(obj)
    if kind == "weighted_sum":
        return WeightedSum((fn_from_json(t, leaves) for t in _spec_key(obj, "terms", list)),
                           _spec_key(obj, "weights", [Fraction]))
    if kind == "composition":
        return Composition(fn_from_json(_spec_key(obj, "outer"), leaves),
                           fn_from_json(_spec_key(obj, "inner"), leaves))
    raise ValueError(f"unknown function kind {kind!r}")
