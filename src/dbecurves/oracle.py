"""Independent reference implementations for cross-checking the estimators.

Nothing here shares code with the modules it checks: Cantor values come from
an affine walk closing its cycle on a dict of `Fraction` states, not on the
integer remainder anchor of `singular`'s digit walk; Riesz-Nagy values from
the closed digit-product formula instead of that walk; R_a^{-1} by running
the halving recursion backwards; and square roots from decimal arithmetic
instead of integer-sqrt enclosures.  All outputs are exact Fractions (decimal
results are converted exactly), with accuracy driven by the decimal context precision.

These routines favor clarity over speed; they exist to generate and defend
expected values, not to be fast.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import IntervalUnion, ONE, ZERO
from .singular import NotEvaluableError

_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)


def cantor_value(x) -> Fraction:
    """Cantor function via the affine walk c(x) = p + q * c(x'), exact.

    Tracks the affine relation between c at the starting point and c at the
    current point while mapping x into the outer thirds; dyadic (and any
    rational) inputs revisit a state eventually, which closes the relation
    and solves for the value.  Flat middle-third cells return immediately.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("cantor_value is defined on [0,1]")
    p, q = ZERO, ONE
    seen: dict[Fraction, tuple[Fraction, Fraction]] = {}
    while True:
        if _THIRD <= x <= _TWO_THIRDS:
            return p + q / 2
        if x == 0:
            return p
        if x == 1:
            return p + q
        if x in seen:
            p0, q0 = seen[x]
            cx = (p0 - p) / (q - q0)
            return p0 + q0 * cx
        seen[x] = (p, q)
        if x < _THIRD:
            x = 3 * x
        else:
            p += q / 2
            x = 3 * x - 2
        q = q / 2


def riesz_value(a, x) -> Fraction:
    """Riesz-Nagy value at a dyadic point via the digit-product formula.

    With binary digits b_1..b_m of x, each one-digit at position j
    contributes a^(z+1) * (1-a)^o where z and o count the zeros and ones
    before it.  No recursion, no halving walk.
    """
    a = Fraction(a)
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("riesz_value is defined on [0,1]")
    if x == 1:
        return ONE
    den = x.denominator
    if den & (den - 1):
        raise ValueError("digit-product oracle needs a dyadic input")
    num = x.numerator
    m = den.bit_length() - 1
    total = ZERO
    zeros = ones = 0
    for j in range(m - 1, -1, -1):
        bit = (num >> j) & 1
        if bit:
            total += a ** (zeros + 1) * (ONE - a) ** ones
            ones += 1
        else:
            zeros += 1
    return total


def riesz_nagy_inverse(a, y, max_steps: int = 4096) -> Fraction:
    """Exact R_a^{-1}(y) for y in the R_a image of the dyadic rationals.

    Runs the recursion backwards, emitting one binary digit of x per step;
    y off the dyadic image never reaches 0 and raises NotEvaluableError
    after max_steps.
    """
    a = Fraction(a)
    y = Fraction(y)
    if not (ZERO < a < ONE):
        raise ValueError("need 0 < a < 1")
    if not (ZERO <= y <= ONE):
        raise NotEvaluableError("riesz_nagy_inverse needs y in [0,1]")
    if y == ZERO or y == ONE:
        return y
    x_num = 0
    steps = 0
    while y != ZERO:
        if steps >= max_steps:
            raise NotEvaluableError(f"{y} is not an R_a value of a dyadic rational")
        x_num <<= 1
        if y < a:
            y = y / a
        else:
            y = (y - a) / (ONE - a)
            x_num |= 1
        steps += 1
    return Fraction(x_num, 1 << steps)


@dataclass(frozen=True)
class RasterFn:
    """A function tabulated exactly at x = k * base^-m, k = 0..base^m.

    Base 2 suits dyadic-grid functions; the Cantor diagnostic uses base 3 so
    the knots land on the flat-gap endpoints.
    """

    m: int
    values: tuple[Fraction, ...]
    base: int = 2

    def __post_init__(self):
        if len(self.values) != self.base ** self.m + 1:
            raise ValueError("raster needs base^m + 1 values")

    @property
    def scale(self) -> int:
        return self.base ** self.m

    def x(self, k: int) -> Fraction:
        return Fraction(k, self.scale)


def cantor_raster(m: int) -> RasterFn:
    """Ternary raster of the Cantor function at resolution 3^-m."""
    scale = 3 ** m
    return RasterFn(m, tuple(cantor_value(Fraction(k, scale))
                             for k in range(scale + 1)), base=3)


def riesz_raster(a, m: int) -> RasterFn:
    scale = 1 << m
    return RasterFn(m, tuple(riesz_value(a, Fraction(k, scale))
                             for k in range(scale + 1)))


def identity_raster(m: int, base: int = 2) -> RasterFn:
    scale = base ** m
    return RasterFn(m, tuple(Fraction(k, scale) for k in range(scale + 1)),
                    base=base)


def raster_from_fn(fn, m: int, base: int = 2) -> RasterFn:
    scale = base ** m
    return RasterFn(m, tuple(Fraction(fn(Fraction(k, scale)))
                             for k in range(scale + 1)), base=base)


def raster_image_measure(r: RasterFn, u: IntervalUnion):
    """(lower, upper) bracket of the image measure from grid values only.

    Inner grid points give the lower bound; rounding each component outward
    to the grid gives the upper.  Both sides coincide when the component
    endpoints lie on the grid.  The upper bound assumes the tabulated
    function is monotone between grid points.
    """
    scale = r.scale
    lower = upper = ZERO
    for comp in u.components:
        lo_in = -((-comp.lo.numerator * scale) // comp.lo.denominator)
        hi_in = comp.hi.numerator * scale // comp.hi.denominator
        if lo_in <= hi_in:
            inner = r.values[lo_in:hi_in + 1]
            lower += max(inner) - min(inner)
        lo_out = comp.lo.numerator * scale // comp.lo.denominator
        hi_out = min(-((-comp.hi.numerator * scale) // comp.hi.denominator), scale)
        outer = r.values[lo_out:hi_out + 1]
        upper += max(outer) - min(outer)
    return lower, upper


def _dec_sqrt(x: Fraction, ctx: decimal.Context) -> decimal.Decimal:
    return ctx.sqrt(ctx.divide(decimal.Decimal(x.numerator),
                               decimal.Decimal(x.denominator)))


def naive_polyline(rasters, m: int, prec: int = 50) -> Fraction:
    """Direct 2^m-chord length sum for the curve (x, r_1(x), ..., r_k(x)).

    The x coordinate is implicit; each raster supplies one further
    coordinate (a raster finer than m is strided down).  All rasters must
    share one base.  Chord squares are exact; square roots use decimal
    arithmetic at `prec` digits, so the result is accurate to roughly
    base^m * 10^-prec.
    """
    rasters = list(rasters)
    if not rasters:
        raise ValueError("need at least one raster")
    base = rasters[0].base
    for r in rasters:
        if r.m < m:
            raise ValueError("raster is coarser than the requested depth")
        if r.base != base:
            raise ValueError("rasters must share a common grid base")
    ctx = decimal.Context(prec=prec)
    cells = base ** m
    dx2 = Fraction(1, cells * cells)
    total = decimal.Decimal(0)
    for k in range(cells):
        s = dx2
        for r in rasters:
            stride = base ** (r.m - m)
            dv = r.values[(k + 1) * stride] - r.values[k * stride]
            s += dv * dv
        total = ctx.add(total, _dec_sqrt(s, ctx))
    return Fraction(total)


def collapsed_riesz_length(a, d: int, prec: int = 50) -> Fraction:
    """O(d) depth-d polyline length of (x, R_a(x)) via the binomial collapse.

    Decimal-based counterpart of the estimator's integer-sqrt route; cell
    increments depend only on digit counts, so the 2^d chords reduce to
    d + 1 binomially weighted terms.
    """
    a = Fraction(a)
    ctx = decimal.Context(prec=prec)
    dx2 = Fraction(1, 1 << (2 * d))
    total = decimal.Decimal(0)
    for k in range(d + 1):
        w = a ** (d - k) * (ONE - a) ** k
        chord = _dec_sqrt(dx2 + w * w, ctx)
        total = ctx.add(total, ctx.multiply(decimal.Decimal(math.comb(d, k)), chord))
    return Fraction(total)


def cantor_closed_form_length(d: int, prec: int = 50) -> Fraction:
    """Closed form 1 - (2/3)^d + sqrt(1 + (2/3)^(2d)) for the Cantor graph.

    At depth d the flat gap cells contribute their total width 1 - (2/3)^d
    and the 2^d bridge chords are congruent, which collapses the sum.
    """
    ctx = decimal.Context(prec=prec)
    flat = ONE - _TWO_THIRDS ** d
    bridge = _dec_sqrt(ONE + _TWO_THIRDS ** (2 * d), ctx)
    return flat + Fraction(bridge)


def brute_cover_sum(data, delta) -> Fraction:
    """Greedy left-to-right delta-fine cover sum (upper bound, not infimum).

    Interval unions are chopped component-by-component into blocks of
    diameter at most delta; finite point sets are clustered greedily, with
    singleton clusters contributing zero diameter.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if isinstance(data, IntervalUnion):
        total = ZERO
        for comp in data.components:
            lo = comp.lo
            while lo < comp.hi:
                hi = min(lo + delta, comp.hi)
                total += hi - lo
                lo = hi
        return total
    pts = sorted(Fraction(p) for p in data)
    if not pts:
        return ZERO
    total = ZERO
    start = last = pts[0]
    for p in pts[1:]:
        if p - start <= delta:
            last = p
            continue
        total += last - start
        start = last = p
    total += last - start
    return total
