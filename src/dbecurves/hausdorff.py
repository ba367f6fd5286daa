"""Two-sided certification of the 1-dimensional Hausdorff measure of curves.

Upper bounds are exact rationals: the length of [0,1] plus each component's
total variation, which for a monotone component is |f(1) - f(0)|.  Lower
bounds come from inscribed polylines whose chord lengths are enclosed by
integer-sqrt directed rounding at a chosen precision, so the reported value
carries a rigorous error radius.  Box counts support dimension estimates, and the
remaining functions check the classical inequalities the bounds lean on
(Lipschitz images, two-function cover sums, derivative bounds) in exact
arithmetic.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .curves import ExtremalCurve, _columns
from .exact import Interval, IntervalUnion, ONE, ZERO, decimal_str, format_rational
from .singular import (
    Affine,
    MonotoneFn,
    NotEvaluableError,
    PiecewiseLinear,
    RieszNagy,
    _num_over,
    image_measure,
)

SCHEMA_VERSION = 1


class LipschitzWitnessError(ValueError):
    """A sampled pair contradicts the declared Lipschitz constant."""

    def __init__(self, x, y, fx, fy, c):
        self.witness = (x, y, fx, fy)
        super().__init__(
            f"|f({x})-f({y})| = {abs(fx - fy)} exceeds {c} * {abs(x - y)}"
        )


def sqrt_enclosure(x, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic lo <= sqrt(x) <= hi with hi - lo <= 2^-bits (0 when exact)."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of a negative value")
    scaled = (x.numerator << (2 * bits)) // x.denominator
    r = math.isqrt(scaled)
    lo = Fraction(r, 1 << bits)
    if lo * lo == x:
        return lo, lo
    return lo, lo + Fraction(1, 1 << bits)


def _sqrt_sum(terms, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic (lo, hi) around the sum of count * sqrt(num / den).

    `terms` yields integer triples (count, num, den) with num >= 0, den > 0.
    Each root is floored to r / 2^bits with r = isqrt(num * 4^bits // den),
    exact iff r^2 * den == num * 4^bits, and an inexact root adds 2^-bits to
    hi.  The floor does not depend on how num / den is reduced, so every term
    contributes exactly what `sqrt_enclosure(num / den, bits)` gives.
    """
    r_sum = inexact = 0
    for count, num, den in terms:
        num <<= 2 * bits
        r = math.isqrt(num // den)
        r_sum += count * r
        if r * r * den != num:
            inexact += count
    lo = Fraction(r_sum, 1 << bits)
    return lo, lo + Fraction(inexact, 1 << bits)


def upper_bound_h1(curve) -> Fraction:
    """Exact 1 + sum over components f of |f(1) - f(0)|.

    H^1 of a curve is at most the sum of its coordinates' total variations.
    The first coordinate x varies by 1, the constant alpha by 0, and each
    component is monotone on [0,1], so its total variation is |f(1) - f(0)|.
    For components mapping onto [0,1] the bound is exactly n-1.
    """
    ends = (f.column(1, [0, 1]) for f in curve.components)
    return ONE + sum((Fraction(abs(v1 - v0), den) for den, (v0, v1) in ends), ZERO)


def _collapsed_riesz_length(a: Fraction, depth: int, bits: int):
    """O(depth) enclosure of the depth-d polyline length of (x, R_a(x), alpha).

    Cells with the same digit counts share their increment, so the 2^d chords
    collapse into d+1 binomial-weighted terms.  With a = p/q and
    P_k = p^(d-k) (q-p)^k the k-th squared chord is
    (q^2d + 4^d P_k^2) / (4^d q^2d), and each term is the floor and
    exactness of the root of its value times 4^bits, as in `_sqrt_sum`.
    That value is (4^up q^2d + 4^(d+up) P_k^2) / (4^down q^2d) with
    up = max(bits - d, 0) and down = max(d - bits, 0): the 4^d cancels, so
    one integer isqrt of the quotient gives the floor, and the root is exact
    iff the remainder is 0 and the quotient a square.  P_k^2 and C(d, k) are
    walked from k = 0 by exact divisions, so no term squares a big P_k.
    """
    p, q = a.numerator, a.denominator
    up, down = max(bits - depth, 0), max(depth - bits, 0)
    q2d = q ** (2 * depth)
    lift, den, shift = q2d << (2 * up), q2d << (2 * down), 2 * (depth + up)
    p2, s2 = p * p, (q - p) ** 2
    pk2, count = p2 ** depth, 1
    r_sum = inexact = 0
    for k in range(depth + 1):
        quo, rem = divmod(lift + (pk2 << shift), den)
        r = math.isqrt(quo)
        r_sum += count * r
        if rem or r * r != quo:
            inexact += count
        pk2 = pk2 // p2 * s2
        count = count * (depth - k) // (k + 1)
    lo = Fraction(r_sum, 1 << bits)
    return lo, lo + Fraction(inexact, 1 << bits)


def _is_collapsible(curve) -> bool:
    return len(curve.components) == 1 and isinstance(curve.components[0], RieszNagy)


def polyline_length(curve, depth: int, precision: int = 64):
    """(value, error_radius): certified inscribed-polyline length at a depth.

    The true chord sum lies within error_radius of value; chord square roots
    are enclosed dyadically at `precision` fractional bits and everything
    else is exact, so the bound is rigorous.  Single-R_a curves use the
    collapsed binomial sum, extremal curves with mappers the W-cell classes,
    and everything else walks the 2^depth sample cells.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    # Per-chord enclosures get depth extra bits so that the sum over the
    # 2^depth chords still lands within 2^-precision of the true length.
    bits = precision + depth
    if _is_collapsible(curve):
        lo, hi = _collapsed_riesz_length(curve.components[0].a, depth, bits)
    elif isinstance(curve, ExtremalCurve):
        lo, hi = _w_cell_chord_sum(curve, depth, bits)
    else:
        lo, hi = _chord_sum(curve, depth, bits)
    return (lo + hi) / 2, (hi - lo) / 2


def _chord_sum(curve, depth: int, bits: int) -> tuple[Fraction, Fraction]:
    """`_sqrt_sum` over the 2^depth chords of the depth-d sample, one root
    per distinct chord square.

    Every component column is scaled to L, the lcm of 2^depth and the column
    denominators, so the squared length of chord k is S_k / L^2 with S_k the
    sum of its squared integer coordinate differences.  The x column steps
    by L / 2^depth on every chord, and the constant alpha adds nothing.
    Chords with the same tuple of column increments are one class, squared
    once, and classes with equal S merge, so `_sqrt_sum` takes each distinct
    S once with its count.  Equal S have equal floors and equal exactness,
    so (lo, hi) is the per-chord sum exactly.
    """
    columns = _columns(curve, depth)
    L = math.lcm(1 << depth, *(den for den, _ in columns))
    scales = [L // den for den, _ in columns]
    diffs = [map(int.__sub__, islice(nums, 1, None), nums) for _, nums in columns]
    # with no component column every chord is the x step alone
    steps = Counter(zip(*diffs)) if diffs else {(): 1 << depth}
    x_square = (L >> depth) ** 2
    squares = Counter()
    for step, count in steps.items():
        squares[x_square + sum((m * d) ** 2 for m, d in zip(scales, step))] += count
    L2 = L * L
    return _sqrt_sum(((count, s, L2) for s, count in squares.items()), bits)


def _w_cell_chord_sum(curve, depth: int, bits: int) -> tuple[Fraction, Fraction]:
    """`_chord_sum` of an extremal curve with mappers, read off its W cells.

    Component 0 is h = R_a for a = p/q, and mapper j is 2^-M h plus staircase
    terms that are constant in x off their W cells (`ExtremalCurve._w_cells`).
    Chord c of popcount o moves x by 2^-d, h by P_o/q^d with
    P_o = p^(d-o) (q-p)^o, and mapper j by 2^-M P_o/q^d plus the climbs of
    its W cells there.  A W cell of generation g > d lies inside chord
    k >> (g - d) and climbs by its whole step in it.  The chords inside a W
    cell of generation g <= d are read from the component columns at their
    ends.  Every other chord of popcount o has the same square, so they form
    one class of C(d, o) minus the chords above with that popcount.  The W
    cells are pairwise separated and dyadic cells nest, so no chord holding
    a finer W cell lies inside a coarser one.  Every square is the rational
    S/L^2 that `_chord_sum` forms for its chord, so (lo, hi) is
    `_chord_sum`'s.
    """
    p, q = curve.a.numerator, curve.a.denominator
    cells = curve._w_cells
    maps = len(curve.components) - 1
    # mapper increments are numerators over q^d U, and chords over L = q^d E
    U = math.lcm(1 << curve.M, *(step.denominator for *_, step in cells))
    E = math.lcm(1 << depth, U)
    qd, e, powers = q ** depth, E // U, [p ** (depth - o) * (q - p) ** o
                                         for o in range(depth + 1)]

    def square(o: int, climb: dict) -> int:
        tail = powers[o] * (U >> curve.M)
        return ((qd * (E >> depth)) ** 2 + (powers[o] * E) ** 2
                + (maps - len(climb)) * (e * tail) ** 2
                + sum((e * (tail + t * qd)) ** 2 for t in climb.values()))

    climbs: dict[int, dict[int, int]] = {}  # chord -> {mapper: climb over U}
    inside = set()  # the chords inside a W cell of generation <= d
    for j, k, g, step in cells:
        if g > depth:
            climb = climbs.setdefault(k >> (g - depth), {})
            climb[j] = climb.get(j, 0) + _num_over(step, U)
        else:
            inside.update(range(k << (depth - g), (k + 1) << (depth - g)))
    counts = [math.comb(depth, o) for o in range(depth + 1)]
    for c in inside.union(climbs):
        counts[c.bit_count()] -= 1
    squares = Counter(square(c.bit_count(), climb) for c, climb in climbs.items())
    for o, count in enumerate(counts):
        if count:
            squares[square(o, {})] += count
    terms = [(count, s, (qd * E) ** 2) for s, count in squares.items()]
    if inside:
        ends = sorted({x for c in inside for x in (c, c + 1)})
        at = {x: i for i, x in enumerate(ends)}
        columns = [f.column(1 << depth, ends) for f in curve.components]
        L = math.lcm(1 << depth, *(den for den, _ in columns))
        scaled = [(L // den, nums) for den, nums in columns]
        squares = Counter((L >> depth) ** 2 + sum((m * (nums[at[c + 1]] - nums[at[c]])) ** 2
                                                  for m, nums in scaled)
                          for c in inside)
        terms += [(count, s, L * L) for s, count in squares.items()]
    return _sqrt_sum(terms, bits)


@dataclass(frozen=True)
class H1Certificate:
    """Paired exact upper bound and certified polyline lower bound."""

    upper: Fraction
    lower: Fraction
    error_radius: Fraction
    lower_depth: int
    upper_method: str
    lower_method: str

    def __post_init__(self):
        if self.lower - self.error_radius > self.upper:
            raise ValueError("certificate inconsistent: lower bound above upper")

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "upper": format_rational(self.upper),
            "lower": decimal_str(self.lower),
            "error_radius": decimal_str(self.error_radius),
            "depth": self.lower_depth,
            "method": {"upper": self.upper_method, "lower": self.lower_method},
        }


def certify_h1(curve, depth: int, precision: int = 64) -> H1Certificate:
    """`upper_bound_h1` paired with `polyline_length` at depth and precision;
    `lower_method` names the collapsed binomial sum for a lone R_a, else the
    chord sum."""
    value, radius = polyline_length(curve, depth, precision)
    return H1Certificate(
        upper=upper_bound_h1(curve),
        lower=value,
        error_radius=radius,
        lower_depth=depth,
        upper_method="partition-image-sum",
        lower_method=("inscribed-polyline/collapsed-binomial" if _is_collapsible(curve)
                      else "inscribed-polyline/chord-sum"),
    )


# -- box counting ---------------------------------------------------------------


@dataclass(frozen=True)
class BoxCount:
    delta: Fraction
    count: int


def box_count(curve, m: int) -> BoxCount:
    """Count the 2^-m grid boxes hit by the curve's depth-(m + 2) sample.

    A point's box has index min(floor(c * 2^m), 2^m - 1) in each coordinate c.
    """
    return box_counts(curve, [m])[0]


def box_counts(curve, ms) -> list[BoxCount]:
    """[box_count(curve, m) for m in ms], evaluating the curve once.

    The curve is read as its integer columns at the finest depth needed, top =
    max(ms) + 2; the depth-t sample is every 2^(top - t)-th column entry, and
    a box index is min(v * 2^m // den, 2^m - 1) for an entry v over den.  The
    x = k/2^(m+2) of sample point k lies in box k >> 2, and the constant
    alpha lies in one box, so it does not change the count.
    """
    ms = list(ms)
    top = max(ms) + 2
    columns = _columns(curve, top)
    out = []
    for m in ms:
        step, last = 1 << (top - m - 2), (1 << m) - 1
        xs = [min(k >> 2, last) for k in range((4 << m) + 1)]
        cells = [[min((v << m) // den, last) for v in nums[::step]]
                 for den, nums in columns]
        out.append(BoxCount(Fraction(1, 1 << m), len(set(zip(xs, *cells)))))
    return out


def box_count_slope(curve, ms):
    """(slope, series): least-squares dimension estimate of a curve over a range of m."""
    ms = list(ms)
    if len(ms) < 2:
        raise ValueError("need at least two grid resolutions")
    raw = box_counts(curve, ms)
    xs = [m * math.log(2.0) for m in ms]
    ys = [math.log(bc.count) for bc in raw]
    return statistics.linear_regression(xs, ys).slope, raw


# -- inequality checkers ----------------------------------------------------------


def _sample_nums(F: IntervalUnion, depth: int) -> tuple[int, list[int]]:
    """(den, nums): F's component ends, open or closed, and the points
    k/2^depth of [0, 1] inside them, left to right and distinct, as integer
    numerators over den = lcm(2^depth, the end denominators)."""
    den = math.lcm(1 << depth, *(x.denominator for c in F.components
                                 for x in (c.lo, c.hi)))
    step = den >> depth
    nums: list[int] = []
    for comp in F.components:
        lo, hi = _num_over(comp.lo, den), _num_over(comp.hi, den)
        if not nums or nums[-1] != lo:  # the last end equals lo when they touch
            nums.append(lo)
        k_lo, k_hi = max(lo // step + 1, 0), min(-(-hi // step) - 1, 1 << depth)
        nums += range(k_lo * step, (k_hi + 1) * step, step)
        if hi != lo:
            nums.append(hi)
    return den, nums


def check_lipschitz_image(f: MonotoneFn, c, F: IntervalUnion,
                          sample_depth: int = 8) -> bool:
    """Exact check that measure(f(F)) <= c * measure(F).

    The caller declares f to be c-Lipschitz on F; the declaration is probed
    first on the consecutive pairs of a sorted sample, F's component ends
    and the points k/2^sample_depth inside F, and a falsifying pair raises
    LipschitzWitnessError with the witness.  By the triangle inequality
    every sample pair satisfies the bound exactly when every consecutive
    pair does, so the verdict is that of an all-pairs probe; the witness is
    the leftmost violating consecutive pair, which need not be the pair an
    all-pairs scan would report.
    """
    c = Fraction(c)
    den, nums = _sample_nums(F, sample_depth)
    try:
        vden, vals = f.column(den, nums)
    except ValueError:
        for v in nums:  # raise the error that point-by-point evaluation meets first
            f(Fraction(v, den))
        raise
    # |f(y) - f(x)| > c * (y - x), times the positive den * vden * c.denominator
    lhs, rhs = den * c.denominator, c.numerator * vden
    for u, v, fu, fv in zip(nums, nums[1:], vals, vals[1:]):
        if abs(fv - fu) * lhs > (v - u) * rhs:
            raise LipschitzWitnessError(Fraction(u, den), Fraction(v, den),
                                        Fraction(fu, vden), Fraction(fv, vden), c)
    return image_measure(f, F) <= c * F.measure()


_BISECT_CAP = 200


def _level_cuts(f: MonotoneFn, spans, den: int, delta: Fraction):
    """Chop each [a/den, b/den] of `spans` until f moves by at most delta per piece.

    Piece j of level d is [x_j, x_(j+1)] with x_j = (a*2^d + j*(b - a)) / (den*2^d),
    and it splits at its midpoint x_(2j+1) of level d + 1 when
    |f(x_(j+1)) - f(x_j)| > delta.  Whether a piece splits depends only on
    the piece, so the leaves are those of a depth-first bisection.  The span
    ends are read as one column and so are the midpoints of all the pieces
    that split at one level; every point is evaluated once.  Returns
    (level, vden, cuts): per span its cut points as indices j at the last
    level, left to right, with f there as numerators over vden.
    """
    dn, dd = delta.numerator, delta.denominator
    ends = sorted({x for span in spans for x in span})
    vden, vals = f.column(den, ends)
    at = dict(zip(ends, vals))
    # pieces still to test, as (span, j, f(x_j), f(x_(j+1))) over vden
    frontier = [(s, 0, at[a], at[b]) for s, (a, b) in enumerate(spans)]
    levels = []  # (vden, [(span, j + 1, f(x_(j+1)))] of the leaves) per level
    d = 0
    while True:
        lim = dn * vden
        split, leaves = [], []
        for piece in frontier:
            s, j, u, v = piece
            if abs(v - u) * dd > lim:
                split.append(piece)
            else:
                leaves.append((s, j + 1, v))
        levels.append((vden, leaves))
        if not split:
            break
        if d >= _BISECT_CAP:
            raise NotEvaluableError("could not refine below delta")
        d += 1
        mden, mids = f.column(den << d, [(spans[s][0] << d) + (2 * j + 1) *
                                         (spans[s][1] - spans[s][0])
                                         for s, j, _, _ in split])
        new = math.lcm(vden, mden)
        ku, km = new // vden, new // mden
        vden = new
        frontier = []
        for (s, j, u, v), m in zip(split, mids):
            u, m, v = u * ku, m * km, v * ku
            frontier += ((s, 2 * j, u, m), (s, 2 * j + 1, m, v))
    cuts = [[(0, at[a] * (vden // levels[0][0]))] for a, _ in spans]
    for level, (lden, leaves) in enumerate(levels):
        shift, k = d - level, vden // lden
        for s, j, v in leaves:
            cuts[s].append((j << shift, v * k))
    for c in cuts:
        c.sort()
    return d, vden, cuts


def _fill(f: MonotoneFn, vals, other, spans, den: int, level: int, vden: int) -> int:
    """Add f at the points of `other` that `vals` lacks, in one column.

    vals and other hold per span {index at `level`: numerator}; the values
    of vals are over vden and come back over the returned denominator.
    """
    missing = [(s, j) for s, (mine, theirs) in enumerate(zip(vals, other))
               for j in theirs if j not in mine]
    if not missing:
        return vden
    missing.sort()
    mden, got = f.column(den << level, [(spans[s][0] << level) + j *
                                        (spans[s][1] - spans[s][0])
                                        for s, j in missing])
    new = math.lcm(vden, mden)
    if new != vden:
        k = new // vden
        for mine in vals:
            for j in mine:
                mine[j] *= k
    k = new // mden
    for (s, j), v in zip(missing, got):
        vals[s][j] = v * k
    return new


def check_sum_image_bound(f1: MonotoneFn, f2: MonotoneFn, D: IntervalUnion,
                          delta) -> bool:
    """Exact two-function cover-sum inequality for strictly increasing f1, f2.

    Chops D until each piece moves f1 (resp. f2) by at most delta; the common
    refinement then covers (f1+f2)(D) with blocks of diameter at most 2*delta.
    Checks that the refined 2-delta cover sum never exceeds the sum of the
    two delta cover sums.  Each component [a/den, b/den] is chopped by
    `_level_cuts`, so all sums are integers over one denominator per
    function, and each function is evaluated once per point.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    den = math.lcm(*(x.denominator for c in D.components for x in (c.lo, c.hi)))
    spans = [(_num_over(c.lo, den), _num_over(c.hi, den)) for c in D.components]
    (k1, den1, cuts1), (k2, den2, cuts2) = (_level_cuts(f, spans, den, delta)
                                            for f in (f1, f2))
    level = max(k1, k2)
    # per span, f at its cuts keyed by their indices at the common level, in
    # cut order
    vals1 = [{j << (level - k1): v for j, v in c} for c in cuts1]
    vals2 = [{j << (level - k2): v for j, v in c} for c in cuts2]
    cuts1, cuts2 = [list(c) for c in vals1], [list(c) for c in vals2]
    den1 = _fill(f1, vals1, vals2, spans, den, level, den1)
    den2 = _fill(f2, vals2, vals1, spans, den, level, den2)
    s1 = s2 = r1 = r2 = 0
    lim1, lim2 = delta.numerator * den1, delta.numerator * den2
    for c1, c2, w1, w2 in zip(cuts1, cuts2, vals1, vals2):
        s1 += sum(w1[v] - w1[u] for u, v in zip(c1, c1[1:]))
        s2 += sum(w2[v] - w2[u] for u, v in zip(c2, c2[1:]))
        merged = sorted(w1)
        for u, v in zip(merged, merged[1:]):
            d1 = w1[v] - w1[u]
            d2 = w2[v] - w2[u]
            if d1 * delta.denominator > lim1 or d2 * delta.denominator > lim2:
                raise AssertionError("refinement failed to be delta-fine")
            r1 += d1
            r2 += d2
    return Fraction(r1, den1) + Fraction(r2, den2) <= (Fraction(s1, den1)
                                                       + Fraction(s2, den2))


def check_derivative_bound(f: MonotoneFn, E: IntervalUnion) -> bool:
    """Exact check that measure(f(E)) <= integral of |f'| over E.

    f must be piecewise affine with rational breakpoints, so the integral is
    the finite sum of |slope| * measure(E intersect piece); equality holds
    when every piece has nonzero slope.
    """
    if isinstance(f, PiecewiseLinear):
        pieces = list(f.pieces())
    elif isinstance(f, Affine):
        pieces = [(Interval(ZERO, ONE), f.slope)]
    else:
        raise TypeError("derivative bound needs a piecewise-affine function")
    comps = E.components
    x0, xk = pieces[0][0].lo, pieces[-1][0].hi
    if comps and not (x0 <= comps[0].lo and comps[-1].hi <= xk):
        raise NotEvaluableError("E escapes the function's piece domain")
    total = sum((abs(slope) * max(ZERO, min(c.hi, iv.hi) - max(c.lo, iv.lo))
                 for iv, slope in pieces for c in comps), ZERO)
    return image_measure(f, E) <= total
