"""Randomized property suites for the exact inequality checkers.

Each runner generates `trials` random valid inputs from a seeded stdlib
random.Random and counts violations of the corresponding inequality; every
check runs in exact rational arithmetic, so any nonzero count is a real
counterexample, not rounding noise.  Expected violations: zero, always.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exact import Interval, IntervalUnion, ZERO, _merge
from .hausdorff import (
    LipschitzWitnessError,
    check_derivative_bound,
    check_lipschitz_image,
    check_sum_image_bound,
)
from .partitions import LRPartition, RefinementBoundError, refine
from .singular import PiecewiseLinear, RieszNagy

_RIESZ_WEIGHTS = (Fraction(1, 4), Fraction(1, 3), Fraction(3, 4), Fraction(2, 5))


def random_union(rng: random.Random, max_components: int = 3,
                 den: int | None = None) -> IntervalUnion:
    """Random union of closed, separated subintervals of [0,1]."""
    q = den or rng.choice((27, 32, 64, 100))
    k = rng.randint(1, max_components)
    pts = sorted(rng.sample(range(q + 1), 2 * k))
    comps = [
        Interval(Fraction(pts[2 * i], q), Fraction(pts[2 * i + 1], q))
        for i in range(k)
    ]
    return IntervalUnion(comps)


def _chop(comp: Interval, cuts: list[Fraction]) -> list[Interval]:
    """Split a closed interval at interior cuts into half-open left pieces.

    The last piece keeps its closed right end, so the pieces reunite to the
    original interval exactly.
    """
    edges = [comp.lo] + cuts + [comp.hi]
    pieces = [
        Interval(u, v, lo_closed=True, hi_closed=False)
        for u, v in zip(edges[:-2], edges[1:-1])
    ]
    pieces.append(Interval(edges[-2], edges[-1]))
    return pieces


def random_partition(rng: random.Random, u: IntervalUnion) -> LRPartition:
    """Random left-right ordered partition of u.

    Chops every component at random interior points, then groups runs of
    consecutive pieces into blocks, so blocks may have several intervals but
    stay ordered.
    """
    pieces: list[Interval] = []
    for comp in u.components:
        cuts = sorted(
            {comp.lo + comp.diam * Fraction(rng.randint(1, 15), 16)
             for _ in range(rng.randint(0, 3))}
        )
        pieces.extend(_chop(comp, cuts))
    blocks = []
    run: list[Interval] = []
    for piece in pieces:
        run.append(piece)
        if rng.random() < 0.6:
            blocks.append(IntervalUnion._canonical(_merge(run)))
            run = []
    if run:
        blocks.append(IntervalUnion._canonical(_merge(run)))
    return LRPartition(blocks)


def random_piecewise_linear(rng: random.Random, strict: bool) -> PiecewiseLinear:
    """Random nondecreasing piecewise-affine function on [0,1], 1-4 pieces.

    Strict mode forces every slope positive; otherwise zero-slope pieces mix in.
    """
    q = 32
    knot_count = rng.randint(2, 5)
    xs = [ZERO]
    xs += [Fraction(i, q) for i in sorted(rng.sample(range(1, q), knot_count - 2))]
    xs.append(Fraction(1))
    ys = [ZERO]
    for _ in range(len(xs) - 1):
        if not strict and rng.random() < 0.3:
            inc = ZERO
        else:
            inc = Fraction(rng.randint(1, 12), 16)
        ys.append(ys[-1] + inc)
    return PiecewiseLinear(tuple(zip(xs, ys)))


def run_refinement_trials(trials: int, seed: int) -> int:
    """Common refinements of random ordered partitions; violations counted."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        u = random_union(rng)
        p = random_partition(rng, u)
        q = random_partition(rng, u)
        try:
            refine(p, q)
        except RefinementBoundError:
            violations += 1
    return violations


def run_sum_bound_trials(trials: int, seed: int) -> int:
    """Two-function cover-sum inequality on random strict increasing pairs."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        f1 = random_piecewise_linear(rng, strict=True)
        f2 = random_piecewise_linear(rng, strict=True)
        d = random_union(rng)
        delta = Fraction(1, 1 << rng.randint(2, 5))
        if not check_sum_image_bound(f1, f2, d, delta):
            violations += 1
    return violations


def _max_cell_slope(f: RieszNagy, depth: int) -> Fraction:
    """The largest slope of R_a over a cell [k/2^depth, (k+1)/2^depth]."""
    den, level = f.column(1 << depth, range((1 << depth) + 1))
    return Fraction(max(r - l for l, r in zip(level, level[1:])) << depth, den)


def run_lipschitz_trials(trials: int, seed: int) -> int:
    """Image-measure bound with the exact best Lipschitz constant.

    Mostly piecewise-affine functions with c = max slope; a slice of trials
    uses Riesz-Nagy functions over the dyadic grid with c = the largest
    depth-5 cell slope, which is exact for grid-aligned domains.
    """
    rng = random.Random(seed)
    depth = 5
    violations = 0
    for _ in range(trials):
        if rng.random() < 0.15:
            f = RieszNagy(rng.choice(_RIESZ_WEIGHTS))
            c = _max_cell_slope(f, depth)
            domain = random_union(rng, den=1 << depth)
        else:
            f = random_piecewise_linear(rng, strict=rng.random() < 0.5)
            c = max((abs(s) for _, s in f.pieces()), default=ZERO)
            domain = random_union(rng)
        try:
            ok = check_lipschitz_image(f, c, domain, sample_depth=depth)
        except LipschitzWitnessError:
            violations += 1
            continue
        if not ok:
            violations += 1
    return violations


def run_derivative_trials(trials: int, seed: int) -> int:
    """Piecewise-affine derivative-integral bound on random domains."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        f = random_piecewise_linear(rng, strict=False)
        e = random_union(rng)
        if not check_derivative_bound(f, e):
            violations += 1
    return violations


def run_all(trials: int, seed: int) -> dict[str, int]:
    """All four suites; maps suite name to violation count."""
    return {
        "refinement": run_refinement_trials(trials, seed),
        "sum_image_bound": run_sum_bound_trials(trials, seed + 1),
        "lipschitz_image": run_lipschitz_trials(trials, seed + 2),
        "derivative_bound": run_derivative_trials(trials, seed + 3),
    }
