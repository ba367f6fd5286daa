"""Generators and randomized suites (shortened runs; the acceptance suite
runs the full 500-trial versions)."""

import random
from fractions import Fraction

from dbecurves.exact import Interval, IntervalUnion
from dbecurves.partitions import LRPartition
from dbecurves.singular import RieszNagy
from dbecurves.trials import (
    _RIESZ_WEIGHTS,
    _max_cell_slope,
    random_partition,
    random_piecewise_linear,
    random_union,
    run_all,
    run_derivative_trials,
    run_lipschitz_trials,
    run_refinement_trials,
    run_sum_bound_trials,
)
from test_exact import subset_of

F = Fraction


def is_left_right_ordered(p: LRPartition) -> bool:
    """Reference: every pair of blocks is separated (sup of one <= inf of other)."""
    ordered = sorted(p.blocks, key=lambda b: (b.inf, b.sup))
    return all(
        ordered[i].sup <= ordered[i + 1].inf for i in range(len(ordered) - 1)
    )


def test_is_left_right_ordered_reference():
    p = LRPartition([IntervalUnion((Interval(F(0), F(1, 2), hi_closed=False),)),
                     IntervalUnion.closed(F(1, 2), 1)])
    assert is_left_right_ordered(p)
    wrap = IntervalUnion((
        Interval(F(0), F(1, 4), hi_closed=False),
        Interval(F(1, 2), F(1), lo_closed=False),
    ))
    q = LRPartition([wrap, IntervalUnion.closed(F(1, 4), F(1, 2))])
    # first block wraps around the second, so no ordering works
    assert not is_left_right_ordered(q)


def test_random_union_shape():
    rng = random.Random(3)
    for _ in range(50):
        u = random_union(rng)
        assert not u.is_empty
        assert subset_of(u, IntervalUnion.closed(0, 1))
        assert all(c.lo < c.hi for c in u.components)


def test_random_partition_covers_union():
    rng = random.Random(4)
    for _ in range(50):
        u = random_union(rng)
        p = random_partition(rng, u)
        assert p.support() == u
        assert is_left_right_ordered(p)


def test_random_piecewise_linear_monotone():
    rng = random.Random(5)
    for _ in range(50):
        strict = rng.random() < 0.5
        f = random_piecewise_linear(rng, strict=strict)
        xs = [F(k, 32) for k in range(33)]
        vals = [f(x) for x in xs]
        if strict:
            assert all(a < b for a, b in zip(vals, vals[1:]))
        else:
            assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_trial_suites_zero_violations_small():
    assert run_refinement_trials(60, seed=11) == 0
    assert run_sum_bound_trials(60, seed=12) == 0
    assert run_lipschitz_trials(60, seed=13) == 0
    assert run_derivative_trials(60, seed=14) == 0


def test_run_all_returns_counts():
    counts = run_all(25, seed=9)
    assert set(counts) == {
        "refinement", "sum_image_bound", "lipschitz_image", "derivative_bound"
    }
    assert all(v == 0 for v in counts.values())


def test_trials_deterministic_by_seed():
    a = run_all(20, seed=42)
    b = run_all(20, seed=42)
    assert a == b


def test_max_cell_slope_matches_pointwise_cells():
    for a in _RIESZ_WEIGHTS:
        f = RieszNagy(a)
        for depth in range(1, 7):
            scale = 1 << depth
            vals = [f(F(k, scale)) for k in range(scale + 1)]
            want = max((v - u) * scale for u, v in zip(vals, vals[1:]))
            assert _max_cell_slope(f, depth) == want
