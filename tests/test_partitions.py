"""Ordered partitions and their common refinements."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from dbecurves.exact import Interval, IntervalUnion
from dbecurves.partitions import (
    DomainMismatchError,
    LRPartition,
    diam_sum,
    refine,
)
from dbecurves.trials import random_partition, random_union
from test_exact import intersects

F = Fraction


def _u(*pairs):
    return IntervalUnion(Interval(F(a), F(b)) for a, b in pairs)


def half_open(a, b):
    return IntervalUnion((Interval(F(a), F(b), hi_closed=False),))


def test_partition_validation():
    with pytest.raises(ValueError):
        LRPartition([])
    with pytest.raises(ValueError):
        LRPartition([_u((0, F(1, 2))), _u((F(1, 4), 1))])  # overlap
    p = LRPartition([half_open(0, F(1, 2)), _u((F(1, 2), 1))])
    assert len(p) == 2
    assert p.support() == IntervalUnion.closed(0, 1)


def _pairwise_overlap(blocks):
    """Reference: some two blocks intersect."""
    return any(intersects(blocks[i], blocks[j])
               for i in range(len(blocks)) for j in range(i + 1, len(blocks)))


def _random_interval(rng):
    lo, hi = sorted(rng.choices(range(9), k=2))
    if lo == hi:
        return Interval(F(lo, 8), F(hi, 8))
    return Interval(F(lo, 8), F(hi, 8), rng.random() < 0.5, rng.random() < 0.5)


def test_overlap_sweep_matches_pairwise_check():
    rng = random.Random(20240)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        blocks = [IntervalUnion(_random_interval(rng)
                                for _ in range(rng.randint(1, 3)))
                  for _ in range(rng.randint(1, 5))]
        overlap = _pairwise_overlap(blocks)
        outcomes[overlap] += 1
        if overlap:
            with pytest.raises(ValueError, match="partition blocks overlap"):
                LRPartition(blocks)
        else:
            assert LRPartition(blocks).blocks == tuple(blocks)
    assert min(outcomes.values()) > 500
    # [0,1/2) next to [1/2,1] and a point in another block's gap are
    # disjoint; a shared closed end and a point inside a component are not
    LRPartition([_u((F(1, 2), 1)), half_open(0, F(1, 2))])
    LRPartition([_u((0, F(1, 8)), (F(1, 2), 1)), _u((F(1, 4), F(1, 4)))])
    for blocks in ([_u((0, F(1, 2))), _u((F(1, 2), 1))],
                   [_u((0, F(1, 8)), (F(1, 2), 1)), _u((F(3, 4), F(3, 4)))]):
        assert _pairwise_overlap(blocks)
        with pytest.raises(ValueError, match="partition blocks overlap"):
            LRPartition(blocks)


def test_support_is_the_union_of_the_blocks():
    rng = random.Random(7741)
    for _ in range(200):
        u = random_union(rng, max_components=4)
        p = random_partition(rng, u)
        fold = IntervalUnion.empty()
        for b in p.blocks:
            fold = fold.union(b)
        assert p.support() == fold == u


def test_refine_matches_expected_blocks():
    p = LRPartition([half_open(0, F(1, 2)), _u((F(1, 2), 1))])
    q = LRPartition([half_open(0, F(1, 4)), _u((F(1, 4), 1))])
    r = refine(p, q)
    got = [str(b) for b in r.blocks]
    assert got == ["[0,1/4)", "[1/4,1/2)", "[1/2,1]"]
    assert diam_sum(r) == 1


def test_refine_requires_same_support():
    p = LRPartition([_u((0, 1))])
    q = LRPartition([_u((0, F(1, 2)))])
    with pytest.raises(DomainMismatchError):
        refine(p, q)


def test_diam_sum_counts_block_diameters():
    p = LRPartition([_u((0, F(1, 5))), _u((F(4, 5), 1))])
    assert diam_sum(p) == F(2, 5)
    # a block spanning a gap counts the gap in its diameter
    wide = LRPartition([_u((0, F(1, 5)), (F(4, 5), 1))])
    assert diam_sum(wide) == 1


def test_refinement_never_exceeds_either_input():
    p = LRPartition([_u((0, F(1, 5))), _u((F(4, 5), 1))])
    r = refine(p, p)
    assert diam_sum(r) == F(2, 5)
    wide = LRPartition([_u((0, F(1, 5)), (F(4, 5), 1))])
    fine = refine(wide, p)
    assert diam_sum(fine) <= min(diam_sum(wide), diam_sum(p))
    assert fine.support() == p.support()


def test_refine_refuses_interleaved_blocks():
    p = LRPartition([_u((0, 1), (2, 3), (4, 5), (6, 7))])
    q = LRPartition([_u((0, 1), (4, 5)), _u((2, 3), (6, 7))])
    for args in ((p, q), (q, p)):
        with pytest.raises(ValueError, match="left-right ordered"):
            refine(*args)
    # blocks that touch at one end are still ordered
    touching = LRPartition([_u((F(1, 2), 1)), half_open(0, F(1, 2))])
    assert len(refine(touching, touching)) == 2


def _refine_reference(p, q):
    """Reference for `refine`: every block of p met with every block of q,
    the pieces sorted by (inf, sup), behind the same checks."""
    for part in (p, q):
        blocks = sorted(part.blocks, key=lambda b: b.inf)
        if any(left.sup > right.inf for left, right in zip(blocks, blocks[1:])):
            raise ValueError("refine needs left-right ordered partitions")
    if p.support() != q.support():
        raise DomainMismatchError("partitions cover different sets")
    blocks = [v.intersect(w) for v in p.blocks for w in q.blocks]
    blocks = [b for b in blocks if not b.is_empty]
    blocks.sort(key=lambda b: (b.inf, b.sup))
    return LRPartition(blocks)


def _outcome(fn, p, q):
    try:
        return fn(p, q).blocks
    except ValueError as e:  # DomainMismatchError is one
        return type(e), str(e)


def _interleave(rng, part):
    """part with two blocks that have a third between them joined into one."""
    blocks = sorted(part.blocks, key=lambda b: b.inf)
    i = rng.randrange(len(blocks) - 2)
    joined = IntervalUnion((*blocks[i], *blocks[i + 2]))
    return LRPartition([joined, *blocks[:i], blocks[i + 1], *blocks[i + 3:]])


def _mirror(u):
    """u reflected by x -> 1 - x: its half-open pieces turn to (u, v]."""
    return IntervalUnion(Interval(1 - c.hi, 1 - c.lo, c.hi_closed, c.lo_closed) for c in u)


def test_refine_sweep_matches_the_pairwise_reference():
    rng = random.Random(5150)
    seen = Counter()
    for _ in range(800):
        u = random_union(rng, max_components=4, den=rng.choice((None, 16)))
        p, q = random_partition(rng, u), random_partition(rng, u)
        case = rng.randrange(4)
        if case == 1:
            q = random_partition(rng, random_union(rng, max_components=4))
        elif case == 2 and len(q) >= 3:
            q = _interleave(rng, q)
        elif case == 3:  # blocks that touch p's from the other side
            q = LRPartition(map(_mirror, random_partition(rng, _mirror(u))))
        for args in ((p, q), (q, p)):
            want = _outcome(_refine_reference, *args)
            assert _outcome(refine, *args) == want, args
            seen[want[0] if type(want[0]) is type else "blocks"] += 1
    assert seen["blocks"] > 600
    assert seen[ValueError] > 100 and seen[DomainMismatchError] > 100
