"""Left-right ordered partitions and their common refinements.

A partition here is a finite family of pairwise-disjoint nonempty interval
unions.  It is "left-right ordered" when any two blocks are separated:
one block lies entirely to the left of the other (sup of one <= inf of the
other).  Refining two such partitions of the same set never increases the
total block diameter; `refine` checks that inequality exactly on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import IntervalUnion, ZERO, _end_cut, _merge, _start_cut


class DomainMismatchError(ValueError):
    """Raised when two partitions do not cover the same underlying set."""


class RefinementBoundError(AssertionError):
    """Raised if a refinement's diameter sum exceeded an input's (never expected)."""


@dataclass(frozen=True)
class LRPartition:
    """Finite partition of an interval union into disjoint blocks."""

    blocks: tuple[IntervalUnion, ...]

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("partition needs at least one block")
        for b in blocks:
            if not isinstance(b, IntervalUnion):
                raise TypeError("blocks must be IntervalUnions")
            if b.is_empty:
                raise ValueError("empty block in partition")
        # blocks overlap exactly when some component, in start order, starts
        # at or before the end of the one before it
        comps = sorted((c for b in blocks for c in b.components), key=_start_cut)
        if any(_start_cut(c) <= _end_cut(prev) for prev, c in zip(comps, comps[1:])):
            raise ValueError("partition blocks overlap")
        object.__setattr__(self, "blocks", blocks)

    def support(self) -> IntervalUnion:
        return IntervalUnion(c for b in self.blocks for c in b.components)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def diam_sum(p: LRPartition) -> Fraction:
    """Sum of block diameters (sup - inf per block, not measure)."""
    return sum((b.diam for b in p.blocks), ZERO)


def refine(p: LRPartition, q: LRPartition) -> LRPartition:
    """All nonempty pairwise intersections of blocks, ordered left to right.

    Requires p and q to be left-right ordered partitions of the same set,
    and raises ValueError for interleaved blocks.  The refinement's diameter
    sum can then never exceed either input's; that inequality is checked
    exactly here and a failure raises RefinementBoundError.

    One sweep: in left-right order the blocks' components are in start
    order, so each support is one merge, and a two-pointer walk meets every
    intersecting pair of blocks.  The block ending first (by its last end
    cut) meets no later block of the other partition, so it is the one to
    advance; the pieces come out left to right.
    """
    ordered = []
    for part in (p, q):
        blocks = sorted(part.blocks, key=lambda b: b.inf)
        if any(left.sup > right.inf for left, right in zip(blocks, blocks[1:])):
            raise ValueError("refine needs left-right ordered partitions")
        ordered.append(blocks)
    ps, qs = ordered
    if (_merge(c for b in ps for c in b.components)
            != _merge(c for b in qs for c in b.components)):
        raise DomainMismatchError("partitions cover different sets")
    blocks = []
    i = j = 0
    while i < len(ps) and j < len(qs):
        piece = ps[i].intersect(qs[j])
        if not piece.is_empty:
            blocks.append(piece)
        if _end_cut(ps[i].components[-1]) <= _end_cut(qs[j].components[-1]):
            i += 1
        else:
            j += 1
    result = LRPartition(blocks)
    bound = min(diam_sum(p), diam_sum(q))
    total = diam_sum(result)
    if total > bound:
        raise RefinementBoundError(f"refinement diameter sum {total} exceeds {bound}")
    return result
