"""Unique-intersection set families on a small ground set.

A family of distinct nonempty subsets of {1, ..., n} has the
unique-intersection property when every pair of distinct members meets in
exactly one element.  Exhaustive branch-and-bound search confirms that no
such family has more than n members, and the near-pencil shows the bound is
attained.  Members are bitmasks: element e corresponds to bit e-1.
"""

from __future__ import annotations

from dataclasses import dataclass

_MAX_GROUND = 24


@dataclass(frozen=True)
class SetFamily:
    """Distinct nonempty subsets of {1..n}, each encoded as a bitmask."""

    n: int
    members: tuple[int, ...]

    def __init__(self, n: int, members):
        if not 1 <= n <= _MAX_GROUND:
            raise ValueError(f"ground-set size must be in 1..{_MAX_GROUND}")
        members = tuple(int(m) for m in members)
        full = (1 << n) - 1
        for m in members:
            if m == 0:
                raise ValueError("members must be nonempty")
            if m & ~full:
                raise ValueError(f"member {m} uses elements beyond {n}")
        if len(set(members)) != len(members):
            raise ValueError("members must be distinct")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def element_lists(self) -> list[list[int]]:
        return [elements(m) for m in self.members]


def elements(mask: int) -> list[int]:
    """Sorted 1-indexed elements of a bitmask."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


def unique_intersection(f: SetFamily) -> bool:
    """True iff every pair of distinct members meets in exactly one element."""
    if len(f.members) < 2:
        raise ValueError("need at least two members to compare")
    ms = f.members
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if (ms[i] & ms[j]).bit_count() != 1:
                return False
    return True


def near_pencil(n: int) -> SetFamily:
    """The size-n extremal family: {2..n} together with all pairs {1,k}."""
    if n < 3:
        raise ValueError("near-pencil needs a ground set of size >= 3")
    big = ((1 << n) - 1) & ~1
    pairs = [1 | (1 << (k - 1)) for k in range(2, n + 1)]
    return SetFamily(n, [big] + pairs)


def _search(candidates: list[int], chosen: list[int], start: int,
            best: list[int], witness: list[tuple[int, ...]]) -> None:
    if len(chosen) > best[0]:
        best[0] = len(chosen)
        witness[0] = tuple(chosen)
    for idx in range(start, len(candidates)):
        if len(chosen) + (len(candidates) - idx) <= best[0]:
            return
        cand = candidates[idx]
        if all((cand & m).bit_count() == 1 for m in chosen):
            chosen.append(cand)
            _search(candidates, chosen, idx + 1, best, witness)
            chosen.pop()


def max_family_size(n: int, return_witness: bool = False):
    """Largest unique-intersection family on {1..n}, by exhaustive search.

    Candidates are scanned with larger sets first (ties by numeric mask) so
    the search order, and thus the returned witness, is deterministic.
    """
    if not 2 <= n <= 5:
        raise ValueError("exhaustive search supported for 2 <= n <= 5")
    candidates = sorted(range(1, 1 << n), key=lambda m: (-m.bit_count(), m))
    best = [0]
    witness: list[tuple[int, ...]] = [()]
    _search(candidates, [], 0, best, witness)
    if return_witness:
        return best[0], SetFamily(n, witness[0])
    return best[0]
