"""Unique-intersection families: examples, search, and both encodings."""

import random

import pytest

from dbecurves.setfamily import (
    SetFamily,
    elements,
    max_family_size,
    near_pencil,
    unique_intersection,
)


def mask_of(els) -> int:
    """The bitmask of 1-indexed elements."""
    mask = 0
    for e in els:
        mask |= 1 << (e - 1)
    return mask


def family_of(n, *sets):
    return SetFamily(n, [mask_of(s) for s in sets])


def test_mask_helpers():
    assert mask_of([1, 3]) == 0b101
    assert elements(0b1101) == [1, 3, 4]
    assert elements(0) == []


def test_setfamily_validation():
    with pytest.raises(ValueError):
        SetFamily(4, [0])
    with pytest.raises(ValueError):
        SetFamily(2, [0b100])
    with pytest.raises(ValueError):
        SetFamily(3, [0b1, 0b1])
    with pytest.raises(ValueError):
        SetFamily(0, [1])
    fam = family_of(3, [1, 2], [1, 3])
    assert len(fam) == 2


def test_unique_intersection_examples():
    near4 = family_of(4, [2, 3, 4], [1, 2], [1, 3], [1, 4])
    assert unique_intersection(near4)
    assert not unique_intersection(family_of(3, [1, 2], [1, 2, 3]))
    assert not unique_intersection(family_of(2, [1], [2]))
    with pytest.raises(ValueError):
        unique_intersection(family_of(3, [1, 2]))


def test_near_pencil_structure():
    f3 = near_pencil(3)
    assert f3.element_lists() == [[2, 3], [1, 2], [1, 3]]
    assert unique_intersection(f3)
    f4 = near_pencil(4)
    assert len(f4) == 4
    assert unique_intersection(f4)
    assert unique_intersection(near_pencil(5))
    with pytest.raises(ValueError):
        near_pencil(2)


def test_max_family_size_is_ground_size():
    for n in (2, 3, 4, 5):
        assert max_family_size(n) == n
    with pytest.raises(ValueError):
        max_family_size(6)
    with pytest.raises(ValueError):
        max_family_size(1)


def test_max_family_witness_is_valid_and_deterministic():
    for n in (3, 4, 5):
        size, witness = max_family_size(n, return_witness=True)
        assert size == n
        assert len(witness) == n
        assert unique_intersection(witness)
    _, w1 = max_family_size(4, return_witness=True)
    _, w2 = max_family_size(4, return_witness=True)
    assert w1.members == w2.members


def test_near_pencil_attains_maximum():
    for n in (3, 4, 5):
        assert len(near_pencil(n)) == max_family_size(n)


def member_vector(mask: int, n: int) -> tuple[int, ...]:
    """The 0/1 incidence vector of a member over ground set {1..n}."""
    return tuple((mask >> i) & 1 for i in range(n))


def unique_intersection_vectors(vectors) -> bool:
    """Reference: every pair of incidence vectors has dot product exactly 1.

    Independent of the bitmask route of `unique_intersection` on purpose.
    """
    vs = list(vectors)
    if len(vs) < 2:
        raise ValueError("need at least two vectors to compare")
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            dot = sum(x * y for x, y in zip(vs[i], vs[j]))
            if dot != 1:
                return False
    return True


def test_vector_encoding_matches_bitmask_encoding():
    rng = random.Random(515)
    for _ in range(300):
        n = rng.randint(2, 6)
        count = rng.randint(2, 5)
        masks = rng.sample(range(1, 1 << n), min(count, (1 << n) - 1))
        fam = SetFamily(n, masks)
        vectors = [member_vector(m, n) for m in masks]
        assert unique_intersection(fam) == unique_intersection_vectors(vectors)
