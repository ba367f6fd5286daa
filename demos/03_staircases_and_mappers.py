"""Nested-interval staircases and truncated full-measure mappers.

A staircase concentrates the image of a monotone map onto the full unit
interval while its domain carrier N is a thin union of 2^d cells that
dodges any prescribed excluded set; lambda(N) <= 1/(d+1) yet
lambda(f(N)) = 1 exactly.  A mapper stacks staircases at geometric
weights so that a single strictly increasing function pushes a small
carrier onto measure at least 1 - 2^-M.
"""

from fractions import Fraction

from dbecurves import (
    Interval,
    IntervalUnion,
    build_full_measure_mapper,
    build_interval_staircase,
    image_measure,
)

F = Fraction


def main():
    unit = Interval.closed(0, 1)
    empty = IntervalUnion.empty()

    print("== staircase over [0,1], depth 3, nothing excluded ==")
    N, f = build_interval_staircase(unit, empty, depth=3)
    print(f"  carrier N ({len(N.components)} cells) = {N}")
    print(f"  lambda(N)    = {N.measure()}   (guarantee: <= 1/4)")
    print(f"  lambda(f(N)) = {image_measure(f, N)}   (always exactly 1)")

    print()
    print("== the carrier dodges an excluded closed set ==")
    excluded = IntervalUnion.closed(F(1, 3), F(2, 3))
    N2, f2 = build_interval_staircase(unit, excluded, depth=4)
    print(f"  excluded [1/3,2/3], depth 4:")
    print(f"  lambda(N) = {N2.measure()}   (guarantee: <= 1/5)")
    print(f"  carrier meets the excluded set? "
          f"{not N2.intersect(excluded).is_empty}")
    print(f"  image measure still {image_measure(f2, N2)}")

    print()
    print("== deeper staircases have thinner carriers ==")
    for d in range(1, 9):
        Nd, fd = build_interval_staircase(unit, empty, depth=d)
        m = Nd.measure()
        ok = m <= F(1, d + 1)
        print(f"  depth {d}: lambda(N) = {str(m):>22}  <= 1/{d + 1}: {ok}")

    print()
    print("== truncated full-measure mapper ==")
    for M in (1, 2, 4, 6):
        n_trunc, f = build_full_measure_mapper(empty, M, staircase_depth=2)
        got = image_measure(f, n_trunc)
        bound = 1 - f.weights[-1]
        print(f"  M = {M}: carrier measure {n_trunc.measure()}, "
              f"image measure {got} >= {bound}: {got >= bound}")

    print()
    _, f = build_full_measure_mapper(empty, 4, staircase_depth=2)
    # a mapper is its weighted sum: staircase terms, then the identity
    stairs = [IntervalUnion(c.iv for c in g.leaves()) for g in f.terms[:-1]]
    print("the M = 4 mapper keeps its per-term carriers pairwise disjoint:")
    for i in range(len(stairs)):
        for j in range(i + 1, len(stairs)):
            overlap = stairs[i].intersect(stairs[j])
            assert overlap.is_empty
    pairs = len(stairs) * (len(stairs) - 1) // 2
    print(f"  checked all {pairs} pairs: disjoint")

if __name__ == "__main__":
    main()
