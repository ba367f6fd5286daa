"""Singular functions evaluated exactly at rational points.

Shows the Cantor function at rationals (including points with eventually
periodic ternary expansions), the one-parameter family of strictly
increasing singular functions at dyadic rationals, and the exact inverse
on the dyadic image grid.
"""

from fractions import Fraction

from dbecurves import (
    IntervalUnion,
    RieszNagy,
    eval_cantor,
    eval_riesz_nagy,
    image_measure,
)
from dbecurves.oracle import riesz_nagy_inverse

F = Fraction


def main():
    print("== Cantor function at rational points ==")
    for x in (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1, 9), F(1)):
        print(f"  c({x}) = {eval_cantor(x)}")
    print("flatness on a removed interval: c(10/27) == c(11/27) ==",
          eval_cantor(F(10, 27)))

    print()
    print("== strictly increasing singular function, weight a = 1/4 ==")
    a = F(1, 4)
    for x in (F(0), F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(7, 8), F(1)):
        print(f"  h({x}) = {eval_riesz_nagy(a, x)}")

    print()
    print("every step is positive (strict monotonicity on the dyadic grid):")
    vals = [eval_riesz_nagy(a, F(k, 64)) for k in range(65)]
    gaps = [vals[k + 1] - vals[k] for k in range(64)]
    print(f"  smallest increment over the k/64 grid: {min(gaps)}")
    print(f"  largest  increment over the k/64 grid: {max(gaps)}")

    print()
    print("== exact inverse on the image grid ==")
    for k in range(0, 17, 4):
        x = F(k, 16)
        y = eval_riesz_nagy(a, x)
        back = riesz_nagy_inverse(a, y)
        print(f"  h({x}) = {y},  inverse gives back {back}")
        assert back == x

    print()
    print("== image measure of a set under a singular function ==")
    h = RieszNagy(a)
    half = IntervalUnion.closed(0, F(1, 2))
    print(f"  h maps [0,1/2] onto a set of measure {image_measure(h, half)}")
    print(f"  (a = 1/4 crowds most of the rise into the right half)")


if __name__ == "__main__":
    main()
