"""Seeded inputs for the benchmark workloads.

A workload is a cycle: a fixed multiset of operation slots (command,
dimension, depth or resolution) whose free parameters the seed fills in and
whose order the seed shuffles.  Every cycle of a workload therefore does the
same kind and amount of work whatever the seed, which keeps the figures of
runs with different seeds comparable, while the exact inputs (weights `a`,
`alpha`, resolutions, lemma seeds and trial splits, negative-control specs)
change with the seed.  The program only ever sees the argv lists and the
spec files written here.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("certify-chords", "sample-consumers", "build-and-lemmas")

# Riesz-Nagy weights, never 1/2: 14 dyadic and 13 non-dyadic.  They are
# listed by the certificate gap of `certify --n 6 --d 9`, smallest first, and
# each consecutive triple is a stratum of similar gap and cost.
A_STRATA = tuple(tuple(Fraction(s) for s in triple) for triple in (
    ("2/7", "3/10", "1/4"), ("5/16", "1/3", "3/8"), ("5/7", "2/3", "7/10"),
    ("11/16", "2/5", "5/12"), ("3/7", "5/8", "7/16"), ("3/5", "4/7", "9/16"),
    ("7/32", "3/4", "25/32"), ("1/5", "3/16", "4/5"), ("1/8", "13/16", "7/8")))
A_POOL = tuple(a for triple in A_STRATA for a in triple)


def is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


@dataclass(frozen=True)
class Op:
    """One CLI call and what its checker needs to know about it."""

    kind: str
    argv: tuple[str, ...]
    n: int | None = None
    a: Fraction | None = None
    alpha: Fraction | None = None
    lo: int | None = None  # depth, or first depth / resolution of a range
    hi: int | None = None  # last depth / resolution of a range
    expect_rc: int = 0
    extra: dict = field(default_factory=dict)


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _alpha(rng: random.Random) -> Fraction:
    q = rng.choice((2, 3, 4, 5, 7, 8, 16))
    return Fraction(rng.randint(1, q - 1), q)


def _curve_args(n: int, a: Fraction, alpha: Fraction) -> list[str]:
    return ["--n", str(n), "--a", _q(a), "--alpha", _q(alpha)]


def certify_op(n: int, d: int, a: Fraction, alpha: Fraction) -> Op:
    argv = ("certify", *_curve_args(n, a, alpha), "--d", str(d))
    return Op("certify", argv, n, a, alpha, d, d)


# Depth of the certify operation per n and weight stratum.  21 of the 27
# operations (n=4 d=11, n=5 d=10, n=6 d=10) cost about 1 s, and the median
# and the tail latency both fall inside that band, so they do not jump
# between clusters from seed to seed.  One operation per n has depth 9.
CERTIFY_DEPTHS = {
    4: (9, 11, 11, 11, 11, 11, 11, 11, 11),
    5: (10, 9, 10, 10, 10, 11, 10, 10, 11),
    6: (10, 10, 9, 10, 10, 10, 11, 10, 10),
}


def certify_chords(rng: random.Random, tiny: bool) -> list[Op]:
    # The headline user call.  With n >= 4 and depths 9-11 the lower bound
    # walks the 2^d chord sum, so nearly all time is point evaluation in
    # `singular` reached through `curves.sample`; mapper settings stay at
    # their defaults, so construction is a few percent and `exact` and
    # `partitions` barely run.  A faster sampler and a tighter certificate
    # both show here.  Every weight is used once per cycle and each stratum
    # sends one weight to each n, so the cycle's cost and mean gap barely
    # depend on the seed.
    strata = A_STRATA[:1] if tiny else A_STRATA
    ops = []
    for i, triple in enumerate(strata):
        for n, a in zip(rng.sample((4, 5, 6), 3), triple):
            depth = 3 if tiny else CERTIFY_DEPTHS[n][i]
            ops.append(certify_op(n, depth, a, _alpha(rng)))
    return ops


def _negative_spec(rng: random.Random, n: int, d: int, a: Fraction) -> dict:
    """A curve with one flat piece holding five depth-d sample points, so
    ten sample pairs share two coordinates."""
    cells = 1 << (d - 2)
    k = rng.randrange(1, cells - 1)
    lo, hi = Fraction(k, cells), Fraction(k + 1, cells)
    y = Fraction(rng.randint(1, 7), 8)
    knots = [(0, 0), (lo, y), (hi, y), (1, 1)]
    flat = {"kind": "piecewise_linear",
            "knots": [[_q(Fraction(x)), _q(Fraction(v))] for x, v in knots]}
    components = [{"kind": "riesz_nagy", "a": _q(a)}] * (n - 3) + [flat]
    return {"schema_version": 1, "type": "curve", "n": n,
            "alpha": _q(_alpha(rng)), "components": components}


# Length-series slots: a pair {a, 1 - a} and the last depth.  R_(1-a) is R_a
# reflected, so both weights of a pair give the same n = 3 lengths: the seed
# picks one, and the cycle's mean gap does not depend on the pick.
SERIES = tuple(((Fraction(p), 1 - Fraction(p)), depth) for p, depth in (
    ("3/7", 132), ("2/5", 128), ("3/8", 124), ("1/3", 120), ("5/16", 116),
    ("3/10", 112), ("2/7", 108), ("1/4", 104)))


# Slots (n, depth) of `verify --dbe`, (n, last m) of `emit --boxcount` and
# (n, depth) of `emit --samples`, one per weight stratum.  Each stratum sends
# one weight to each of the three commands, so every cycle spreads the same
# weights over the same slots; most operations cost 0.3-1 s, and the median
# and the tail latency fall inside that band.
SAMPLE_SLOTS = {
    "dbe": ((4, 8), (3, 9), (5, 8), (4, 9), (6, 8), (4, 9), (5, 9), (3, 10), (6, 9)),
    "boxcount": ((3, 8), (3, 9), (4, 8), (3, 10), (4, 8), (5, 8), (3, 9), (6, 8), (3, 8)),
    "samples": ((3, 10), (4, 9), (5, 9), (4, 10), (5, 9), (6, 9), (5, 10), (6, 10), (6, 10)),
}
TINY_SAMPLE_SLOTS = {"dbe": ((4, 4),), "boxcount": ((5, 4),), "samples": ((6, 3),)}


def _sample_op(rng: random.Random, kind: str, n: int, size: int, a: Fraction) -> Op:
    alpha = _alpha(rng)
    curve = _curve_args(n, a, alpha)
    if kind == "dbe":
        return Op(kind, ("verify", "--dbe", *curve, "--d", str(size)), n, a, alpha,
                  size, size)
    if kind == "boxcount":
        m_lo = rng.randint(max(1, size - 6), max(1, size - 3))
        return Op(kind, ("emit", "--boxcount", *curve, "--m", f"{m_lo}..{size}"),
                  n, a, alpha, m_lo, size)
    probes = sorted(rng.sample(range(1 << size), 3))
    return Op(kind, ("emit", "--samples", *curve, "--d", str(size)), n, a, alpha,
              size, size, extra={"probes": probes})


def sample_consumers(rng: random.Random, tiny: bool, spec_dir: Path) -> list[Op]:
    # The other consumers of sampled points: the O(N^2) pairwise check,
    # box counting that re-samples for every m, and exact sample dumps.
    # These costs dominate here and nowhere else.  The n = 3 length series
    # takes the collapsed binomial path, which a shared sampler must not
    # replace, and the negative controls must keep failing with exit code 1.
    slots = TINY_SAMPLE_SLOTS if tiny else SAMPLE_SLOTS
    series = [(pair, 8) for pair, _ in SERIES[:2]] if tiny else SERIES
    negatives = [(3, 4)] if tiny else [(3, 9), (4, 9), (5, 9)]
    ops: list[Op] = []
    for i, triple in enumerate(A_STRATA[:len(slots["dbe"])]):
        for kind, a in zip(slots, rng.sample(triple, 3)):
            n, size = slots[kind][i]
            ops.append(_sample_op(rng, kind, n, size, a))
    for pair, depth in series:
        a, alpha = rng.choice(pair), _alpha(rng)
        argv = ("emit", "--length-series", *_curve_args(3, a, alpha),
                "--d", f"1..{depth}")
        ops.append(Op("length-series", argv, 3, a, alpha, 1, depth))
    for idx, (n, d) in enumerate(negatives):
        path = spec_dir / f"negative-{idx}.json"
        path.write_text(json.dumps(_negative_spec(rng, n, d, rng.choice(A_POOL)),
                                   sort_keys=True), encoding="utf-8")
        argv = ("verify", "--dbe", "--spec", str(path), "--d", str(d))
        ops.append(Op("dbe-negative", argv, n, None, None, d, d, expect_rc=1))
    return ops


# Truncation M per n and weight stratum.  n=5 with M 8-10 and n=6 with M 6-7
# cost about half a second, like the lemma batches, so the median and the
# tail latency fall inside one dense band; n=4, cheap at any M, covers 6-10.
CONSTRUCT_M = {
    4: (6, 7, 8, 9, 10, 6, 8, 10, 9),
    5: (9, 10, 8, 9, 10, 9, 8, 10, 9),
    6: (6, 7, 6, 7, 6, 7, 6, 7, 6),
}


def build_and_lemmas(rng: random.Random, tiny: bool) -> list[Op]:
    # The write side of `singular`: staircase-tree search, the R_a image-grid
    # cache and `exact` set algebra under large truncation, plus the
    # `partitions`, `trials` and `hausdorff` inequality checkers.  Almost no
    # curve points are evaluated, so a sampler change should not move it.
    strata = A_STRATA[:1] if tiny else A_STRATA
    ops: list[Op] = []
    for i, triple in enumerate(strata):
        for n, a in zip(rng.sample((4, 5, 6), 3), triple):
            M, depth = (2, 2) if tiny else (CONSTRUCT_M[n][i], 3)
            alpha = _alpha(rng)
            argv = ("construct", *_curve_args(n, a, alpha), "--M", str(M),
                    "--staircase-depth", str(depth))
            ops.append(Op("construct", argv, n, a, alpha, M, M))
    # Trial counts vary per batch, in pairs that sum to twice the base, so
    # every cycle runs the same number of trials.
    batches, base = (2, 4) if tiny else (20, 65)
    counts = []
    for _ in range(batches // 2):
        delta = rng.randint(0, base // 6)
        counts += [base + delta, base - delta]
    for trials in counts:
        seed = rng.randrange(1_000_000)
        argv = ("verify", "--lemmas", "--trials", str(trials), "--seed", str(seed))
        ops.append(Op("lemmas", argv, lo=trials, hi=trials, extra={"seed": seed}))
    return ops


def make_cycle(workload: str, seed: int, index: int, spec_dir: Path,
               tiny: bool = False) -> list[Op]:
    """The seeded, shuffled operations of one cycle of a workload."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "certify-chords":
        ops = certify_chords(rng, tiny)
    elif workload == "sample-consumers":
        cycle_dir = spec_dir / f"cycle-{index}"
        cycle_dir.mkdir(parents=True, exist_ok=True)
        ops = sample_consumers(rng, tiny, cycle_dir)
    elif workload == "build-and-lemmas":
        ops = build_and_lemmas(rng, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def input_mix(ops: list[Op]) -> dict:
    """Counts per kind and n, dyadic share of `a`, and size ranges per kind."""
    weights = [op.a for op in ops if op.a is not None]
    sizes: dict[str, list[int]] = {}
    for op in ops:
        if op.lo is not None:
            lo, hi = sizes.get(op.kind, [op.lo, op.hi])
            sizes[op.kind] = [min(lo, op.lo), max(hi, op.hi)]
    dyadic = sum(1 for a in weights if is_dyadic(a))
    return {
        "ops": len(ops),
        "per_kind": dict(sorted(Counter(op.kind for op in ops).items())),
        "per_n": {str(k): v for k, v in sorted(Counter(
            op.n for op in ops if op.n is not None).items())},
        "a_dyadic": dyadic,
        "a_nondyadic": len(weights) - dyadic,
        "size_range": sizes,
    }
