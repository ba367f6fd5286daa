"""Output checks for benchmark operations.

Each check uses invariants that hold whatever algorithm produced the output,
so a faster implementation passes them exactly when it is still correct.
A check returns the operation's certificate gap (or None when the operation
has none) and raises CheckFailed on any violation.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from dbecurves.curves import curve_from_json
from dbecurves.hausdorff import upper_bound_h1
from dbecurves.oracle import riesz_value

from workloads import Op


class CheckFailed(Exception):
    """An operation's output broke one of its invariants."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _reaches(length: Fraction, n: int) -> bool:
    """length >= sqrt(n - 1), the chord from the curve's start to its end."""
    return length >= 0 and length * length >= n - 1


def _check_certify(op: Op, body: dict) -> Fraction:
    upper = Fraction(body["upper"])
    lower = Fraction(body["lower"])
    radius = Fraction(body["error_radius"])
    _require(upper == op.n - 1, f"upper {upper} != n - 1")
    _require(body["depth"] == op.lo, "certificate depth differs from the request")
    _require(radius >= 0, "negative error radius")
    _require(lower - radius <= upper, "lower - radius above upper")
    _require(_reaches(lower + radius, op.n), "lower + radius below sqrt(n - 1)")
    return upper - (lower - radius)


def _check_dbe(op: Op, body: dict) -> None:
    points = (1 << op.lo) + 1
    _require(body["ok"] is True and body["violations"] == [], "dbe check not ok")
    _require(body["n"] == op.n and body["depth"] == op.lo, "dbe echo mismatch")
    _require(body["pair_count"] == points * (points - 1) // 2, "wrong pair_count")


def _check_negative(op: Op, body: dict) -> None:
    _require(body["ok"] is False and len(body["violations"]) > 0,
             "negative control reported ok")


def _rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and rows[0] == header, f"CSV header is not {header}")
    return rows[1:]


def _check_boxcount(op: Op, text: str) -> None:
    rows = _rows(text, ["m", "count"])
    ms = [int(m) for m, _ in rows]
    counts = [int(c) for _, c in rows]
    _require(ms == list(range(op.lo, op.hi + 1)), "box-count resolutions differ")
    _require(all(c >= 1 << m for m, c in zip(ms, counts)), "count below 2^m")
    _require(all(c1 <= c2 for c1, c2 in zip(counts, counts[1:])),
             "counts decrease as m grows")


def _check_samples(op: Op, text: str) -> None:
    rows = _rows(text, [f"x{i}" for i in range(1, op.n + 1)])
    scale = 1 << op.lo
    _require(len(rows) == scale + 1, "wrong sample count")
    pts = [[Fraction(c) for c in row] for row in rows]
    _require(all(p[0] == Fraction(k, scale) for k, p in enumerate(pts)),
             "rows are not the dyadic x grid in order")
    _require(all(0 <= c <= 1 for p in pts for c in p), "value outside [0,1]")
    _require(all(p[-1] == op.alpha for p in pts), "last coordinate is not alpha")
    for k in op.extra["probes"]:
        _require(pts[k][1] == riesz_value(op.a, pts[k][0]),
                 f"R_a differs from the oracle at x = {pts[k][0]}")


def _check_series(op: Op, text: str) -> Fraction:
    rows = _rows(text, ["depth", "value", "error_radius"])
    _require([int(r[0]) for r in rows] == list(range(op.lo, op.hi + 1)),
             "series depths differ")
    upper = Fraction(op.n - 1)
    for _, value, radius in rows:
        value, radius = Fraction(value), Fraction(radius)
        _require(value - radius <= upper, "series value above n - 1")
        _require(_reaches(value + radius, op.n), "series value below sqrt(n - 1)")
    value, radius = Fraction(rows[-1][1]), Fraction(rows[-1][2])
    return upper - (value - radius)


def _check_construct(op: Op, body: dict) -> Fraction:
    curve = curve_from_json(body)
    _require(curve.n == op.n and curve.M == op.lo, "construct echo mismatch")
    _require(upper_bound_h1(curve) == op.n - 1, "upper bound is not n - 1")
    # The certified shortfall of the mapper images: 1 - image_lower_bound each.
    return sum((1 - Fraction(m["image_lower_bound"]) for m in body["mappers"]),
               Fraction(0))


def _check_lemmas(op: Op, body: dict) -> None:
    _require(body["trials"] == op.lo and body["seed"] == op.extra["seed"],
             "lemma echo mismatch")
    _require(body["ok"] is True and not any(body["violations"].values()),
             "lemma violations")


def check(op: Op, rc, out: str) -> Fraction | None:
    """Check one operation's exit code and stdout; return its gap or None."""
    _require(rc == op.expect_rc, f"exit code {rc}, expected {op.expect_rc}")
    try:
        if op.kind == "certify":
            return _check_certify(op, json.loads(out))
        if op.kind == "dbe":
            return _check_dbe(op, json.loads(out))
        if op.kind == "dbe-negative":
            return _check_negative(op, json.loads(out))
        if op.kind == "boxcount":
            return _check_boxcount(op, out)
        if op.kind == "samples":
            return _check_samples(op, out)
        if op.kind == "length-series":
            return _check_series(op, out)
        if op.kind == "construct":
            return _check_construct(op, json.loads(out))
        if op.kind == "lemmas":
            return _check_lemmas(op, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from exc
    raise CheckFailed(f"no check for kind {op.kind!r}")
