"""Exact rational interval arithmetic.

Everything in this module is computed over `fractions.Fraction`; no floats
enter or leave.  Intervals carry open/closed flags on each endpoint so that
set subtraction is exact: ``[0,1] - [1/4,3/4]`` really is ``[0,1/4) u (3/4,1]``.

The endpoint bookkeeping uses "cuts": a cut is a pair ``(value, side)`` with
``side`` in ``{-1, 0, +1}`` meaning just-below / at / just-above the value.
Cuts compare lexicographically, which turns all the open/closed case analysis
into ordinary comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(s: str) -> Fraction:
    """Parse 'p/q' (or a plain integer string 'p') into a Fraction."""
    if type(s) is not str:
        raise ValueError(f"expected a rational string 'p/q', got {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {s!r}") from None


# What an error message calls one value, and a list of values, of each shape
_SHAPE_NAMES = {dict: ("a JSON object", "JSON objects"), list: ("a list", "lists"),
                int: ("an integer", "integers"), tuple: ("an [x, y] pair", "[x, y] pairs"),
                Fraction: ("a rational string", "rational strings")}


def _spec_key(obj: dict, key: str, shape=None):
    """obj[key] if it has the JSON shape `shape`, else ValueError naming the key.

    A shape is None (any value), dict, list, int, Fraction (a rational string,
    returned as a Fraction), a pair (s, t) or a list [s] of values of shape s.
    """
    def read(value, shape):
        if shape is Fraction:
            return parse_rational(value)
        if (type(shape) in (list, tuple) and type(value) is list
                and len(shape) in (1, len(value))):  # [s]: any length; (s, t): two
            return [read(v, s) for v, s in zip(value, shape * len(value))]
        if shape not in (None, type(value)):  # a bool is not an int here
            raise ValueError
        return value

    def name(shape, many=False):
        if type(shape) is list:
            return ("lists of " if many else "a list of ") + name(shape[0], True)
        return _SHAPE_NAMES[tuple if type(shape) is tuple else shape][many]

    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    try:
        return read(obj[key], shape)
    except ValueError:
        raise ValueError(f"key {key!r} is not {name(shape)}") from None


def format_rational(x: Fraction) -> str:
    """Format a Fraction as 'p/q', always including the denominator."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def decimal_str(x: Fraction) -> str:
    """Exact decimal string for a Fraction whose denominator is 2^a * 5^b.

    Values produced by the dyadic sqrt enclosures always qualify.  Raises
    ValueError for denominators with other prime factors rather than round.
    """
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    twos = (den & -den).bit_length() - 1  # the factors of two, read off the low bits
    den >>= twos
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{x} has no terminating decimal expansion")
    digits = max(twos, fives)
    # 10^digits / den is 2^(digits - twos) * 5^(digits - fives): no division
    scaled = num * 5 ** (digits - fives) << (digits - twos)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    if digits == 0:
        return f"{sign}{scaled}"
    text = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


# -- cuts ------------------------------------------------------------------

_BELOW, _AT, _ABOVE = -1, 0, 1

Cut = tuple[Fraction, int]


def _start_cut(iv: "Interval") -> Cut:
    return (iv.lo, _AT if iv.lo_closed else _ABOVE)


def _end_cut(iv: "Interval") -> Cut:
    return (iv.hi, _AT if iv.hi_closed else _BELOW)


def _pred(c: Cut) -> Cut:
    """The cut immediately before c (used when removing a left endpoint)."""
    v, s = c
    if s == _ABOVE:
        return (v, _AT)
    if s == _AT:
        return (v, _BELOW)
    raise ValueError("no predecessor below an open lower cut")


def _succ(c: Cut) -> Cut:
    v, s = c
    if s == _BELOW:
        return (v, _AT)
    if s == _AT:
        return (v, _ABOVE)
    raise ValueError("no successor above an open upper cut")


def _gap_between(end: Cut, start: Cut) -> bool:
    """True if there is room between an end cut and the next start cut.

    Touching counts as no gap: [0,1/2) followed by [1/2,1] merges, while
    [0,1/2) followed by (1/2,1] leaves the single point 1/2 out.
    """
    if end[0] != start[0]:
        return end[0] < start[0]
    return end[1] == _BELOW and start[1] == _ABOVE


@dataclass(frozen=True)
class Interval:
    """A single interval with rational endpoints and open/closed flags."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self}")

    @classmethod
    def closed(cls, lo, hi) -> "Interval":
        return cls(Fraction(lo), Fraction(hi))

    @classmethod
    def _from_cuts(cls, start: Cut, end: Cut) -> "Interval":
        return cls(start[0], end[0], start[1] == _AT, end[1] == _AT)

    @property
    def is_empty(self) -> bool:
        return _start_cut(self) > _end_cut(self)

    @property
    def diam(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = Fraction(x)
        return _start_cut(self) <= (x, _AT) <= _end_cut(self)

    def intersect(self, other: "Interval") -> "Interval | None":
        start = max(_start_cut(self), _start_cut(other))
        end = min(_end_cut(self), _end_cut(other))
        if start > end:
            return None
        return Interval._from_cuts(start, end)

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo},{self.hi}{right}"

    def to_json(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }


def _merge(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    """Merge overlapping or touching intervals, given nonempty and in start order."""
    out: list[Interval] = []
    for iv in intervals:
        if out and not _gap_between(_end_cut(out[-1]), _start_cut(iv)):
            last = out[-1]
            if _end_cut(iv) > _end_cut(last):
                out[-1] = Interval._from_cuts(_start_cut(last), _end_cut(iv))
        else:
            out.append(iv)
    return tuple(out)


def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    """Drop empties, sort, and merge overlapping or touching intervals."""
    return _merge(sorted((iv for iv in intervals if not iv.is_empty),
                         key=lambda iv: (_start_cut(iv), _end_cut(iv))))


class IntervalUnion:
    """A finite union of intervals, kept in canonical form.

    Canonical form: components sorted left to right, pairwise disjoint, and
    no two mergeable into one.  All constructors normalize, so two unions
    describing the same point set compare equal.
    """

    __slots__ = ("components",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        object.__setattr__(self, "components", _normalize(intervals))

    def __setattr__(self, name, value):
        raise AttributeError("IntervalUnion is immutable")

    @classmethod
    def _canonical(cls, components: tuple[Interval, ...]) -> "IntervalUnion":
        """Wrap components already in canonical form, skipping the sort."""
        u = cls.__new__(cls)
        object.__setattr__(u, "components", components)
        return u

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def closed(cls, lo, hi) -> "IntervalUnion":
        return cls((Interval.closed(lo, hi),))

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def inf(self) -> Fraction:
        if self.is_empty:
            raise ValueError("empty union has no inf")
        return self.components[0].lo

    @property
    def sup(self) -> Fraction:
        if self.is_empty:
            raise ValueError("empty union has no sup")
        return self.components[-1].hi

    @property
    def diam(self) -> Fraction:
        """sup - inf (0 for the empty union)."""
        if self.is_empty:
            return ZERO
        return self.sup - self.inf

    def measure(self) -> Fraction:
        """Lebesgue measure: sum of component lengths."""
        return sum((iv.diam for iv in self.components), ZERO)

    def contains(self, x) -> bool:
        x = Fraction(x)
        return any(iv.contains(x) for iv in self.components)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        """self or other: both component lists, normalized as one."""
        return IntervalUnion(self.components + other.components)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        """self and other, in one two-pointer pass over both lists.

        Each piece is a component of self met with a component of other, so
        a gap of self or of other lies between two pieces: they come out
        canonical.
        """
        out = []
        a, b = self.components, other.components
        i = j = 0
        while i < len(a) and j < len(b):
            piece = a[i].intersect(b[j])
            if piece is not None:
                out.append(piece)
            if _end_cut(a[i]) <= _end_cut(b[j]):
                i += 1
            else:
                j += 1
        return IntervalUnion._canonical(tuple(out))

    def subtract(self, other: "IntervalUnion") -> "IntervalUnion":
        """self minus other, in one left-to-right pass over both lists.

        Both component lists are canonical, so each piece of self meets a
        contiguous run of other's components; a component of other may reach
        across several pieces, so the pointer only skips the ones that end
        before the current piece starts.  The pieces come out canonical:
        between two of them lies a gap of self or a component of other.
        """
        out: list[Interval] = []
        b = other.components
        j = 0
        for p in self.components:
            start, end = _start_cut(p), _end_cut(p)
            while j < len(b) and _end_cut(b[j]) < start:
                j += 1
            k = j
            while start is not None and k < len(b):
                bs, be = _start_cut(b[k]), _end_cut(b[k])
                if end < bs:
                    break
                if start < bs:
                    out.append(Interval._from_cuts(start, _pred(bs)))
                start = _succ(be) if be < end else None
                k += 1
            if start is not None:
                out.append(Interval._from_cuts(start, end))
        return IntervalUnion._canonical(tuple(out))

    __or__ = union
    __and__ = intersect
    __sub__ = subtract

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalUnion) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return " u ".join(str(iv) for iv in self.components)

    def __repr__(self) -> str:
        return f"IntervalUnion({self})"

    def to_json(self) -> list:
        return [iv.to_json() for iv in self.components]
