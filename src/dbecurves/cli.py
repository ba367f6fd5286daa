"""Command-line interface: construct, certify, verify, emit.

All numeric inputs accept exact "p/q" rational syntax.  Outputs are
deterministic: JSON with sorted keys, CSV with a header row, '.' decimals
and ',' separators.  Exit codes: 0 all checks passed, 1 verification or
evaluation failure, 2 usage error.  Every bad curve flag exits 2 with the
message of `build_extremal_curve`; a bad key of a `--spec` file exits 1.
The builder refuses over 4096 leaf cells, and a weight so near 0 or 1 that
leaf ends would lie over 2^14000 at its M and staircase depth.
`--precision` sets the square-root precision in bits (minimum 32).

`certify`, `verify --dbe` and `emit --samples` take one depth `--d`, and
`emit --length-series` a range.  A request to evaluate over 2^20 curve
points, or over 4 * 2^20 component column entries ((n - 2) * 2^depth, so
n >= 7 is refused at depth 20), exits 2 before any is evaluated, and so
does a request that reads whole columns past 2^29 estimated column bits
(2^depth * depth * bits(q) summed over every R_a, a = p/q, in the
components' function trees, which is (n - 2) * 2^depth * depth * bits(q)
on an extremal curve; n = 3 at a huge q is refused far below depth 20).
That covers every sample, and the lengths of generic specs.  `certify`
and `--length-series` on an extremal curve with n >= 4 read no
column, and on a curve with a collapsed length sum (n = 3, or one R_a)
they take instead a budget of 2^40 bit operations over all their depths.
A length whose precision + depth passes 4096 bits could not be printed, so
`certify` and `--length-series` exit 2 on such a request before any work,
and `emit --samples` exits 1 on values past CPython's printable digits.
`verify --lemmas` runs at most 100000 trials.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .curves import (
    ExtremalCurve,
    _columns,
    build_extremal_curve,
    check_dbe_property,
    curve_from_json,
    curve_to_json,
)
from .exact import decimal_str, format_rational, parse_rational
from .hausdorff import _is_collapsible, box_counts, certify_h1, polyline_length
from .setfamily import max_family_size, near_pencil, unique_intersection
from .singular import Composition, ConstructionError, NotEvaluableError, RieszNagy, WeightedSum
from .trials import run_all

SCHEMA_VERSION = 1

_MIN_PRECISION = 32
# a depth-d sample holds 2^d + 1 points, and time and memory double per
# level.  The sample budgets bound verify --dbe, emit --samples and --boxcount,
# and certify on generic specs; at depth 20 and n = 4, verify --dbe takes 1.0 s
# and 0.34 GB, emit --samples 1.1 s and 0.59 GB, and certify with a Cantor
# component 3.0 s and 0.20 GB.  certify on an extremal curve reads no column:
# n = 4 takes 0.04 s at a = 1/4 and 0.13-0.24 s at a = 3/8, both in 0.02 GB
# (2 vCPUs, x86_64).
_MAX_SAMPLE_DEPTH = 20
# and n - 2 component columns of 2^d + 1 integers each; n = 6 at depth 20 is
# the largest request this admits
_MAX_COLUMN_ENTRIES = 4 << 20
# each R_a in a component's function tree holds depth-d values over q^d, a = p/q,
# so the columns take about 2^d * d * bits(q) bits summed over every R_a, and an
# extremal curve's n - 2 columns about (n - 2) * 2^d * d * bits(q).  At the
# budget, verify --dbe --n 3 takes 4.3 s and 92 MB at a = 1/(10^3000 + 1), depth
# 12, and 3.8 s and 101 MB at a = 1/(10^1500 + 7), depth 13; n = 6 at depth 20
# passes for every q < 64 (3.9 s and 0.47 GB at a = 1/63).  A generic spec of
# that R_a and an affine component is refused from depth 13; certify took 5.3 s
# and 93 MB at depth 12 (2 vCPUs, x86_64)
_MAX_COLUMN_BITS = 1 << 29
# a lemmas trial runs each of the four suites once, about 2 ms (2 vCPUs,
# x86_64), so the largest batch takes a few minutes
_MAX_TRIALS = 100_000
# a length at precision + depth = b bits prints about b + 1 decimal digits,
# and CPython refuses to print an integer of over 4300 digits
_MAX_LENGTH_BITS = 4096
# the collapsed length at depth d is costed as d + 1 divisions of m = 2d(k + 1) + 2b
# bits, k the bits of q in a = p/q, each in about m(8 sqrt(m) + b) bit operations
# (the sum cancels its 4^d, so this overcounts); at the budget a fresh process takes
# 0.13 s (certify --d 4032, a = 1/4), 0.33 s (--length-series --d 1..658 at 1/4),
# 0.11 s (certify --d 94 with a 6644-bit q) and 0.21 s (certify --d 215 at
# a = 1/(10^500 + 3)), 2 vCPUs, x86_64
_MAX_COLLAPSED_WORK = 1 << 40


class UsageError(ValueError):
    """Bad parameter combination; maps to exit code 2."""


def parse_range(text: str) -> list[int]:
    """Parse '4..10' into [4, ..., 10] and '8' into [8]."""
    text = text.strip()
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if sep else lo_s)
    except ValueError as exc:
        raise UsageError(f"range must be an integer or 'lo..hi', got {text!r}") from exc
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _check(args: argparse.Namespace) -> None:
    """Parse `--d` and `--m` into lists in place and refuse bad parameters.

    A flag the subcommand does not have is absent from `args` and passes.
    """
    for flag in ("d", "m"):
        if flag in args:
            setattr(args, flag, parse_range(getattr(args, flag)))
    if any(d < 0 for d in getattr(args, "d", ())):
        raise UsageError("depths must be >= 0")
    if any(m < 0 for m in getattr(args, "m", ())):
        raise UsageError("box-count resolutions must be >= 0")
    if "precision" in args and args.precision < _MIN_PRECISION:
        raise UsageError(f"precision must be >= {_MIN_PRECISION} bits")
    one_depth = (args.command == "certify" or getattr(args, "dbe", False)
                 or getattr(args, "samples", False))
    if "trials" in args and args.trials < 1:
        raise UsageError("trials must be >= 1")
    if "trials" in args and args.trials > _MAX_TRIALS:
        raise UsageError(f"trials {args.trials} is over the budget of {_MAX_TRIALS}")
    if one_depth and len(args.d) > 1:
        raise UsageError("--d must be one depth for certify, verify --dbe "
                         "and emit --samples")
    if args.command == "certify" or getattr(args, "length_series", False):
        bits = args.precision + max(args.d)
        if bits > _MAX_LENGTH_BITS:
            raise UsageError(f"precision + depth is {bits}, over the limit of "
                             f"{_MAX_LENGTH_BITS} bits for printed lengths")


def _check_length_depths(depths, curve, precision: int) -> None:
    """Refuse lengths past their budgets: a collapsed sum (n = 3, or one R_a)
    by its work summed over the depths, any other by its deepest sample.  An
    extremal curve's lengths read no column, so its sample budgets count
    points and entries but no column bits."""
    if not _is_collapsible(curve):
        return _check_sample_depth(max(depths), curve,
                                   whole_columns=not isinstance(curve, ExtremalCurve))
    q_bits = curve.components[0].a.denominator.bit_length() + 1
    work = sum((d + 1) * (m := 2 * d * q_bits + 2 * (precision + d))
               * (8 * math.isqrt(m) + precision + d) for d in depths)
    if work > _MAX_COLLAPSED_WORK:
        raise UsageError(f"collapsed lengths to depth {max(depths)} take {work:.1e} bit "
                         f"operations, over the budget of {_MAX_COLLAPSED_WORK:.1e}")


def _riesz_bits(f) -> int:
    """The bits of q summed over every R_a, a = p/q, in f's function tree."""
    if isinstance(f, RieszNagy):
        return f.a.denominator.bit_length()
    if isinstance(f, Composition):
        return _riesz_bits(f.outer) + _riesz_bits(f.inner)
    if isinstance(f, WeightedSum):
        return sum(map(_riesz_bits, f.terms))
    return 0


def _check_sample_depth(depth: int, curve, whole_columns: bool = True) -> None:
    """Refuse 2^depth curve points or (n - 2) * 2^depth column entries past
    their budgets, and whole columns past their estimated bits."""
    if depth > _MAX_SAMPLE_DEPTH:
        raise UsageError(f"sample depth {depth} is over the budget of "
                         f"{_MAX_SAMPLE_DEPTH} (2^depth curve points)")
    entries = len(curve.components) << depth
    if entries > _MAX_COLUMN_ENTRIES:
        raise UsageError(f"{len(curve.components)} columns at sample depth {depth} "
                         f"are {entries} entries, over the budget of "
                         f"{_MAX_COLUMN_ENTRIES}")
    q_bits = sum(map(_riesz_bits, curve.components)) if whole_columns else 0
    if (bits := (depth << depth) * q_bits) > _MAX_COLUMN_BITS:
        raise UsageError(f"{len(curve.components)} columns at sample depth {depth} "
                         f"over R_a denominators of {q_bits} bits in all are about "
                         f"{bits:.1e} bits, over the budget of {_MAX_COLUMN_BITS:.1e}")


def _write(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _load_curve(args: argparse.Namespace):
    path = getattr(args, "spec_path", None)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            # json raises RecursionError on input nested about 1000 deep
            return curve_from_json(json.loads(text))
        except (RecursionError, LookupError, TypeError, AttributeError,
                ValueError, ConstructionError) as exc:
            raise ValueError(f"malformed curve spec {path}: "
                             f"{type(exc).__name__}: {exc}") from exc
    given = {k: getattr(args, k) for k in ("a", "M", "alpha", "staircase_depth") if k in args}
    try:
        return build_extremal_curve(args.n, **given)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_construct(args: argparse.Namespace) -> int:
    _write(_json_text(curve_to_json(_load_curve(args))), args.out)
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    curve = _load_curve(args)
    _check_length_depths(args.d, curve, args.precision)
    _write(_json_text(certify_h1(curve, args.d[0], args.precision).to_json()), args.out)
    return 0


def _verify_dbe(args: argparse.Namespace) -> tuple[dict, bool]:
    curve = _load_curve(args)
    depth = args.d[0]
    _check_sample_depth(depth, curve)
    # rows (k, numerators..., 0): each column has one denominator and alpha
    # is constant, so equal integers are equal coordinates
    size = (1 << depth) + 1
    report = check_dbe_property(zip(range(size), *(nums for _, nums in _columns(curve, depth)),
                                    [0] * size))
    body = {"suite": "dbe", "n": curve.n, "depth": depth,
            "pair_count": report.pair_count,
            "violations": [list(v) for v in report.violations], "ok": report.ok}
    return body, report.ok


def _verify_family(args: argparse.Namespace) -> tuple[dict, bool]:
    if not 2 <= args.n <= 5:
        raise UsageError("family search supports n in 2..5")
    size = max_family_size(args.n)
    ok = size == args.n
    body = {"suite": "family", "n": args.n, "max_family_size": size,
            "expected": args.n, "ok": ok}
    if args.n >= 3:
        pencil = near_pencil(args.n)
        pencil_ok = unique_intersection(pencil) and len(pencil) == size
        body["near_pencil_attains"] = pencil_ok
        ok = ok and pencil_ok
        body["ok"] = ok
    return body, ok


def _verify_lemmas(args: argparse.Namespace) -> tuple[dict, bool]:
    counts = run_all(args.trials, args.seed)
    ok = not any(counts.values())
    body = {"suite": "lemmas", "trials": args.trials, "seed": args.seed,
            "violations": counts, "ok": ok}
    return body, ok


def cmd_verify(args: argparse.Namespace) -> int:
    suite = _verify_dbe if args.dbe else _verify_family if args.family else _verify_lemmas
    body, ok = suite(args)
    body["schema_version"] = SCHEMA_VERSION
    _write(_json_text(body), args.out)
    return 0 if ok else 1


def _rational_strs(den: int, nums) -> list[str]:
    """format_rational(v / den) for each integer v of nums."""
    out = []
    for v in nums:
        g = math.gcd(v, den)
        out.append(f"{v // g}/{den // g}")
    return out


def _csv(header: list[str], rows) -> str:
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def cmd_emit(args: argparse.Namespace) -> int:
    curve = _load_curve(args)
    if args.samples:
        depth = args.d[0]
        _check_sample_depth(depth, curve)
        header = [f"x{i}" for i in range(1, curve.n + 1)]
        xs = _rational_strs(1 << depth, range((1 << depth) + 1))
        columns = _columns(curve, depth)
        try:
            texts = [_rational_strs(den, nums) for den, nums in columns]
        except ValueError as exc:  # an integer past CPython's printable digits
            raise ValueError(f"sample values at depth {depth} pass the limit of "
                             f"{sys.get_int_max_str_digits()} printed digits") from exc
        rows = zip(xs, *texts, [format_rational(curve.alpha)] * len(xs))
    elif args.length_series:
        _check_length_depths(args.d, curve, args.precision)
        header = ["depth", "value", "error_radius"]
        rows = []
        for d in args.d:
            value, radius = polyline_length(curve, d, args.precision)
            rows.append([str(d), decimal_str(value), decimal_str(radius)])
    else:
        _check_sample_depth(max(args.m) + 2, curve)
        header = ["m", "count"]
        rows = [[str(m), str(bc.count)]
                for m, bc in zip(args.m, box_counts(curve, args.m))]
    _write(_csv(header, rows), args.out)
    return 0


def _add_curve_args(sp: argparse.ArgumentParser) -> None:
    """The curve flags; an unset flag other than --n takes the builder's default."""
    sp.add_argument("--n", type=int, default=3, help="ambient dimension (>= 3)")
    sp.add_argument("--a", type=parse_rational, default=argparse.SUPPRESS,
                    help="Riesz-Nagy weight as p/q, not 1/2")
    sp.add_argument("--M", type=int, default=argparse.SUPPRESS,
                    help="full-measure mapper truncation level")
    sp.add_argument("--alpha", type=parse_rational, default=argparse.SUPPRESS,
                    help="constant last coordinate as p/q")
    sp.add_argument("--staircase-depth", type=int, default=argparse.SUPPRESS,
                    dest="staircase_depth", help="staircase tree depth per mapper term")


def _add_suites(sp: argparse.ArgumentParser, *suites: tuple[str, str]) -> None:
    """One required suite flag of `suites`, then the curve flags and --spec."""
    group = sp.add_mutually_exclusive_group(required=True)
    for flag, help_text in suites:
        group.add_argument(flag, action="store_true", help=help_text)
    _add_curve_args(sp)
    sp.add_argument("--spec", dest="spec_path", help="curve spec JSON to load")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="dbecurves",
        description="Construct and certify piecewise-monotone curves whose "
                    "points pairwise agree in exactly one coordinate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = {"help": "output path (default stdout)"}
    precision = {"type": int, "default": 64, "help": "sqrt bits (>= 32)"}
    sample_depth = "8"

    sp = sub.add_parser("construct", help="build a curve and print its JSON spec")
    sp.set_defaults(run=cmd_construct)
    _add_curve_args(sp)
    sp.add_argument("--out", **out)

    sp = sub.add_parser("certify", help="two-sided H1 certificate as JSON")
    sp.set_defaults(run=cmd_certify)
    _add_curve_args(sp)
    sp.add_argument("--spec", dest="spec_path", help="curve spec JSON to load")
    sp.add_argument("--d", default="10", help="polyline depth")
    sp.add_argument("--precision", **precision)
    sp.add_argument("--out", **out)

    sp = sub.add_parser("verify", help="run a verification suite, JSON report")
    sp.set_defaults(run=cmd_verify)
    _add_suites(sp, ("--dbe", "pairwise shared-coordinate check on curve samples"),
                ("--family", "exhaustive unique-intersection family search"),
                ("--lemmas", "randomized exact inequality suites"))
    sp.add_argument("--d", default=sample_depth, help="sample depth for --dbe")
    sp.add_argument("--trials", type=int, default=500,
                    help=f"trials for --lemmas (at most {_MAX_TRIALS})")
    sp.add_argument("--seed", type=int, default=0, help="seed for --lemmas")
    sp.add_argument("--out", **out)

    sp = sub.add_parser("emit", help="CSV data for external plotting")
    sp.set_defaults(run=cmd_emit)
    _add_suites(sp, ("--samples", "exact curve points, one row per sample"),
                ("--length-series", "polyline length by depth"),
                ("--boxcount", "grid box counts by resolution"))
    sp.add_argument("--d", default=sample_depth,
                    help="depth or depth range, e.g. 8 or 1..14")
    sp.add_argument("--m", default="4..10", help="box-count resolution range")
    sp.add_argument("--precision", **precision)
    sp.add_argument("--out", **out)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check(args)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotEvaluableError, ConstructionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
