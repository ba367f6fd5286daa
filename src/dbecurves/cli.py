"""Command-line interface: construct, certify, verify, emit.

All numeric inputs accept exact "p/q" rational syntax.  Outputs are
deterministic: JSON with sorted keys, CSV with a header row, '.' decimals
and ',' separators.  Exit codes: 0 all checks passed, 1 verification or
evaluation failure, 2 usage error.  `--precision` sets the square-root
precision in bits (default 64, minimum 32).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .curves import (
    build_extremal_curve,
    check_dbe_property,
    curve_from_json,
    curve_to_json,
    sample,
)
from .exact import decimal_str, format_rational, parse_rational
from .hausdorff import box_counts, certify_h1, polyline_length
from .setfamily import max_family_size, near_pencil, unique_intersection
from .singular import ConstructionError, NotEvaluableError
from .trials import run_all

SCHEMA_VERSION = 1

_DEFAULT_PRECISION = 64
_MIN_PRECISION = 32
# each mapper term builds 2^depth leaf cells and the spec JSON doubles per
# level; depth 8 already takes seconds, so larger depths are refused up front
_MAX_STAIRCASE_DEPTH = 7


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


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI invocation."""

    command: str
    n: int = 3
    a: Fraction = Fraction(1, 4)
    M: int = 4
    alpha: Fraction = Fraction(1, 2)
    staircase_depth: int = 2
    depths: tuple[int, ...] = (8,)
    m_range: tuple[int, ...] = tuple(range(4, 11))
    precision: int = _DEFAULT_PRECISION
    trials: int = 500
    seed: int = 0
    suite: str | None = None
    emit_kind: str | None = None
    spec_path: str | None = None
    out: str | None = None

    def __post_init__(self):
        if any(d < 0 for d in self.depths):
            raise UsageError("depths must be >= 0")
        if any(m < 0 for m in self.m_range):
            raise UsageError("box-count resolutions must be >= 0")
        if self.precision < _MIN_PRECISION:
            raise UsageError(f"precision must be >= {_MIN_PRECISION} bits")
        needs_curve = self.command in ("construct", "certify", "emit")
        if needs_curve and self.spec_path is None and self.n < 3:
            raise UsageError("curve construction needs n >= 3")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if self.M < 1:
            raise UsageError("M must be >= 1")
        if not 0 <= self.staircase_depth <= _MAX_STAIRCASE_DEPTH:
            raise UsageError(f"staircase depth must be in 0..{_MAX_STAIRCASE_DEPTH}")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _load_curve(cfg: RunConfig):
    if cfg.spec_path is not None:
        with open(cfg.spec_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            # json raises RecursionError on input nested about 1000 deep
            return curve_from_json(json.loads(text))
        except (RecursionError, KeyError, TypeError, AttributeError,
                ValueError) as exc:
            raise ValueError(f"malformed curve spec {cfg.spec_path}: "
                             f"{type(exc).__name__}: {exc}") from exc
    return build_extremal_curve(cfg.n, cfg.a, cfg.M, cfg.alpha, cfg.staircase_depth)


def cmd_construct(cfg: RunConfig) -> int:
    curve = _load_curve(cfg)
    _write(_json_text(curve_to_json(curve)), cfg.out)
    return 0


def cmd_certify(cfg: RunConfig) -> int:
    curve = _load_curve(cfg)
    depth = cfg.depths[-1]
    try:
        cert = certify_h1(curve, depth, cfg.precision)
    except ValueError as exc:
        _write(_json_text({"schema_version": SCHEMA_VERSION, "ok": False,
                           "error": str(exc)}), cfg.out)
        return 1
    _write(_json_text(cert.to_json()), cfg.out)
    return 0


def _verify_dbe(cfg: RunConfig) -> tuple[dict, bool]:
    curve = _load_curve(cfg)
    depth = cfg.depths[-1]
    report = check_dbe_property(sample(curve, depth))
    body = {
        "suite": "dbe",
        "n": curve.n,
        "depth": depth,
        "pair_count": report.pair_count,
        "violations": [list(v) for v in report.violations],
        "ok": report.ok,
    }
    return body, report.ok

def _verify_family(cfg: RunConfig) -> tuple[dict, bool]:
    if not 2 <= cfg.n <= 5:
        raise UsageError("family search supports n in 2..5")
    size = max_family_size(cfg.n)
    ok = size == cfg.n
    body = {"suite": "family", "n": cfg.n, "max_family_size": size,
            "expected": cfg.n, "ok": ok}
    if cfg.n >= 3:
        pencil = near_pencil(cfg.n)
        pencil_ok = unique_intersection(pencil) and len(pencil) == size
        body["near_pencil_attains"] = pencil_ok
        ok = ok and pencil_ok
        body["ok"] = ok
    return body, ok


def _verify_lemmas(cfg: RunConfig) -> tuple[dict, bool]:
    counts = run_all(cfg.trials, cfg.seed)
    ok = not any(counts.values())
    body = {"suite": "lemmas", "trials": cfg.trials, "seed": cfg.seed,
            "violations": counts, "ok": ok}
    return body, ok


def cmd_verify(cfg: RunConfig) -> int:
    runner = {"dbe": _verify_dbe, "family": _verify_family,
              "lemmas": _verify_lemmas}[cfg.suite]
    body, ok = runner(cfg)
    body["schema_version"] = SCHEMA_VERSION
    _write(_json_text(body), cfg.out)
    return 0 if ok else 1


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_emit(cfg: RunConfig) -> int:
    curve = _load_curve(cfg)
    if cfg.emit_kind == "samples":
        depth = cfg.depths[-1]
        pts = sample(curve, depth)
        header = [f"x{i}" for i in range(1, curve.n + 1)]
        rows = [[format_rational(c) for c in p] for p in pts]
    elif cfg.emit_kind == "length-series":
        header = ["depth", "value", "error_radius"]
        rows = []
        for d in cfg.depths:
            value, radius = polyline_length(curve, d, cfg.precision)
            rows.append([str(d), decimal_str(value), decimal_str(radius)])
    elif cfg.emit_kind == "boxcount":
        header = ["m", "count"]
        rows = [[str(m), str(bc.count)]
                for m, bc in zip(cfg.m_range, box_counts(curve, cfg.m_range))]
    else:
        raise UsageError("emit needs one of --samples, --length-series, --boxcount")
    _write(_csv(header, rows), cfg.out)
    return 0


def _add_curve_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, default=3, help="ambient dimension (>= 3)")
    sp.add_argument("--a", type=parse_rational, default=Fraction(1, 4),
                    help="Riesz-Nagy weight as p/q, not 1/2")
    sp.add_argument("--M", type=int, default=4,
                    help="full-measure mapper truncation level")
    sp.add_argument("--alpha", type=parse_rational, default=Fraction(1, 2),
                    help="constant last coordinate as p/q")
    sp.add_argument("--staircase-depth", type=int, default=2,
                    dest="staircase_depth", help="staircase tree depth per mapper term")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbecurves",
        description="Construct and certify piecewise-monotone curves whose "
                    "points pairwise agree in exactly one coordinate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="build a curve and print its JSON spec")
    _add_curve_args(sp)
    sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("certify", help="two-sided H1 certificate as JSON")
    _add_curve_args(sp)
    sp.add_argument("--spec", dest="spec_path", help="curve spec JSON to load")
    sp.add_argument("--d", default="10", help="polyline depth")
    sp.add_argument("--precision", type=int, default=_DEFAULT_PRECISION,
                    help="sqrt bits (>= 32)")
    sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("verify", help="run a verification suite, JSON report")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--dbe", action="store_true",
                       help="pairwise shared-coordinate check on curve samples")
    group.add_argument("--family", action="store_true",
                       help="exhaustive unique-intersection family search")
    group.add_argument("--lemmas", action="store_true",
                       help="randomized exact inequality suites")
    _add_curve_args(sp)
    sp.add_argument("--spec", dest="spec_path", help="curve spec JSON to load")
    sp.add_argument("--d", default="8", help="sample depth for --dbe")
    sp.add_argument("--trials", type=int, default=500, help="trials for --lemmas")
    sp.add_argument("--seed", type=int, default=0, help="seed for --lemmas")
    sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("emit", help="CSV data for external plotting")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--samples", action="store_true",
                       help="exact curve points, one row per sample")
    group.add_argument("--length-series", action="store_true", dest="length_series",
                       help="polyline length by depth")
    group.add_argument("--boxcount", action="store_true",
                       help="grid box counts by resolution")
    _add_curve_args(sp)
    sp.add_argument("--spec", dest="spec_path", help="curve spec JSON to load")
    sp.add_argument("--d", default="8", help="depth or depth range, e.g. 8 or 1..14")
    sp.add_argument("--m", default="4..10", help="box-count resolution range")
    sp.add_argument("--precision", type=int, default=_DEFAULT_PRECISION,
                    help="sqrt bits (>= 32)")
    sp.add_argument("--out", help="output path (default stdout)")

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    emit_kind = None
    if args.command == "emit":
        if args.samples:
            emit_kind = "samples"
        elif args.length_series:
            emit_kind = "length-series"
        else:
            emit_kind = "boxcount"
    suite = None
    if args.command == "verify":
        suite = "dbe" if args.dbe else ("family" if args.family else "lemmas")
    return RunConfig(
        command=args.command,
        n=args.n,
        a=args.a,
        M=args.M,
        alpha=args.alpha,
        staircase_depth=args.staircase_depth,
        depths=tuple(parse_range(getattr(args, "d", "8"))),
        m_range=tuple(parse_range(getattr(args, "m", "4..10"))),
        precision=getattr(args, "precision", _DEFAULT_PRECISION),
        trials=getattr(args, "trials", 500),
        seed=getattr(args, "seed", 0),
        suite=suite,
        emit_kind=emit_kind,
        spec_path=getattr(args, "spec_path", None),
        out=args.out,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    dispatch = {
        "construct": cmd_construct,
        "certify": cmd_certify,
        "verify": cmd_verify,
        "emit": cmd_emit,
    }
    try:
        cfg = _config_from(args)
        return dispatch[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotEvaluableError, ConstructionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
