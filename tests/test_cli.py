"""Command-line interface: subcommands, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

import pytest

import dbecurves
from dbecurves import cli, curves, hausdorff, oracle
from dbecurves.cli import _MAX_LENGTH_BITS, main, parse_range
from dbecurves.curves import (
    _MAX_STAIRCASE_DEPTH,
    CurveSpec,
    ExtremalCurve,
    _pairwise_dbe,
    build_extremal_curve,
    curve_to_json,
    sample,
)
from dbecurves.exact import format_rational
from dbecurves.hausdorff import box_count, box_counts
from dbecurves.singular import (
    Affine,
    Cantor,
    Composition,
    PiecewiseLinear,
    RieszNagy,
    WeightedSum,
)
from test_curves import flat_piece_curve

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("4..10") == [4, 5, 6, 7, 8, 9, 10]
    assert parse_range("8") == [8]
    assert parse_range(" 1..3 ") == [1, 2, 3]


@pytest.mark.parametrize("m", ["--m=-3..2", "--m=3..x", "--m=-1", "--m=2.5"])
def test_bad_boxcount_range_is_a_usage_error(capsys, m):
    code, out, err = run_cli(capsys, "emit", "--boxcount", "--n", "4", m)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_construct_n3(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "3", "--a", "1/4",
                           "--alpha", "1/2")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 3
    assert blob["components"] == [{"a": "1/4", "kind": "riesz_nagy"}]
    assert blob["schema_version"] == 1


def test_construct_n5_has_composed_mappers(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "5", "--a", "1/4",
                           "--M", "4")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 5
    assert len(blob["components"]) == 3
    assert blob["components"][0]["kind"] == "riesz_nagy"
    assert all(c["kind"] == "composition" for c in blob["components"][1:])
    assert len(blob["mappers"]) == 2


@pytest.mark.parametrize("argv, n", [((), 3), (("--n", "4"), 4)], ids=["no-flags", "n4"])
def test_unset_curve_flags_take_the_builders_defaults(capsys, argv, n):
    code, out, _ = run_cli(capsys, "construct", *argv)
    assert code == 0
    assert out == cli._json_text(curve_to_json(build_extremal_curve(n))) + "\n"


def test_construct_rejects_n2(capsys):
    code, _, err = run_cli(capsys, "construct", "--n", "2")
    assert code == 2
    assert "n in 3..100" in err


_CURVE_COMMANDS = {"construct": ("construct",), "certify": ("certify",),
                   "verify-dbe": ("verify", "--dbe"), "boxcount": ("emit", "--boxcount")}


class _MapperBuilt(Exception):
    pass


def _refuse_mappers(monkeypatch):
    def build(*_, **__):
        raise _MapperBuilt
    monkeypatch.setattr(curves, "build_full_measure_mapper", build)


@pytest.mark.parametrize("argv", _CURVE_COMMANDS.values(), ids=_CURVE_COMMANDS)
def test_n_over_the_budget_is_refused_before_any_build(capsys, monkeypatch, argv):
    _refuse_mappers(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--n", str(10**9))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"3..{curves._MAX_N}" in err
    # the largest admitted n goes on to build its mappers
    with pytest.raises(_MapperBuilt):
        main([*argv, "--n", str(curves._MAX_N)])


@pytest.mark.parametrize("flag", [
    ("--n", "2"), ("--n", "101"), ("--a", "1/2"), ("--a", "0"), ("--alpha", "3/2"),
    ("--M", "0"), ("--staircase-depth", "0"), ("--staircase-depth", "8"),
], ids=lambda flag: "".join(flag).lstrip("-"))
@pytest.mark.parametrize("argv", _CURVE_COMMANDS.values(), ids=_CURVE_COMMANDS)
def test_every_bad_curve_flag_exits_2_before_any_mapper_is_built(capsys, monkeypatch,
                                                                   argv, flag):
    _refuse_mappers(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--n", "4", *flag)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_curve_flags_a_command_does_not_read_are_not_checked(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemmas", "--trials", "1", "--M", "0")
    assert code == 0 and json.loads(out)["ok"]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, "verify", "--family", "--n", "3")[0] == 0
    # the top-level parser and one per subcommand, all in the first call
    assert len(built) == 5


@pytest.mark.parametrize("argv", [("certify", "--d", "5..3"), ("emit", "--samples", "--d", "-1"),
                                  ("verify", "--lemmas", "--trials", "0")],
                         ids=["empty-depth-range", "negative-depth", "zero-trials"])
def test_bad_depth_or_trial_count_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_certify_reports_an_evaluation_failure_like_the_other_commands(capsys, tmp_path):
    # R_a after a piecewise-linear map with slope 2/3 meets non-dyadic points
    spec = tmp_path / "spec.json"
    pl = {"kind": "piecewise_linear", "knots": [["0", "0"], ["1/2", "1/3"], ["1", "1"]]}
    spec.write_text(json.dumps({
        "schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
        "components": [{"kind": "composition", "outer": {"kind": "riesz_nagy", "a": "1/4"},
                        "inner": pl}]}))
    want = "error: R_a is exactly evaluable only at dyadic x, got 1/96\n"
    # box counts at m up to 4 read the columns at depth 6 too
    for argv in (("certify",), ("verify", "--dbe"), ("emit", "--samples"),
                 ("emit", "--boxcount", "--m", "2..4")):
        assert run_cli(capsys, *argv, "--spec", str(spec), "--d", "6") == (1, "", want)


def test_certify_n3(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "3", "--d", "14")
    assert code == 0
    blob = json.loads(out)
    assert blob["upper"] == "2/1"
    assert float(blob["lower"]) == pytest.approx(1.7461950287924362, abs=1e-12)
    assert float(blob["error_radius"]) < 1e-18
    assert blob["depth"] == 14
    assert blob["method"]["upper"] == "partition-image-sum"


def test_certify_n4_upper(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "4", "--d", "5")
    assert code == 0
    assert json.loads(out)["upper"] == "3/1"


def test_certify_depth_zero_valid(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "3", "--d", "0")
    assert code == 0
    blob = json.loads(out)
    assert float(blob["lower"]) == pytest.approx(2.0 ** 0.5, abs=1e-12)


def test_certify_spec_roundtrip(tmp_path, capsys):
    spec_file = tmp_path / "curve.json"
    code, out, _ = run_cli(capsys, "construct", "--n", "4", "--out",
                           str(spec_file))
    assert code == 0 and spec_file.exists()
    code, out, _ = run_cli(capsys, "certify", "--spec", str(spec_file),
                           "--d", "4")
    assert code == 0
    assert json.loads(out)["upper"] == "3/1"


def test_verify_dbe(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dbe", "--n", "3", "--d", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert blob["pair_count"] == 33 * 32 // 2
    assert blob["violations"] == []


def test_verify_family(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "--n", "4")
    assert code == 0
    blob = json.loads(out)
    assert blob["max_family_size"] == 4
    assert blob["near_pencil_attains"] is True


def test_verify_family_bad_n(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "--n", "9")
    assert code == 2
    assert "2..5" in err


def test_verify_lemmas(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemmas", "--trials", "30",
                           "--seed", "7")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert set(blob["violations"]) == {
        "refinement", "sum_image_bound", "lipschitz_image", "derivative_bound"
    }


def test_emit_samples(capsys):
    code, out, _ = run_cli(capsys, "emit", "--samples", "--d", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 1 + 257
    assert lines[1] == "0/1,0/1,1/2"
    assert lines[-1] == "1/1,1/1,1/2"


def test_emit_length_series_nondecreasing(capsys):
    code, out, _ = run_cli(capsys, "emit", "--length-series", "--d", "1..14")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "depth,value,error_radius"
    assert len(lines) == 15
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)


def test_emit_boxcount(capsys):
    code, out, _ = run_cli(capsys, "emit", "--boxcount", "--m", "4..10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,count"
    assert len(lines) == 8
    assert lines[1] == "4,23"
    assert lines[-1] == "10,1365"


def test_emit_boxcount_coarsened_sample_matches_per_m_count(capsys):
    code, out, _ = run_cli(capsys, "emit", "--boxcount", "--n", "4", "--a", "2/7",
                           "--m", "2..6")
    assert code == 0
    curve = build_extremal_curve(4, F(2, 7))
    want = [f"{m},{box_count(curve, m).count}" for m in range(2, 7)]
    assert out.strip().split("\n")[1:] == want


@pytest.mark.parametrize("argv", [
    ("--staircase-depth", "-1"),
    ("--M", "0"),
    ("--staircase-depth", str(_MAX_STAIRCASE_DEPTH + 1)),
    ("--staircase-depth", "0"),
], ids=["negative-staircase-depth", "M-zero", "staircase-depth-over-budget",
        "zero-staircase-depth"])
def test_curve_parameter_out_of_range_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "construct", "--n", "4", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "mapper term" not in err


def test_emit_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "emit", "--samples", "--d", "6", "--out", str(f1))
    run_cli(capsys, "emit", "--samples", "--d", "6", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


# sha256 of `construct` stdout, fixed when the staircase cells were found by
# a left-to-right scan of each generation
_CONSTRUCT_SHA256 = {
    # n = 3, fixed while that case still had its own branch in the builder
    ("3", "1/4", "4", "2"):
        "083ef1bff49b0be7db19951c7d4e83eb3db8744f6cac87c430ba7d36e0fbd2f5",
    ("3", "5/8", "7", "3"):
        "72f8fea23cd0f96fedf60ef6505cdf7e147fd43d28e6877df035edb1028622d5",
    ("4", "1/8", "10", "3"):
        "1aaca78fa175156ef39ad56da80802a1af9fd6987195c08f06aacb8052350a35",
    ("5", "7/8", "6", "2"):
        "a25ed8592f5782a597bcc37f00351f6fd5e62013f7f02e6e4f44f6f8ed239c2d",
    ("6", "25/32", "4", "3"):
        "1db664c75a29fb0fc014f88436196e604f18ebb01458cc9e27e24875aa6a25e8",
    ("6", "2/7", "8", "2"):
        "c08b3e0d982368a8effea6f4d31ec85082cb847300363092dcc035a25aa83176",
    # M >= 9, staircase depth 3 and weights far from 1/2, fixed before the
    # cell descent ran on integers
    ("5", "13/16", "10", "3"):
        "e93a4b1a581173642200a774a3cc7b95b6f42e6fdd19318c91b2a8322bd91ade",
    ("6", "3/10", "7", "3"):
        "1054df712ffdb71535994949d57d52ec65e232460667fe7dbf2f74b8682e4d3b",
    ("6", "1/16", "4", "2"):
        "21e2539790bfa6c3b0ad1cbf80f309932ba6f637bfca49e5b92655efb0cf1ce3",
    ("4", "15/16", "9", "3"):
        "8d52c5d3cb43bb7fb9ca2e8401356c1304b67dffb621cbe5b6fe1ad047c791c1",
    # many mappers, a non-dyadic weight at depth 3, and a later mapper whose
    # excluded set starts coarser than its search, fixed before the search
    # ran against one integer index of the excluded set
    ("40", "1/4", "4", "2"):
        "b5796c5f3705604ea71a9e2ef85ef7119b89b3bd298d7a61f73d86320d0e8167",
    ("12", "5/7", "8", "3"):
        "d09805dfa9ebc6a6a0e5e9d001b042b1c8435434fb2cc67216e7b25f3dea264a",
    ("30", "3/10", "6", "2"):
        "8a16d0be5c5a055112f5edaed26b015d69b02191457c9fecd09fba16a24a1c1c",
}


@pytest.mark.parametrize("n, a, M, depth", sorted(_CONSTRUCT_SHA256))
def test_construct_bytes_are_pinned(capsys, n, a, M, depth):
    code, out, _ = run_cli(capsys, "construct", "--n", n, "--a", a, "--M", M,
                           "--staircase-depth", depth)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _CONSTRUCT_SHA256[n, a, M, depth]


# sha256 of `certify` stdout, fixed when each chord was summed over the lcm
# of its own two points' denominators
_CERTIFY_SHA256 = {
    ("4", "2/7", "11"): "916706142c93d5cfa3a539bb1fe9a5d3740a267c926ac1eaeadb3226484b0c07",
    ("4", "5/8", "9"): "625e3f1558a4feb4debda19c273474ef8d451ca68eef72735ed8e31b8d855aa1",
    ("5", "1/3", "10"): "68507224568131e8de5f63511745e9cf908d504141afceca5126b015c45262e3",
    ("5", "7/10", "11"): "d9f1fa54d8090bc5275aebaa9a001833713ce6b418fcac3e2fefd5de0816c1d1",
    ("6", "3/16", "9"): "f653b931b6f143bf1308fd2d7d0ef2ecad8155a5bc87a8218dfb9884eb3a7589",
    ("6", "4/5", "10"): "d942274938331230c365cb55d30c2957eca0012a48c8585ad9e44da24576eac9",
    ("cantor", "11"): "007799ebee30ec37d896b26e86ad0d80ea266ede5aa71fe01bf3863f235b3ead",
    ("piecewise-linear", "11"):
        "30c98370fdf302cadbce489f142ee7014dfb85c67e33069989bfba1f4ba8dbb1",
    ("weighted-sum", "11"):
        "59e255b03030bb3cbcd3142c19a4f71750adec826564f6074e0f32597a8843fa",
}

# n = 3 specs at alpha = 1/3; the knot denominators 3, 5, 7 and 11 are coprime
_GENERIC_COMPONENTS = {
    "cantor": {"kind": "cantor"},
    "piecewise-linear": {"kind": "piecewise_linear", "knots": [
        ["0/1", "0/1"], ["1/3", "1/5"], ["5/7", "3/11"], ["1/1", "1/1"]]},
    "weighted-sum": {"kind": "weighted_sum", "weights": ["1/2", "1/3"], "terms": [
        {"kind": "cantor"}, {"kind": "riesz_nagy", "a": "2/7"}]},
}


@pytest.mark.parametrize("case", sorted(_CERTIFY_SHA256))
def test_certify_bytes_are_pinned(capsys, tmp_path, case):
    *curve, depth = case
    if len(curve) == 1:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema_version": 1, "type": "curve", "n": 3, "alpha": "1/3",
            "components": [_GENERIC_COMPONENTS[curve[0]]]}))
        args = ("--spec", str(spec))
    else:
        args = ("--n", curve[0], "--a", curve[1])
    code, out, _ = run_cli(capsys, "certify", *args, "--d", depth)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CERTIFY_SHA256[case]


@pytest.mark.parametrize("case", sorted(c for c in _CERTIFY_SHA256 if len(c) == 3))
def test_certify_on_extremal_curves_reads_no_full_column(capsys, monkeypatch, case):
    def no_columns(curve, depth):
        raise AssertionError("a full column was read")

    monkeypatch.setattr(hausdorff, "_columns", no_columns)
    n, a, depth = case
    code, out, _ = run_cli(capsys, "certify", "--n", n, "--a", a, "--d", depth)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CERTIFY_SHA256[case]


@pytest.mark.parametrize("a", ["1/16", "15/16"])
def test_construct_at_skewed_weights(capsys, a):
    code, out, _ = run_cli(capsys, "construct", "--n", "6", "--a", a)
    assert code == 0
    assert len(json.loads(out)["mappers"]) == 3


def test_construct_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "construct", "--n", "5")
    _, out2, _ = run_cli(capsys, "construct", "--n", "5")
    assert out1 == out2


def test_precision_below_minimum_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "certify", "--n", "3", "--d", "2",
                           "--precision", "8")
    assert code == 2
    assert "precision" in err


def test_spec_piece_domains_cannot_lower_the_upper_bound(capsys, tmp_path):
    # a declared partition that stops at 15/16 once certified 415/256 < H^1 = 2
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
        "components": [{"kind": "riesz_nagy", "a": "1/4"}],
        "piece_domains": [[{"lo": "0/1", "hi": "15/16",
                            "lo_closed": True, "hi_closed": True}]]}))
    for d in range(13):
        code, out, _ = run_cli(capsys, "certify", "--spec", str(spec), "--d", str(d))
        assert code == 0, d
        cert = json.loads(out)
        assert cert["upper"] == "2/1"
        assert F(cert["lower"]) - F(cert["error_radius"]) <= 2


def test_rational_flag_parsing(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "3", "--a", "2/5",
                           "--alpha", "3/7")
    assert code == 0
    blob = json.loads(out)
    assert blob["a"] == "2/5"
    assert blob["alpha"] == "3/7"


def test_zero_denominator_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--a", "1/0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].endswith("'1/0'")


def test_zero_denominator_in_spec_fails_cleanly(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"schema_version": 1, "type": "curve", "n": 3,
                                "alpha": "1/0", "components": [{"kind": "cantor"}]}))
    code, out, err = run_cli(capsys, "certify", "--spec", str(spec))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


_AFFINE = '{"kind": "affine", "slope": "1/1", "offset": "0/1"}'
# 600 nested compositions: json decodes it, the nesting limit rejects it
_DEEP_COMPOSITION = (
    '{"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2", "components": ['
    + ('{"kind": "composition", "inner": ' + _AFFINE + ', "outer": ') * 600
    + _AFFINE + "}" * 600 + "]}")


def _n4_spec(edit):
    """The n = 4 spec (M = 1, staircase depth 1) after `edit` changed it."""
    spec = curve_to_json(build_extremal_curve(4, M=1, staircase_depth=1))
    edit(spec)
    return spec


def _tree(spec):
    return spec["components"][1]["outer"]["terms"][0]["tree"]


@pytest.mark.parametrize("blob, fault", [
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2"},
     "missing key 'components'"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
      "components": [{"kind": "affine", "slope": "1/2"}]}, "missing key 'offset'"),
    ([{"schema_version": 1}], "spec is not a JSON object"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
      "components": [{"kind": "affine", "slope": "3/1", "offset": "0/1"}]},
     "leaves the unit cube"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
      "components": [{"kind": "restriction", "fn": {"kind": "cantor"},
                      "domain": [{"lo": "0/1", "hi": "1/1"}]}]},
     "unknown function kind 'restriction'"),
    (_DEEP_COMPOSITION, "nests deeper"),
    ("[" * 2000 + "]" * 2000, "RecursionError"),
    (_n4_spec(lambda s: s["mappers"].append(s["mappers"][0])), "key 'mappers'"),
    (_n4_spec(lambda s: _tree(s).update(root=["0/1"])), "key 'components'"),
    (_n4_spec(lambda s: _tree(s).update(levels=[])), "key 'components'"),
    (_n4_spec(lambda s: s.update(mappers=[])), "key 'mappers'"),
    (_n4_spec(lambda s: s.update(w_domains=[], q1=[])), "key 'w_domains'"),
    (_n4_spec(lambda s: s["q1"].pop()), "key 'q1'"),
    # refused by the size check before anything is built
    (_n4_spec(lambda s: s.update(n=10**9)), "key 'n'"),
    (_n4_spec(lambda s: s.update(M=10**9)), "key 'M'"),
    (_n4_spec(lambda s: s.update(staircase_depth=10**12)), "key 'staircase_depth'"),
    (_n4_spec(lambda s: s.update(staircase_depth=0)), "key 'staircase_depth'"),
    (_n4_spec(lambda s: s.update(M=2.5)), "key 'M'"),
    (_n4_spec(lambda s: s.update(n="4")), "key 'n'"),
    # the size check admits 98 copies of a mapper; the n budget refuses them
    (_n4_spec(lambda s: s.update(n=101, mappers=s["mappers"] * 98)),
     "needs an integer n in 3..100"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
      "components": [{"kind": "interval_staircase",
                      "tree": {**_tree(_n4_spec(lambda s: None)), "grid": {"kind": "nope"}}}]},
     "unknown grid kind 'nope'"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
      "components": [{"kind": "affine", "slope": 1, "offset": "0/1"}]}, "rational string"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": 0.5,
      "components": [{"kind": "cantor"}]}, "rational string"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
      "components": [{"kind": "piecewise_linear", "knots": 5}]},
     "key 'knots' is not a list of [x, y] pairs"),
    ({"schema_version": 1, "type": "curve", "n": "3", "alpha": "1/2",
      "components": [{"kind": "cantor"}]}, "need an integer n >= 2"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2", "components": 5},
     "key 'components' is not a list"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2", "components": [5]},
     "function spec is not a JSON object"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
      "components": [{"kind": "weighted_sum", "weights": ["1/2"], "terms": [7]}]},
     "function spec is not a JSON object"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
      "components": [{"kind": "weighted_sum", "weights": ["1/2"], "terms": 5}]},
     "key 'terms' is not a list"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
      "components": [{"kind": "weighted_sum", "weights": 5, "terms": [{"kind": "cantor"}]}]},
     "key 'weights' is not a list"),
    ({"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
      "components": [{"kind": "interval_staircase", "tree": 5}]},
     "key 'tree' is not a JSON object"),
    # n = 3 builds no mapper, so only the parameter checks see M
    ({**curve_to_json(build_extremal_curve(3)), "M": -5}, "M is not an integer >= 1"),
    ({**curve_to_json(build_extremal_curve(3)), "M": 0}, "M is not an integer >= 1"),
    ({**curve_to_json(build_extremal_curve(3)), "M": 2.5}, "key 'M' is not an integer"),
], ids=["no-components", "affine-without-offset", "top-level-list", "outside-cube",
        "restriction-kind", "600-nested-compositions", "json-nested-2000-deep",
        "more-mappers-than-compositions", "one-entry-tree-root", "empty-tree-levels",
        "no-mappers", "no-w-domains-or-q1", "wrong-q1", "huge-n", "huge-M",
        "huge-staircase-depth", "zero-staircase-depth", "fractional-M", "string-n",
        "n-over-budget", "unknown-grid-kind", "number-slope", "number-alpha",
        "knots-not-a-list", "generic-string-n", "components-not-a-list",
        "component-not-an-object", "term-not-an-object", "terms-not-a-list",
        "weights-not-a-list", "tree-not-an-object", "n3-negative-M", "n3-zero-M",
        "n3-fractional-M"])
def test_malformed_spec_fails_cleanly(capsys, tmp_path, blob, fault):
    spec = tmp_path / "spec.json"
    spec.write_text(blob if isinstance(blob, str) else json.dumps(blob))
    code, out, err = run_cli(capsys, "certify", "--spec", str(spec))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"malformed curve spec {spec}: " in err
    assert fault in err


# A generic n = 8 spec with every component kind, its staircase the n = 4 mapper's
_ALL_KINDS_SPEC = curve_to_json(CurveSpec(8, (
    Cantor(),
    RieszNagy(F(1, 3)),
    Affine(F(1, 2), F(1, 4)),
    PiecewiseLinear([(0, 0), (F(1, 2), F(1, 4)), (1, 1)]),
    WeightedSum([build_extremal_curve(4, M=1, staircase_depth=1).mappers[0].terms[0],
                 Affine(1, 0)], [F(1, 2), F(1, 2)]),
    Composition(Cantor(), RieszNagy(F(1, 3))),
), F(1, 2)))
_DELETED = object()
_PYTHON_WORDING = ("TypeError", "IndexError", "AttributeError", "KeyError", "unpack",
                   "subscriptable", "not iterable", "has no len()", "indices must be")


def _key_paths(obj, path=()):
    """The path of every key and list entry inside a JSON value."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _key_paths(value, path + (key,))


_FUZZ_BASES = {"generic": _ALL_KINDS_SPEC, "extremal": _n4_spec(lambda s: None)}
_SHAPE_FUZZ = [(name, path) for name, spec in _FUZZ_BASES.items() for path in _key_paths(spec)]


@pytest.mark.parametrize("name, path", _SHAPE_FUZZ,
                         ids=["/".join(map(str, [name, *path])) for name, path in _SHAPE_FUZZ])
def test_wrongly_shaped_spec_values_fail_with_one_line(capsys, tmp_path, name, path):
    """Each JSON shape in place of a key's value, and the key or entry gone,
    either still loads or exits 1 with a line naming no Python internals."""
    base = json.dumps(_FUZZ_BASES[name])
    spec_file = tmp_path / "spec.json"
    for value in (5, [5], "x", {}, None, True, [[5]], _DELETED):
        spec = parent = json.loads(base)
        for step in path[:-1]:
            parent = parent[step]
        if value is _DELETED:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        spec_file.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "certify", "--spec", str(spec_file), "--d", "3")
        case = f"{value!r} at {path}"
        assert not any(word in err for word in _PYTHON_WORDING), (case, err)
        if code != 0:
            assert code == 1 and out == "", case
            assert err.count("\n") == 1, case
            assert err.startswith(f"error: malformed curve spec {spec_file}: "), (case, err)


# each ran past 60 s before the leaf-cell budget
@pytest.mark.parametrize("argv", [("--n", "100", "--staircase-depth", "7"),
                                  ("--n", "4", "--M", "1000", "--staircase-depth", "7")],
                         ids=["n100-depth7", "M1000-depth7"])
def test_builds_over_the_leaf_cell_budget_are_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "leaf cells, over the budget of 4096" in err


def test_specs_over_the_leaf_cell_budget_fail_at_once(capsys, tmp_path):
    # the sizes fit: 2 mappers of 1024 * 2^2 N_trunc components each
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_n4_spec(lambda s: s.update(
        n=5, M=1024, staircase_depth=2, mappers=[{"n_trunc": [{}] * 4096}] * 2))))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "certify", "--spec", str(spec))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "leaf cells, over the budget of 4096" in err


# 1/(2^64 + 13): the staircase search took a generation per shrink by 1 - a
# and ran past 120 s before the weight budget
_NEAR_ZERO = "1/18446744073709551629"


@pytest.mark.parametrize("command", [("construct",), ("certify", "--d", "11")])
def test_weights_too_near_0_or_1_are_refused_at_once(capsys, command):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *command, "--n", "4", "--a", _NEAR_ZERO)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "too near 0 or 1" in err


def test_a_weight_too_near_0_still_certifies_without_mappers(capsys):
    code, out, err = run_cli(capsys, "certify", "--n", "3", "--a", _NEAR_ZERO, "--d", "11")
    assert code == 0 and err == ""
    assert json.loads(out)["upper"] == "2/1"


def test_specs_with_a_weight_too_near_0_or_1_fail_at_once(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_n4_spec(lambda s: s.update(a=_NEAR_ZERO))))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "certify", "--spec", str(spec))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "too near 0 or 1" in err


@pytest.mark.parametrize("key, index", [("addresses", None), ("levels", None),
                                        ("addresses", 1), ("levels", 1)],
                         ids=["last-address-list", "last-level", "last-address",
                              "last-cell"])
def test_staircase_spec_with_unequal_cell_and_address_lists_exits_1(capsys, tmp_path,
                                                                    key, index):
    # a depth-1 tree cut short by its last address list loaded as depth 0
    spec = json.loads(json.dumps(_ALL_KINDS_SPEC))
    lists = spec["components"][4]["terms"][0]["tree"][key]
    (lists if index is None else lists[index]).pop()
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "certify", "--spec", str(spec_file), "--d", "3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: malformed curve spec {spec_file}: ")
    assert "key 'addresses' does not fit key 'levels'" in err


@pytest.mark.parametrize("path, value", [
    (("mappers", 0, "level"), True),
    (("mappers", 0, "level"), 1.0),
    (("mappers", 0, "n_trunc", 0, "lo_closed"), 1),
    (("q1", 0, "lo_closed"), 0),
], ids=["level-true", "level-float", "closed-one", "open-zero"])
def test_extremal_spec_keys_must_match_as_json_text(capsys, tmp_path, path, value):
    # each value equals the built one by Python ==, and so loaded before
    spec = _n4_spec(lambda s: None)
    parent = spec
    for step in path[:-1]:
        parent = parent[step]
    assert parent[path[-1]] == value
    parent[path[-1]] = value
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "certify", "--spec", str(spec_file), "--d", "3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert f"key {path[0]!r} differs from the curve its parameters build" in err


def test_extremal_spec_loads_whatever_its_key_order(capsys, tmp_path):
    spec = _n4_spec(lambda s: None)
    want = run_cli(capsys, "certify", "--n", "4", "--M", "1", "--staircase-depth", "1",
                   "--d", "3")
    assert want[0] == 0
    spec_file = tmp_path / "spec.json"
    for text in (json.dumps(spec), json.dumps(spec, sort_keys=True),
                 json.dumps(dict(reversed(spec.items())))):
        spec_file.write_text(text)
        assert run_cli(capsys, "certify", "--spec", str(spec_file), "--d", "3") == want


@pytest.mark.parametrize("a", ["1/4", "2/7"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_constructed_specs_load_and_certify_like_their_parameters(capsys, tmp_path, n, a):
    spec = tmp_path / "spec.json"
    for M in range(1, 5):
        for depth in (1, 2):
            params = ("--n", str(n), "--a", a, "--M", str(M),
                      "--staircase-depth", str(depth))
            assert run_cli(capsys, "construct", *params, "--out", str(spec))[0] == 0
            want = run_cli(capsys, "certify", *params, "--d", "6")
            assert want[0] == 0
            assert run_cli(capsys, "certify", "--spec", str(spec), "--d", "6") == want


def test_verify_dbe_needs_n3_like_the_other_curve_commands(capsys):
    code, out, err = run_cli(capsys, "verify", "--dbe", "--n", "2")
    assert code == 2 and out == ""
    assert err == "error: extremal construction needs an integer n in 3..100\n"


@pytest.mark.parametrize("argv", [("certify",), ("verify", "--dbe"), ("emit", "--samples")],
                         ids=["certify", "verify-dbe", "samples"])
def test_single_depth_commands_refuse_a_range(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--d", "4..6")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "one depth" in err


def _refuse_sampling(monkeypatch):
    def sample(*_):
        raise AssertionError("a refused request sampled the curve")
    # every command, and `sample`, evaluates the curve through the columns
    for module in (curves, cli, hausdorff):
        monkeypatch.setattr(module, "_columns", sample)


# depth 21 is one past the sample budget; box counts sample at max m + 2
@pytest.mark.parametrize("argv", [
    ("certify", "--n", "4", "--d", "21"),
    ("verify", "--dbe", "--d", "21"),
    ("emit", "--samples", "--d", "21"),
    ("emit", "--length-series", "--n", "4", "--d", "1..21"),
    ("emit", "--boxcount", "--m", "4..19"),
], ids=["certify", "verify-dbe", "samples", "length-series", "boxcount"])
def test_requests_over_the_sample_budget_are_refused_unsampled(capsys, monkeypatch, argv):
    _refuse_sampling(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "budget" in err


def test_collapsed_length_sums_are_exempt_from_the_sample_budget(capsys, monkeypatch,
                                                                 tmp_path):
    _refuse_sampling(monkeypatch)
    single, double = tmp_path / "single.json", tmp_path / "double.json"
    spec = {"schema_version": 1, "type": "curve", "n": 3, "alpha": "1/2",
            "components": [{"kind": "riesz_nagy", "a": "1/3"}]}
    single.write_text(json.dumps(spec))
    spec.update(n=4, components=spec["components"] * 2)
    double.write_text(json.dumps(spec))
    for exempt, refused in [
        (("certify", "--n", "3", "--d", "40"), ("certify", "--n", "4", "--d", "40")),
        (("emit", "--length-series", "--d", "38..40"),
         ("emit", "--length-series", "--n", "5", "--d", "38..40")),
        (("certify", "--spec", str(single), "--d", "40"),
         ("certify", "--spec", str(double), "--d", "40")),
    ]:
        code, out, _ = run_cli(capsys, *exempt)
        assert code == 0 and out
        assert run_cli(capsys, *refused)[0] == 2
    blob = json.loads(run_cli(capsys, "certify", "--n", "3", "--d", "40")[1])
    assert blob["depth"] == 40 and blob["upper"] == "2/1"


# n = 7 has five component columns, 5 * 2^20 entries at depth 20
@pytest.mark.parametrize("argv", [
    ("certify", "--n", "7", "--d", "20"),
    ("verify", "--dbe", "--n", "7", "--d", "20"),
    ("emit", "--samples", "--n", "7", "--d", "20"),
    ("emit", "--length-series", "--n", "7", "--d", "1..20"),
    ("emit", "--boxcount", "--n", "7", "--m", "4..18"),
], ids=["certify", "verify-dbe", "samples", "length-series", "boxcount"])
def test_requests_over_the_column_budget_are_refused_unsampled(capsys, monkeypatch,
                                                               argv):
    _refuse_sampling(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and str(cli._MAX_COLUMN_ENTRIES) in err


def test_column_budget_admits_n6_at_the_deepest_sample():
    assert cli._MAX_COLUMN_ENTRIES == 4 << cli._MAX_SAMPLE_DEPTH
    for n, depth in ((6, 20), (7, 19)):
        cli._check_sample_depth(depth, build_extremal_curve(n))
    with pytest.raises(cli.UsageError):
        cli._check_sample_depth(20, build_extremal_curve(7))


# at a = 1/(10^500 + 3), a 1661-bit q, one column at depth 14 is about
# 3.8e8 bits and at depth 15 about 8.2e8, past the column-bit budget
@pytest.mark.parametrize("argv", [
    ("verify", "--dbe", "--d", "15"),
    ("emit", "--samples", "--d", "15"),
    ("emit", "--boxcount", "--m", "9..13"),
], ids=["verify-dbe", "samples", "boxcount"])
def test_column_bits_past_the_budget_are_refused_unsampled(capsys, monkeypatch, argv):
    _refuse_sampling(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv[:-2], "--n", "3", "--a", _HUGE_Q,
                             *argv[-2:])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"{cli._MAX_COLUMN_BITS:.1e}" in err


def test_column_bit_budget_admits_its_edge():
    huge = build_extremal_curve(3, F(1, 10**500 + 3))
    cli._check_sample_depth(14, huge)
    with pytest.raises(cli.UsageError, match="bits"):
        cli._check_sample_depth(15, huge)
    # n = 6 at the deepest sample passes for every q < 64
    cli._check_sample_depth(20, build_extremal_curve(6, F(1, 63)))
    wide = build_extremal_curve(6, F(1, 64))
    with pytest.raises(cli.UsageError, match="bits"):
        cli._check_sample_depth(20, wide)
    # an extremal curve's lengths read no whole column
    cli._check_length_depths([20], wide, 64)


@pytest.mark.parametrize("argv, rows", [
    (("verify", "--dbe", "--d", "10"), None),
    (("emit", "--samples", "--d", "10"), 1026),
    (("emit", "--boxcount", "--m", "4..10"), 8),
], ids=["verify-dbe", "samples", "boxcount"])
def test_column_bit_budget_admits_workload_sized_n3_requests(capsys, argv, rows):
    code, out, err = run_cli(capsys, *argv[:-2], "--n", "3", "--a", "25/32",
                             *argv[-2:])
    assert code == 0 and err == ""
    if rows is not None:
        assert len(out.splitlines()) == rows


def test_lemmas_trials_over_the_budget_are_refused_before_any_trial(capsys,
                                                                     monkeypatch):
    def run_all(*_):
        raise AssertionError("a refused request ran a trial")
    monkeypatch.setattr(cli, "run_all", run_all)
    code, out, err = run_cli(capsys, "verify", "--lemmas", "--trials",
                             str(cli._MAX_TRIALS + 1))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and str(cli._MAX_TRIALS) in err


def test_sample_budget_admits_its_own_depth(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_SAMPLE_DEPTH", 4)
    assert run_cli(capsys, "verify", "--dbe", "--n", "4", "--d", "4")[0] == 0
    assert run_cli(capsys, "verify", "--dbe", "--n", "4", "--d", "5")[0] == 2
    assert run_cli(capsys, "emit", "--boxcount", "--m", "1..2")[0] == 0
    assert run_cli(capsys, "emit", "--boxcount", "--m", "1..3")[0] == 2


@pytest.mark.parametrize("argv, module, depths", [
    (("certify", "--n", "3"), hausdorff, ("96", "97")),
    (("emit", "--length-series", "--n", "3"), cli, ("1..96", "1..97")),
], ids=["certify", "length-series"])
def test_lengths_past_the_printable_bits_are_refused_up_front(capsys, monkeypatch,
                                                              argv, module, depths):
    def polyline_length(*_):
        raise RuntimeError("polyline_length reached")
    monkeypatch.setattr(module, "polyline_length", polyline_length)
    precision = ("--precision", str(_MAX_LENGTH_BITS - 96))
    with pytest.raises(RuntimeError, match="reached"):
        main([*argv, *precision, "--d", depths[0]])
    code, out, err = run_cli(capsys, *argv, *precision, "--d", depths[1])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and str(_MAX_LENGTH_BITS) in err


# a = 1/(10^500 + 3): certify --d 400 took 14 s, and the refused requests
# below each ran past 120 s before the collapsed work budget
_HUGE_Q = f"1/{10**500 + 3}"


def _refuse_lengths(monkeypatch):
    def polyline_length(*_):
        raise RuntimeError("polyline_length reached")
    for module in (cli, hausdorff):
        monkeypatch.setattr(module, "polyline_length", polyline_length)


@pytest.mark.parametrize("argv", [
    ("emit", "--length-series", "--n", "3", "--d", "1..4032"),
    ("certify", "--n", "3", "--a", _HUGE_Q, "--d", "1000"),
    ("emit", "--length-series", "--n", "3", "--a", _HUGE_Q, "--d", "1..300"),
], ids=["series-to-4032", "certify-huge-q", "series-huge-q"])
def test_collapsed_lengths_over_the_work_budget_are_refused_at_once(capsys, monkeypatch,
                                                                    argv):
    _refuse_lengths(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "collapsed" in err and "budget" in err


@pytest.mark.parametrize("argv, depths", [
    (("certify", "--n", "3", "--d"), ("4032", None)),
    (("certify", "--n", "3", "--a", _HUGE_Q, "--d"), ("215", "216")),
    (("emit", "--length-series", "--n", "3", "--d"), ("1..658", "1..659")),
    (("emit", "--length-series", "--n", "3", "--precision", "4000", "--d"), ("1..96", None)),
], ids=["certify", "certify-huge-q", "length-series", "length-series-precision"])
def test_collapsed_work_budget_admits_its_edge(capsys, monkeypatch, argv, depths):
    _refuse_lengths(monkeypatch)
    with pytest.raises(RuntimeError, match="reached"):
        main([*argv, depths[0]])
    if depths[1] is not None:
        code, out, err = run_cli(capsys, *argv, depths[1])
        assert code == 2 and out == "" and "budget" in err


_WIDE_Q = 2**1100 + 1


@pytest.mark.parametrize("argv", [
    ("--n", "3", "--a", _HUGE_Q, "--d", "10"),
    ("--n", "4", "--M", "1", "--staircase-depth", "1", "--a", f"{_WIDE_Q // 3}/{_WIDE_Q}",
     "--d", "13"),
], ids=["n3", "n4"])
def test_samples_past_the_printable_digits_fail_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, "emit", "--samples", *argv)
    assert code == 1 and out == ""
    assert err == (f"error: sample values at depth {argv[-1]} pass the limit of "
                   f"{sys.get_int_max_str_digits()} printed digits\n")


def test_samples_just_under_the_printable_digits_print(capsys):
    code, out, err = run_cli(capsys, "emit", "--samples", "--n", "3", "--a", _HUGE_Q,
                             "--d", "8")
    assert code == 0 and err == ""
    rows = out.splitlines()
    assert len(rows) == 258
    # R_a(1/256) = 1/q^8, whose 4001 digits are the most of any printed integer
    assert rows[2].split(",")[1] == f"1/{(10**500 + 3) ** 8}"
    assert max(len(v) for row in rows for v in row.replace("/", ",").split(",")) == 4001


def test_lengths_at_the_printable_bits_print(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "3", "--d", "0",
                           "--precision", str(_MAX_LENGTH_BITS))
    assert code == 0
    assert len(json.loads(out)["lower"].split(".")[1]) == _MAX_LENGTH_BITS + 1


def _cross_check_curves():
    for a in (F(2, 7), F(3, 4)):
        for n in (3, 4, 5, 6):
            yield build_extremal_curve(n, a)
    yield CurveSpec(3, (Cantor(),), F(1, 2))
    yield flat_piece_curve()
    # decreasing components: their columns are read reversed
    mapper = build_extremal_curve(4).mappers[0]
    flip = Affine(-1, 1)
    yield CurveSpec(4, (flip, Composition(mapper, flip)), F(1, 3))


def _oracle_point(curve, x):
    """curve.point(x), with the n = 3 R_a value from the digit-product formula."""
    if isinstance(curve, ExtremalCurve) and curve.n == 3:
        return x, oracle.riesz_value(curve.a, x), curve.alpha
    return curve.point(x)


def _sample_commands(spec):
    return [("verify", "--dbe", "--d", "6", "--spec", str(spec)),
            ("emit", "--samples", "--d", "6", "--spec", str(spec)),
            ("emit", "--boxcount", "--m", "0..6", "--spec", str(spec))]


@pytest.mark.parametrize("curve", list(_cross_check_curves()), ids=[
    *(f"n{n}-a{a}" for a in ("2/7", "3/4") for n in (3, 4, 5, 6)),
    "cantor", "flat-piece", "decreasing"])
def test_sample_consumers_match_pointwise_evaluation(capsys, tmp_path, curve):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(curve_to_json(curve)))
    dbe, samples, boxes = (run_cli(capsys, *argv) for argv in _sample_commands(spec))
    # box counts against a brute count over the depth m + 2 points
    want = []
    for m in range(7):
        scale = 1 << m
        points = (_oracle_point(curve, F(k, 4 * scale)) for k in range(4 * scale + 1))
        want.append(len({tuple(min(math.floor(c * scale), scale - 1) for c in p)
                         for p in points}))
    assert [bc.count for bc in box_counts(curve, range(7))] == want
    assert [box_count(curve, m).count for m in range(7)] == want
    csv = "m,count\n" + "".join(f"{m},{count}\n" for m, count in enumerate(want))
    assert boxes == (0, csv, "")
    # the pairwise check against the O(N^2) loop on Fraction points
    report = _pairwise_dbe(sample(curve, 6))
    body = json.loads(dbe[1])
    assert dbe[0] == (0 if report.ok else 1)
    assert (body["pair_count"], body["violations"], body["ok"]) == (
        report.pair_count, [list(v) for v in report.violations], report.ok)
    # the sample dump against format_rational of each point
    rows = [",".join(f"x{i}" for i in range(1, curve.n + 1))]
    rows += [",".join(map(format_rational, _oracle_point(curve, F(k, 64))))
             for k in range(65)]
    assert samples == (0, "\n".join(rows) + "\n", "")


@pytest.mark.parametrize("curve", [build_extremal_curve(5), flat_piece_curve()],
                         ids=["n5", "flat-piece"])
def test_sample_consumers_do_not_call_sample(capsys, monkeypatch, tmp_path, curve):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(curve_to_json(curve)))
    want = [run_cli(capsys, *argv) for argv in _sample_commands(spec)]

    def refuse(*_):
        raise AssertionError("a sample consumer built Fraction points")

    for module in (dbecurves, curves, cli, hausdorff):
        for key, value in list(vars(module).items()):
            if value is curves.sample:
                monkeypatch.setattr(module, key, refuse)
    assert [run_cli(capsys, *argv) for argv in _sample_commands(spec)] == want
