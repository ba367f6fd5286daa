"""Property tests of malformed curve specs at the CLI (skipped without hypothesis).

A constructed spec is mutated once: a value is replaced by one of the wrong
type or an out-of-range rational, a key is dropped, or a list entry is
duplicated.  `certify`, `verify --dbe` and `emit --samples` on the result
must return, never raise.  A call that writes to stderr writes exactly one
`error: ` line, nothing to stdout, and exits 1 or 2; a call that writes
nothing to stderr ran a spec the loader accepted and printed its result.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dbecurves.cli import main  # noqa: E402
from dbecurves.curves import CurveSpec, build_extremal_curve, curve_to_json  # noqa: E402
from dbecurves.singular import (  # noqa: E402
    Affine,
    Cantor,
    Composition,
    PiecewiseLinear,
    RieszNagy,
    WeightedSum,
)

F = Fraction
COMMANDS = (("certify", "--d", "3"), ("verify", "--dbe", "--d", "3"),
            ("emit", "--samples", "--d", "3"))

_GENERIC = CurveSpec(5, (
    Cantor(),
    Composition(Affine(F(1, 2), F(1, 4)), RieszNagy(F(1, 3))),
    WeightedSum([PiecewiseLinear([(0, 0), (F(1, 2), F(3, 4)), (1, 1)]), Cantor()],
                [F(1, 2), F(1, 2)]),
), F(1, 3))
BASES = tuple(json.dumps(curve_to_json(c)) for c in (
    build_extremal_curve(3), build_extremal_curve(4, M=2, staircase_depth=1),
    _GENERIC))
# wrong types, and rationals outside [0,1] or with a zero denominator
WRONG = (None, True, 1.5, -1, 0, 7, "x", "", "-1/2", "3/1", "1/0", [], {},
         ["0/1"], [["0/1", "1/1"]])


def _paths(obj, path=()):
    """Every (container path, key or index) pair inside a JSON value."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path, key
        yield from _paths(value, path + (key,))


@st.composite
def _mutated(draw):
    spec = json.loads(draw(st.sampled_from(BASES)))
    path, key = draw(st.sampled_from(list(_paths(spec))))
    parent = spec
    for step in path:
        parent = parent[step]
    how = draw(st.sampled_from(("replace", "drop", "duplicate")))
    if how == "replace":
        parent[key] = draw(st.sampled_from(WRONG))
    elif how == "drop" or isinstance(parent, dict):  # a key cannot repeat
        del parent[key]
    else:
        parent.insert(key, parent[key])
    return spec


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_mutated())
def test_mutated_spec_fails_cleanly(spec_file, spec):
    spec_file.write_text(json.dumps(spec))
    for command in COMMANDS:
        code, out, err = _run(*command, "--spec", str(spec_file))
        if err:
            assert code in (1, 2) and out == ""
            assert err.count("\n") == 1 and err.startswith("error: ")
        else:
            assert code in (0, 1) and out
