"""Smoke check of the benchmark: every workload at a tiny size.

Run with `PYTHONPATH=src python -m pytest -q perfbench`.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import run
from checks import CheckFailed, check
from workloads import WORKLOADS, certify_op, make_cycle

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in
                SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    report = lines[:-1]
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in report), name
    assert any(line.split()[:1] == ["fail_ratio"] for line in report)


def test_tampered_outputs_are_caught(tmp_path):
    cli = run.load_program()
    op = certify_op(4, 3, Fraction(1, 3), Fraction(1, 2))
    _, rc, out, _ = run.call(cli, op.argv)
    assert check(op, rc, out) > 0
    body = json.loads(out)
    tampered = [
        {"upper": "4/1"},              # not n - 1
        {"lower": "3.5"},              # lower - radius above upper
        {"lower": "1.0"},              # lower + radius below sqrt(n - 1)
        {"depth": 4},                  # not the requested depth
    ]
    for change in tampered:
        with pytest.raises(CheckFailed):
            check(op, rc, json.dumps({**body, **change}))
    with pytest.raises(CheckFailed):
        check(op, 1, out)

    negative = next(o for o in make_cycle("sample-consumers", 3, 0, tmp_path, tiny=True)
                    if o.kind == "dbe-negative")
    _, rc, out, _ = run.call(cli, negative.argv)
    assert rc == 1 and check(negative, rc, out) is None
    passed = {**json.loads(out), "ok": True, "violations": []}
    with pytest.raises(CheckFailed):
        check(negative, 0, json.dumps(passed))

