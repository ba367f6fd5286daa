"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs the benchmark command of BENCHMARK.json once per seed on each workload,
untraced, and reports for every end-to-end metric the median and the
interquartile range as a share of the median (quartiles as
`statistics.quantiles(values, n=4)` gives them), next to the metric's bound.
The figures, with the interpreter and CPU count, are written to
perfbench/STEADINESS.json, replacing the entries of the workloads run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    path = HERE / "STEADINESS.json"
    report = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    report.update({"python": platform.python_version(), "machine": platform.machine(),
                   "cpus": os.cpu_count(), "run_seconds": spec["run_seconds"]})
    report.setdefault("workloads", {})
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": result["correct"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            summary[metric["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": metric["bound"],
            }
            print(f"  {metric['name']:12s} median {summary[metric['name']]['median']:.5g} "
                  f"spread {summary[metric['name']]['spread']:.4f} "
                  f"bound {metric['bound']}", flush=True)
        report["workloads"][workload] = {
            "summary": summary, "all_correct": all(r["correct"] for r in runs),
            "runs": runs}
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
