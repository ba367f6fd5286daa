"""Benchmark of the dbecurves command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Runs one seeded, closed-loop workload of real CLI operations: one client
thread calls `dbecurves.cli.main(argv)` in this process with stdout
captured, and starts the next operation when the previous one returns.  The
loop runs whole workload cycles (see workloads.py) until the operations have
taken at least S seconds.  Every operation's output is checked outside its
timed interval (checks.py).

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics below.  With --trace 1 the program's public functions are
wrapped (tracer.py) and the metrics are the per-layer ones; every other
operation also runs untraced, so the tracing overhead is measured on the
same inputs.  Lines before the last one are a readable report; the full
results, and the spans of a traced run, are written to perfbench/out/.
With --workload all, every workload runs untraced and then traced, each in
a fresh process, and the last line merges their metrics as workload/name.

The program is imported from src/ next to this directory.  Exit code 2,
without a result line, means the program or an input could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, input_mix, make_cycle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 15
TAIL_BEYOND = 10

perf = time.perf_counter

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "cert_gap": "length",
}

PER_LAYER_UNITS = {
    "cli.main_s": "s/op",
    "cli.out_bytes": "B/op",
    "curves.sample_s": "s/op",
    "curves.points": "count/op",
    "singular.riesz_calls": "count/op",
    "singular.riesz_s": "s/op",
    "singular.riesz_per_point": "ratio",
    "singular.staircase_calls": "count/op",
    "singular.staircase_s": "s/op",
    "hausdorff.certify_s": "s/op",
    "hausdorff.chord_s": "s/op",
    "hausdorff.sqrt_calls": "count/op",
    "hausdorff.den_bits_max": "bits",
    "curves.dbe_check_s": "s/op",
    "curves.dbe_pairs": "count/op",
    "hausdorff.box_count_s": "s/op",
    "hausdorff.box_points": "count/op",
    "curves.build_s": "s/op",
    "singular.mapper_build_s": "s/op",
    "singular.grid_hit_ratio": "ratio",
    "exact.intersect_calls": "count/op",
    "exact.intersect_s": "s/op",
    "exact.setop_s": "s/op",
    "singular.pwl_calls": "count/op",
    "hausdorff.checker_s": "s/op",
    "partitions.refine_s": "s/op",
    "trials.run_s": "s/op",
    "trials.violations": "count",
    "trace.overhead_ratio": "ratio",
}


class LoadError(Exception):
    """The program or the benchmark's inputs could not be loaded."""


def load_program():
    """Import dbecurves from src/ beside the benchmark, and nowhere else."""
    init = SRC / "dbecurves" / "__init__.py"
    if not init.is_file():
        raise LoadError(f"program source not found at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dbecurves.cli

    if Path(dbecurves.__file__).resolve() != init.resolve():
        raise LoadError(f"imported dbecurves from {dbecurves.__file__}, not {init}")
    return dbecurves.cli


def prepare(workload: str, seed: int, tiny: bool):
    """Everything before the first operation: import, inputs, spec files."""
    cli = load_program()
    spec_dir = OUT / f"{workload}-{seed}"
    spec_dir.mkdir(parents=True, exist_ok=True)
    return cli, spec_dir, make_cycle(workload, seed, 0, spec_dir, tiny)


def measure_setup(workload: str, seed: int, tiny: bool, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until `prepare` is done."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(probes):
        t0 = perf()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise LoadError("set-up probe failed")
        times.append(t1 - t0)
    return times


def call(cli, argv) -> tuple[float, object, str, str]:
    """(latency, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a traceback is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
    return perf() - t0, rc, out.getvalue(), err.getvalue()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples beyond it; the maximum if there are fewer."""
    lat = sorted(latencies)
    rank = len(lat) - TAIL_BEYOND
    if rank < 1:
        return lat[-1], 100.0, 0
    return lat[rank - 1], 100.0 * rank / len(lat), TAIL_BEYOND


def decimal(x: Fraction, digits: int = 12) -> str:
    scaled = round(x * 10**digits)
    return f"{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}"


class Run:
    """One closed-loop run and what it measured."""

    def __init__(self, cli, workload, seed, seconds, trace, tiny, spec_dir):
        self.cli = cli
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tiny, self.spec_dir = tiny, spec_dir
        self.tracer = Tracer() if trace else None
        self.latencies: list[float] = []  # of the measured (traced, if tracing) calls
        self.out_bytes = 0
        self.attempted = self.failed = self.negatives_caught = 0
        self.failures: list[str] = []
        self.operations: list[dict] = []  # measured calls: kind, argv, latency, rc
        self.gaps: list[Fraction] = []
        self.digest = hashlib.sha256()
        self.paired = [0.0, 0.0]  # traced, untraced time of the paired operations
        self.ops = 0  # operations started

    def execute(self, op, first: bool) -> None:
        """Run and check one operation; when tracing, every other operation
        also runs untraced, alternating which of the two runs first."""
        from checks import CheckFailed, check  # imports the program

        gc.collect()
        if self.tracer is None or self.ops % 2:
            runs = [self._measured(op)]
        elif self.ops % 4 == 0:
            runs = [self._measured(op)]
            gc.collect()
            runs.append(call(self.cli, op.argv))
        else:
            runs = [call(self.cli, op.argv)]
            gc.collect()
            runs.insert(0, self._measured(op))
        if len(runs) == 2:
            self.paired[0] += runs[0][0]
            self.paired[1] += runs[1][0]
        self.ops += 1
        if first:
            self.digest.update(f"{runs[0][1]}\n{runs[0][2]}\n".encode())
        for i, (_, rc, out, err) in enumerate(runs):
            self.attempted += 1
            try:
                gap = check(op, rc, out)
            except CheckFailed as exc:
                self.failed += 1
                self.failures.append(f"{' '.join(op.argv)}: {exc} {err.strip()}")
                continue
            if i == 0 and op.expect_rc != 0:
                self.negatives_caught += 1
            if i == 0 and first and gap is not None:
                self.gaps.append(gap)

    def _measured(self, op):
        if self.tracer is None:
            result = call(self.cli, op.argv)
        else:
            self.tracer.op_id = self.ops
            self.tracer.install()
            try:
                result = call(self.cli, op.argv)
            finally:
                self.tracer.uninstall()
                self.tracer.op_id = None
        self.latencies.append(result[0])
        self.out_bytes += len(result[2])
        self.operations.append({"kind": op.kind, "argv": " ".join(op.argv),
                                "latency_s": result[0], "rc": result[1]})
        return result

    def loop(self, first_cycle) -> list:
        cycles = [first_cycle]
        while True:
            index = len(cycles) - 1
            for op in cycles[-1]:
                self.execute(op, first=index == 0)
            if sum(self.latencies) >= self.seconds:
                return cycles
            cycles.append(make_cycle(self.workload, self.seed, len(cycles),
                                     self.spec_dir, self.tiny))


def mean_gap(run: Run) -> Fraction:
    return sum(run.gaps, Fraction(0)) / len(run.gaps) if run.gaps else Fraction(0)


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    lat = run.latencies
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail(lat)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
        "cert_gap": float(mean_gap(run)),
    }


def per_layer(run: Run) -> dict:
    tr = run.tracer
    spans = tr.span_totals()
    ops = len(run.latencies)
    counters = tr.counters

    def span_s(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names) / ops

    def leaf(name, i):
        return tr.leaves[name][i] / ops

    points = counters["points"]
    grid_calls = tr.leaves["singular.RieszNagyImageGrid.point"][0]
    traced, untraced = run.paired
    return {
        "cli.main_s": span_s("cli.main"),
        "cli.out_bytes": run.out_bytes / ops,
        "curves.sample_s": span_s("curves.sample"),
        "curves.points": points / ops,
        "singular.riesz_calls": leaf("singular.eval_riesz_nagy", 0),
        "singular.riesz_s": leaf("singular.eval_riesz_nagy", 1),
        "singular.riesz_per_point": counters["riesz_in_sample"] / points if points else 0,
        "singular.staircase_calls": leaf("singular.IntervalStaircase", 0),
        "singular.staircase_s": leaf("singular.IntervalStaircase", 1),
        "hausdorff.certify_s": span_s("hausdorff.certify_h1"),
        "hausdorff.chord_s": tr.chord_time() / ops,
        "hausdorff.sqrt_calls": leaf("hausdorff.sqrt_enclosure", 0),
        "hausdorff.den_bits_max": counters["den_bits_max"],
        "curves.dbe_check_s": span_s("curves.check_dbe_property"),
        "curves.dbe_pairs": counters["dbe_pairs"] / ops,
        "hausdorff.box_count_s": span_s("hausdorff.box_count"),
        "hausdorff.box_points": counters["box_points"] / ops,
        "curves.build_s": span_s("curves.build_extremal_curve"),
        "singular.mapper_build_s": span_s("singular.build_full_measure_mapper"),
        "singular.grid_hit_ratio": counters["grid_hits"] / grid_calls if grid_calls else 0,
        "exact.intersect_calls": leaf("exact.IntervalUnion.intersect", 0),
        "exact.intersect_s": leaf("exact.IntervalUnion.intersect", 1),
        "exact.setop_s": leaf("exact.IntervalUnion.union", 1)
        + leaf("exact.IntervalUnion.subtract", 1),
        "singular.pwl_calls": leaf("singular.PiecewiseLinear", 0),
        "hausdorff.checker_s": span_s("hausdorff.check_lipschitz_image",
                                      "hausdorff.check_sum_image_bound",
                                      "hausdorff.check_derivative_bound"),
        "partitions.refine_s": span_s("partitions.refine"),
        "trials.run_s": span_s("trials.run_all"),
        "trials.violations": counters["trial_violations"],
        "trace.overhead_ratio": traced / untraced - 1 if untraced else 0,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              tiny: bool = False) -> dict:
    """Run the benchmark and return the result object of the last line."""
    cli, spec_dir, first_cycle = prepare(workload, seed, tiny)
    setup_times = measure_setup(workload, seed, tiny, 2 if tiny else SETUP_PROBES)
    run = Run(cli, workload, seed, seconds, trace, tiny, spec_dir)
    cycles = run.loop(first_cycle)

    e2e = end_to_end(run, setup_times)
    lat_tail, pct, beyond = tail(run.latencies)
    values = per_layer(run) if trace else e2e
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cycles": len(cycles),
        "input_mix": input_mix(first_cycle),
        "setup_probes_s": setup_times,
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures,
        "negative_controls_caught": run.negatives_caught,
        "op_tail": {"percentile": pct, "samples": len(run.latencies),
                    "beyond": beyond, "value_s": lat_tail},
        "cert_gap_exact": decimal(mean_gap(run), 30),
        "outputs_sha256_first_cycle": run.digest.hexdigest(),
        "operations": run.operations,
        "end_to_end": e2e,
    }
    if trace:
        details["per_layer"] = values
        details["span_totals"] = run.tracer.span_totals()
        details["leaf_totals"] = dict(run.tracer.leaves)
        run.tracer.write_spans(OUT / f"spans-{workload}-{seed}.jsonl")
    suffix = "-tiny" if tiny else ""
    (OUT / f"result-{workload}-{seed}-trace{int(trace)}{suffix}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1, default=str),
        encoding="utf-8")
    report(result, details, units)
    return result


def report(result: dict, details: dict, units: dict) -> None:
    mix = details["input_mix"]
    tail_info = details["op_tail"]
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"trace {int(details['trace'])}  cycles {details['cycles']}")
    print(f"input mix per cycle: {json.dumps(mix, sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_ratio {details['fail_ratio']:.6g} ratio ({result['failed']} of "
          f"{result['attempted']} operations; {details['negative_controls_caught']} "
          f"negative controls detected)")
    print(f"  op_tail at p{tail_info['percentile']:.1f}: {tail_info['beyond']} of "
          f"{tail_info['samples']} samples beyond")
    print(f"  cert_gap exact mean {details['cert_gap_exact']} length")
    print(f"  outputs sha256 (first cycle, not gated) "
          f"{details['outputs_sha256_first_cycle']}")
    for line in details["failures"]:
        print(f"FAILED {line}", file=sys.stderr)


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced and traced, each in a fresh process; their
    reports are passed through and their metrics merged as workload/name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            *lines, last = proc.stdout.strip().splitlines()
            print("\n".join(lines), flush=True)
            result = json.loads(last)
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="a workload, or all of them, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print 'ready' and exit")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            prepare(args.workload, args.seed, args.tiny)
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.tiny)
    except (LoadError, ImportError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # The default square-root precision is part of the workloads.
    os.environ.pop("DBECURVES_PRECISION", None)
    sys.exit(main())
