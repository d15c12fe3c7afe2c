#!/usr/bin/env python3
"""Builds, runs and checks the paper-scale end-to-end benchmark (stdlib only).

Builds bench_e2e from the sources of this checkout, runs each workload as
its own process, prints every metric by name with its unit, and checks
the outputs. With --workload, the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 1 reports
the per-layer metrics instead of the end-to-end ones.

  python3 bench/e2e/run.py                          # all four workloads
  python3 bench/e2e/run.py --workload paper --seed 7 --trace 0
  python3 bench/e2e/run.py --smoke                  # <= 2,000 runs each
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("paper", "stuck_at", "sparse", "reanalyse")
DEFAULT_SEED = 0  # the seed whose plans README.md describes
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def load_benchmark():
    """Metric names, units, bounds and directions, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"run.py: {path} is missing")
    with open(path) as f:
        return json.load(f)


def load_reference():
    """CSV digests captured at the default seed, per workload."""
    with open(HERE / "reference.json") as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: no propane sources under {ROOT}; "
                         "nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise SystemExit("run.py: cmake not found")
    build_dir = Path(build_dir).resolve()
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run([cmake, "--build", str(build_dir), "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return build_dir / "bench_e2e"


def run_workload(binary, workload, seed, seconds, trace=False, smoke=False):
    """Runs one workload process; returns its parsed JSON result or None."""
    binary = Path(binary)
    work_dir = binary.parent / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", str(work_dir)]
    if smoke:
        cmd.append("--smoke")
    if trace or smoke:
        cmd += ["--trace-out", str(binary.parent / f"trace-{workload}.json")]
    if seed == DEFAULT_SEED:
        reference = load_reference()["smoke" if smoke else "full"]
        cmd += ["--reference-digest", reference[workload]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"run.py: {workload} exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def summary(values):
    """(median, first quartile, third quartile, n) of a list of numbers."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def metrics_of(result, benchmark, trace):
    """{name: {"value", "unit"}} for the end-to-end or per-layer list."""
    out = {}
    if trace:
        layers = result.get("layers", {})
        for metric in benchmark["per_layer"]:
            value = layers.get(metric["name"])
            if value is not None:
                out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    else:
        for metric in benchmark["end_to_end"]:
            values = result["e2e"].get(metric["name"], [])
            if values:
                out[metric["name"]] = {"value": summary(values)[0],
                                       "unit": metric["unit"]}
    return out


def is_correct(result, benchmark, trace, smoke):
    """The process's own checks passed and every metric is there; a smoke
    run also carries the per-layer metrics of its traced pass."""
    if result is None or result.get("exit_code") != 0 or not result["correct"]:
        return False
    for layer in ([False, True] if smoke else [trace]):
        metrics = metrics_of(result, benchmark, layer)
        expected = benchmark["per_layer" if layer else "end_to_end"]
        if len(metrics) != len(expected) or not all(
                math.isfinite(m["value"]) for m in metrics.values()):
            return False
    return result["runs"] <= 2000 if smoke else result["runs"] == 52000


def report(workload, result, metrics, benchmark, trace):
    """Human-readable block: provenance, each metric with unit, checks."""
    if result is None:
        print(f"{workload}: no result")
        return
    p = result["provenance"]
    print(f"{workload}: {result['runs']} runs, seed {result['seed']}, "
          f"T={p['threads']} of nproc={p['nproc']}, {p['cpu_model']}, "
          f"flags {'+'.join(p['cpu_flags']) or 'none'}, "
          f"screen {p['screen_isa']}, {p['build_type']}, "
          f"PROPANE_BATCH_NATIVE={p['batch_native']}")
    if trace:
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        stages = {k: m["value"] for k, m in metrics.items()
                  if k.startswith("stage.")}
        if stages.get("stage.unattributed_s") is not None:
            print(f"  stage.unattributed_s is "
                  f"{100 * stages['stage.unattributed_s'] / sum(stages.values()):.3f}%"
                  f" of the summed stages")
    else:
        for metric in benchmark["end_to_end"]:
            values = result["e2e"].get(metric["name"], [])
            if not values:
                print(f"  {metric['name']:16s} missing")
                continue
            med, q1, q3, n = summary(values)
            print(f"  {metric['name']:16s} {med:14.6g} {metric['unit']:10s} "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':16s} {failed / attempted:14.6g} {'ratio':10s} "
          f"({failed} of {attempted} repetitions)")
    for failure in result["failures"]:
        print(f"    {failure}")
    oracle = result["oracle"]
    print(f"  oracle: {oracle['checked'] - oracle['mismatches']} of "
          f"{oracle['checked']} runs match the cold scalar system; "
          f"CSV digest {result['csv_digest']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four, one process "
                             "each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="timed repetitions run back to back for this "
                             "long, at least three (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced pass and report per-layer "
                             "metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="<= 2,000 runs per workload, one repetition")
    parser.add_argument("--build", default=str(ROOT / ".bench_build"),
                        help="build directory (configured on first use)")
    parser.add_argument("--bin", help="use this bench_e2e binary as is")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    benchmark = load_benchmark()
    binary = Path(args.bin) if args.bin else build(args.build)
    trace = args.trace == 1
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seconds = 0 if args.smoke else (
        benchmark["run_seconds"] if args.seconds is None else args.seconds)
    all_correct = True
    for workload in workloads:
        result = run_workload(binary, workload, args.seed, seconds, trace,
                              args.smoke)
        metrics = metrics_of(result, benchmark, trace) if result else {}
        correct = is_correct(result, benchmark, trace, args.smoke)
        all_correct = all_correct and correct
        report(workload, result, metrics, benchmark, trace)
        if trace and result is not None:
            print(f"  trace: {binary.parent / f'trace-{workload}.json'}")
        if args.workload:
            print(json.dumps({
                "correct": correct,
                "attempted": result["attempted"] if result else 1,
                "failed": result["failed"] if result else 1,
                "metrics": metrics,
            }))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
