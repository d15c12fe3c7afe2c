#!/usr/bin/env python3
"""Parent/change comparison for the end-to-end benchmark (stdlib only).

Runs ten pairs of the parent's and the change's bench_e2e, pair i on seed i
on both sides, alternating which side runs first, and prints one row per
workload x end-to-end metric: both medians and quartiles, the fraction of
pairs the change won and lost (ties count for neither) and a verdict:

  gain        the change won >= 9/10 of the pairs and the medians differ
              by more than the parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json, or the change lost
              >= 9/10 of the pairs and the median of the per-pair relative
              losses exceeds their interquartile range. Drift that hits
              both sides of a pair cancels in that difference, so a loss
              smaller than the bound or the parent's own spread still shows;
  unresolved  neither, and either side's spread (IQR / median) exceeds the
              bound, unless every change run beat every parent run;
  no change   anything else.

Results whose provenance differs (CPU, flags, thread count, build type,
kernel ISA path) are not comparable: their rows print null and the reason.
Each pair must also produce the same permeability CSV on both sides.

Configure each build directory once with its own checkout's run.py, e.g.
  (cd ../parent && python3 bench/e2e/run.py --smoke)
  python3 bench/e2e/compare.py --parent ../parent/.bench_build \
      --change .bench_build
"""
import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402  (run.py in this directory)

PAIRS = 10
SEEDS = range(1, PAIRS + 1)
DECISIVE_FRACTION = 0.9


def binary_of(build_dir):
    build_dir = Path(build_dir).resolve()
    if not (build_dir / "CMakeCache.txt").is_file():
        raise SystemExit(f"compare.py: {build_dir} is not configured; run "
                         f"that checkout's bench/e2e/run.py --build {build_dir}")
    return bench.build(build_dir)


def provenance_difference(results):
    """None when every result has the same provenance, else the reason."""
    first = results[0]["provenance"]
    for result in results[1:]:
        for key, value in result["provenance"].items():
            if first.get(key) != value:
                return f"provenance differs: {key} {first.get(key)!r} vs {value!r}"
    return None


def verdict(metric, parent, change):
    """(wins, losses, verdict) of the change against the parent."""
    lower = metric["better"] == "lower"
    p_med, p_q1, p_q3, _ = bench.summary(parent)
    c_med, c_q1, c_q3, _ = bench.summary(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    decisive = math.ceil(DECISIVE_FRACTION * len(parent))
    pair_loss, pair_q1, pair_q3, _ = bench.summary(
        [((c - p) if lower else (p - c)) / p for p, c in zip(parent, change)])
    if worse_by > metric["bound"] or (
            losses >= decisive and pair_loss > pair_q3 - pair_q1):
        return wins, losses, "regression"
    if (wins >= decisive and worse_by < 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        return wins, losses, "gain"
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    all_better = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if spread > metric["bound"] and not all_better:
        return wins, losses, "unresolved"
    return wins, losses, "no change"


def main():
    benchmark = bench.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent build dir")
    parser.add_argument("--change", required=True, help="change build dir")
    args = parser.parse_args()
    workloads = bench.WORKLOADS

    sides = {"parent": binary_of(args.parent), "change": binary_of(args.change)}
    seconds = benchmark["run_seconds"]
    results = {(w, s): [] for w in workloads for s in sides}
    problems = []
    for i, seed in enumerate(SEEDS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            pair = {}
            for side in order:
                result = bench.run_workload(sides[side], workload, seed,
                                            seconds)
                if not bench.is_correct(result, benchmark, False, False):
                    problems.append(f"{workload} seed {seed}: {side} run "
                                    "failed its checks")
                pair[side] = result
            if all(pair.values()):
                if pair["parent"]["csv_digest"] != pair["change"]["csv_digest"]:
                    problems.append(f"{workload} seed {seed}: the CSVs differ")
                for side, result in pair.items():
                    results[(workload, side)].append(result)
            print(f"pair {i + 1}/{PAIRS} {workload} seed {seed} done",
                  file=sys.stderr)

    header = (f"{'workload':10s} {'metric':16s} {'parent median [q1, q3]':40s} "
              f"{'change median [q1, q3]':40s} {'won':>6s} {'lost':>6s}  verdict")
    print(header)
    for workload in workloads:
        parent, change = results[(workload, "parent")], results[(workload,
                                                                 "change")]
        if len(parent) < PAIRS or len(change) < PAIRS:
            reason = "failed runs"
        else:
            reason = provenance_difference(parent + change)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if reason is not None:
                print(f"{workload:10s} {name:16s} null ({reason})")
                continue
            p = [bench.summary(r["e2e"][name])[0] for r in parent]
            c = [bench.summary(r["e2e"][name])[0] for r in change]
            wins, losses, word = verdict(metric, p, c)
            p_med, p_q1, p_q3, _ = bench.summary(p)
            c_med, c_q1, c_q3, _ = bench.summary(c)
            print(f"{workload:10s} {name:16s} "
                  f"{f'{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]':40s} "
                  f"{f'{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]':40s} "
                  f"{f'{wins}/{len(p)}':>6s} {f'{losses}/{len(p)}':>6s}  {word}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
