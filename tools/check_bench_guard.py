#!/usr/bin/env python3
"""Runs/s floor over the paper workload of the end-to-end benchmark.

Both arguments are files whose last non-empty line is the JSON object that
`bench/e2e/run.py --workload paper` prints last: {"correct", "attempted",
"failed", "metrics"}. The first is a fresh run's output; the second is the
checked-in reference, BENCH_e2e.json, which is that same line recorded with
the run_seconds of BENCHMARK.json. The guard fails unless the fresh run is
correct (CSV digest and cold-oracle runs match), no repetition failed, and
its median runs/s is at least a tenth of the reference's.

The factor of ten spans slower CI machines and the noise of a run of a few
seconds, so the guard catches order-of-magnitude regressions only. The
request-packing bound, the delta path and the bootstrap are checked by
tests, not here (tests/fi/campaign_test.cpp, tests/fi/batch_equivalence_test.cpp,
tests/fi/bootstrap_test.cpp).

Usage: check_bench_guard.py <measured> <reference>
"""

import json
import sys

TOLERANCE = 10.0


def fail(message: str) -> None:
    print(f"check_bench_guard: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def last_json_line(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines()
                     if line.strip()]
        if not lines:
            fail(f"{path} is empty")
        result = json.loads(lines[-1])
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load {path}: {error}")
    if not isinstance(result, dict):
        fail(f"{path}: last line is not a JSON object")
    return result


def runs_per_s(label: str, result: dict) -> float:
    value = result.get("metrics", {}).get("runs_per_s", {}).get("value")
    if not isinstance(value, (int, float)) or value <= 0:
        fail(f"{label}: runs_per_s missing or non-positive: {value}")
    return float(value)


def main() -> None:
    if len(sys.argv) != 3:
        fail("usage: check_bench_guard.py <measured> <reference>")
    measured = last_json_line(sys.argv[1])
    reference = last_json_line(sys.argv[2])
    if measured.get("correct") is not True:
        fail("measured run is not correct (CSV digest, oracle runs or a "
             "missing metric)")
    if measured.get("failed") != 0:
        fail(f"{measured.get('failed')} of {measured.get('attempted')} "
             f"measured repetition(s) failed")
    got = runs_per_s("measured", measured)
    want = runs_per_s("reference", reference)
    floor = want / TOLERANCE
    if got < floor:
        fail(f"{got:.0f} runs/s is below the floor {floor:.0f} "
             f"(reference {want:.0f} / {TOLERANCE:g})")
    print(f"check_bench_guard: OK: {got:.0f} runs/s >= floor {floor:.0f} "
          f"(reference {want:.0f})")


if __name__ == "__main__":
    main()
