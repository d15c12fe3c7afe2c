#!/usr/bin/env python3
"""Perf-regression guard over bench_campaign's BENCH_campaign.json.

Two layers of checking, matching what is deterministic where:

  1. Request packing, bounded exactly. The planner is deterministic: each
     section plans one range into requests, one pool of runs per test
     case. A pool of at least `width` runs is dealt into chunks of whole
     kernel widths, so at most one of its requests holds fewer than
     `width` runs; thinner pools are packed across test cases `width`
     runs at a time, leaving at most one more short request. With at
     most T = test_cases + 1 short requests, N requests holding S runs
     in all satisfy N <= T + (S - T) // width, and the recorded
     lane_occupancy must equal S / (N * width) to the digit (above 1.0
     when requests hold more runs than the kernel has slots, which
     refill then shares). Any looseness means the planner regressed to
     thinner packing (e.g. one request per (test case, fire tick) group)
     -- a bug in the plan, not machine noise, so it fails even though the
     journals would still be byte-identical. The bound holds for any
     thread count, which only changes how many chunks a pool is dealt
     into.

  2. Throughput, within a generous factor of the committed reference.
     Compare like with like: CI runs the bench at the default scale the
     committed JSON was recorded at (at smoke scale a nine-run section
     times fixed costs, not throughput). CI machines are slower and
     differently shaped than the reference box, so the guard only
     catches order-of-magnitude regressions: measured runs/s of the
     batch and sparse-batch sections must be at least reference / TOL.
     The relative ratio (batch speedup_vs_cold) is NOT asserted -- on
     1-2 vCPU CI runners it swings far more than the absolute floor does.

Without checking them, the guard also prints the divergence-screen ISA
path the batch kernel compiled to and the CPU count of the measured JSON
and of the reference ("not recorded" in JSON written before bench_campaign
recorded them), so a throughput comparison states what it compares.

Usage: check_bench_guard.py <measured.json> <reference.json> [tolerance]
"""

import json
import math
import sys

# Measured runs/s may be this many times below the committed reference
# before the guard fires. Generous by design: it spans the CI-machine
# slowdown and the run-to-run noise of a one-second bench.
DEFAULT_TOLERANCE = 10.0


def fail(message: str) -> None:
    print(f"check_bench_guard: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load {path}: {error}")


def check_packing(label: str, section: dict) -> None:
    """The planner must have packed `label`'s runs into full requests."""
    for key in ("requests", "request_lanes", "test_cases", "lane_width",
                "lane_occupancy"):
        if key not in section:
            fail(f"{label}: missing field '{key}'")
    requests = section["requests"]
    lanes = section["request_lanes"]
    test_cases = section["test_cases"]
    width = section["lane_width"]
    if requests <= 0 or lanes < requests or test_cases <= 0 or width <= 0:
        fail(f"{label}: degenerate section {section}")
    tails = min(test_cases + 1, lanes)
    most = tails + (lanes - tails) // width
    if requests > most:
        fail(
            f"{label}: {lanes} run(s) planned into {requests} request(s) "
            f"of width {width}; with at most {tails} short request(s) "
            f"(one per test-case pool plus one of packed thin pools) the "
            f"plan needs at most {most} -- the planner stopped filling "
            f"requests"
        )
    occupancy = lanes / (requests * width)
    if not math.isclose(section["lane_occupancy"], occupancy, rel_tol=1e-9):
        fail(
            f"{label}: recorded lane_occupancy {section['lane_occupancy']} "
            f"!= {lanes}/({requests}*{width}) = {occupancy}"
        )
    print(
        f"check_bench_guard: {label}: {requests} request(s) <= {most} for "
        f"{lanes} run(s) at width {width}, occupancy {occupancy:.4f} -- "
        f"packed full"
    )


def check_bootstrap(section: dict) -> None:
    """Schema-check the bootstrap resampling section when present.

    The resampler's replicates/s depends on the record count and the
    machine, so there is no reference comparison -- only shape and
    positivity. Absent sections are tolerated so the guard still accepts
    JSON recorded by older bench binaries.
    """
    for key in ("replicates", "records", "cells", "wall_s",
                "replicates_per_s"):
        if key not in section:
            fail(f"bootstrap: missing field '{key}'")
    if section["replicates"] <= 0 or section["records"] <= 0:
        fail(f"bootstrap: degenerate section {section}")
    rate = section["replicates_per_s"]
    if not isinstance(rate, (int, float)) or rate <= 0:
        fail(f"bootstrap: replicates_per_s missing or non-positive: {rate}")
    print(
        f"check_bench_guard: bootstrap: {section['replicates']} replicates "
        f"over {section['records']} record(s) at {rate:.0f} replicates/s"
    )


def print_provenance(label: str, bench: dict) -> None:
    """Print the screen ISA path and CPU count `bench` was recorded with."""
    isa = bench.get("screen_isa", "not recorded")
    nproc = bench.get("nproc", "not recorded")
    print(f"check_bench_guard: {label}: screen ISA {isa}, nproc {nproc}")


def check_throughput(label: str, measured: dict, reference: dict,
                     tolerance: float) -> None:
    got = measured.get("runs_per_s")
    want = reference.get("runs_per_s")
    if not isinstance(got, (int, float)) or got <= 0:
        fail(f"{label}: measured runs_per_s missing or non-positive: {got}")
    if not isinstance(want, (int, float)) or want <= 0:
        fail(f"{label}: reference runs_per_s missing or non-positive: {want}")
    floor = want / tolerance
    if got < floor:
        fail(
            f"{label}: measured {got:.0f} runs/s is below the regression "
            f"floor {floor:.0f} (reference {want:.0f} / tolerance "
            f"{tolerance:g})"
        )
    print(
        f"check_bench_guard: {label}: {got:.0f} runs/s >= floor "
        f"{floor:.0f} (reference {want:.0f})"
    )


def main() -> None:
    if len(sys.argv) not in (3, 4):
        fail("usage: check_bench_guard.py <measured.json> <reference.json> "
             "[tolerance]")
    measured = load(sys.argv[1])
    reference = load(sys.argv[2])
    tolerance = float(sys.argv[3]) if len(sys.argv) == 4 else DEFAULT_TOLERANCE
    if tolerance < 1.0:
        fail(f"tolerance must be >= 1, got {tolerance}")

    for key in ("batch", "sparse", "delta"):
        if key not in measured:
            fail(f"measured JSON has no '{key}' section")
        if key not in reference:
            fail(f"reference JSON has no '{key}' section")

    # Request packing: exact, deterministic at any scale.
    check_packing("batch", measured["batch"])
    check_packing("sparse.batch", measured["sparse"]["batch"])
    check_packing("delta.batch", measured["delta"]["batch"])

    # Delta must actually have routed its invalidated runs through the
    # batch kernel (executed > 0 proves the kernel ran, replayed > 0
    # proves the baseline was consulted).
    delta = measured["delta"]
    if delta.get("executed", 0) <= 0 or delta.get("replayed", 0) <= 0:
        fail(f"delta section shows no executed+replayed split: {delta}")

    # Bootstrap resampling: schema only (no reference floor).
    if "bootstrap" in measured:
        check_bootstrap(measured["bootstrap"])

    print_provenance("measured", measured)
    print_provenance("reference", reference)

    # Throughput: generous lower bound against the committed reference.
    check_throughput("batch", measured["batch"], reference["batch"],
                     tolerance)
    check_throughput("sparse.batch", measured["sparse"]["batch"],
                     reference["sparse"]["batch"], tolerance)

    print("check_bench_guard: OK")


if __name__ == "__main__":
    main()
