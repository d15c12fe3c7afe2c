#!/usr/bin/env python3
"""Perf-regression guard over bench_campaign's BENCH_campaign.json.

Two layers of checking, matching what is deterministic where:

  1. Lane occupancy, exactly. The batch planner is deterministic: for a
     given scale it must pack the batched/sparse/delta lane sets into the
     minimum number of batches (ceil(lanes / width)), and the recorded
     lane_occupancy must equal lanes / (batches * width) to the digit.
     Any looseness here means the planner regressed to thinner packing
     (e.g. one batch per (test case, fire tick) group) -- that is a
     correctness bug in the plan, not machine noise, so it fails even
     though the journals would still be byte-identical.

  2. Throughput, within a generous factor of the committed reference.
     CI machines are slower and differently shaped than the reference
     box and the smoke scale amortises fixed costs worse than the
     default scale the committed JSON was recorded at, so the guard only
     catches order-of-magnitude regressions: measured runs/s of the
     batch and sparse-batch sections must be at least reference / TOL.
     The relative ratio (batch speedup_vs_cold) is NOT asserted -- on
     1-2 vCPU CI runners it swings far more than the absolute floor does.

Usage: check_bench_guard.py <measured.json> <reference.json> [tolerance]
"""

import json
import math
import sys

# Measured runs/s may be this many times below the committed reference
# before the guard fires. Generous by design: it spans the CI-machine
# slowdown AND the smoke-vs-default scale gap.
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


def check_occupancy(label: str, section: dict) -> None:
    """The planner must have packed `label`'s lanes maximally."""
    for key in ("batches", "batched_lanes", "lane_width", "lane_occupancy"):
        if key not in section:
            fail(f"{label}: missing field '{key}'")
    batches = section["batches"]
    lanes = section["batched_lanes"]
    width = section["lane_width"]
    if batches <= 0 or lanes <= 0 or width <= 0:
        fail(f"{label}: degenerate section {section}")
    minimum = math.ceil(lanes / width)
    if batches != minimum:
        fail(
            f"{label}: {lanes} lane(s) packed into {batches} batch(es) of "
            f"width {width}; a maximal packing needs exactly {minimum} -- "
            f"the planner stopped packing across groups"
        )
    expected = lanes / (batches * width)
    if not math.isclose(section["lane_occupancy"], expected, rel_tol=1e-9):
        fail(
            f"{label}: recorded lane_occupancy {section['lane_occupancy']} "
            f"!= {lanes}/({batches}*{width}) = {expected}"
        )
    print(
        f"check_bench_guard: {label}: occupancy {expected:.4f} "
        f"({lanes} lane(s) / {batches} batch(es) x width {width}) -- maximal"
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

    # Occupancy: exact, deterministic at any scale.
    check_occupancy("batch", measured["batch"])
    check_occupancy("sparse.batch", measured["sparse"]["batch"])
    check_occupancy("delta.batch", measured["delta"]["batch"])

    # Delta must actually have routed its invalidated runs through the
    # batch kernel (executed > 0 proves the kernel ran, replayed > 0
    # proves the baseline was consulted).
    delta = measured["delta"]
    if delta.get("executed", 0) <= 0 or delta.get("replayed", 0) <= 0:
        fail(f"delta section shows no executed+replayed split: {delta}")

    # Bootstrap resampling: schema only (no reference floor).
    if "bootstrap" in measured:
        check_bootstrap(measured["bootstrap"])

    # Throughput: generous lower bound against the committed reference.
    check_throughput("batch", measured["batch"], reference["batch"],
                     tolerance)
    check_throughput("sparse.batch", measured["sparse"]["batch"],
                     reference["sparse"]["batch"], tolerance)

    print("check_bench_guard: OK")


if __name__ == "__main__":
    main()
