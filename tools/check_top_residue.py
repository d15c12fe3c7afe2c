#!/usr/bin/env python3
"""Checks that `propane campaign top` skips a killed session's torn line.

Copies a telemetry log holding two sessions, cuts the line just before the
second session's first event (`delta.plan`) in half -- what a session
SIGKILLed mid-write leaves behind -- and runs `campaign top` on the copy.
It must succeed and report exactly one torn line skipped.

Usage: check_top_residue.py <propane> <telemetry.ndjson> <scratch-dir>
"""

import subprocess
import sys
from pathlib import Path


def main() -> int:
    cli, log, scratch = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    lines = log.read_text().splitlines()
    starts = [i for i, line in enumerate(lines)
              if line.startswith('{"event":"delta.plan"')]
    if len(starts) < 2 or starts[1] == 0:
        print(f"check_top_residue: FAIL: {log} holds fewer than two "
              "sessions", file=sys.stderr)
        return 1
    torn = starts[1] - 1
    lines[torn] = lines[torn][: len(lines[torn]) // 2]
    scratch.mkdir(parents=True, exist_ok=True)
    copy = scratch / "torn.ndjson"
    copy.write_text("\n".join(lines) + "\n")
    result = subprocess.run(
        [cli, "campaign", "top", "--journal", str(scratch),
         "--metrics-out", str(copy)],
        capture_output=True, text=True, check=False)
    if result.returncode != 0 or "(1 torn line(s) skipped)" not in result.stdout:
        print(f"check_top_residue: FAIL: exit {result.returncode}\n"
              f"{result.stdout}{result.stderr}", file=sys.stderr)
        return 1
    print("check_top_residue: OK: torn line before delta.plan skipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
