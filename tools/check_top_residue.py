#!/usr/bin/env python3
"""Checks that `campaign top` and `campaign trace` skip a killed session's
torn line before either kind of session opener.

For each `delta.plan` (run, resume, delta) or `bootstrap.plan` (bootstrap)
after the log's first line, copies a telemetry log, cuts the line just
before that opener in half -- what a session SIGKILLed mid-write leaves
behind -- and runs `top` and `trace` on the copy. Each must succeed and
report exactly one torn line skipped. The log must hold both openers.

Usage: check_top_residue.py <propane> <telemetry.ndjson> <scratch-dir>
"""

import subprocess
import sys
from pathlib import Path


def main() -> int:
    cli, log, scratch = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    lines = log.read_text().splitlines()
    cases = [(i, opener) for i, line in enumerate(lines) if i > 0
             for opener in ("delta.plan", "bootstrap.plan")
             if line.startswith('{"event":"%s"' % opener)]
    if {opener for _, opener in cases} != {"delta.plan", "bootstrap.plan"}:
        print(f"check_top_residue: FAIL: {log} lacks a later session of "
              "each kind", file=sys.stderr)
        return 1
    scratch.mkdir(parents=True, exist_ok=True)
    failed = False
    for i, opener in cases:
        torn = list(lines)
        torn[i - 1] = torn[i - 1][: len(torn[i - 1]) // 2]
        copy = scratch / f"torn_line_{i}.ndjson"
        copy.write_text("\n".join(torn) + "\n")
        for sub in ("top", "trace"):
            # --out is trace's output; top ignores it.
            result = subprocess.run(
                [cli, "campaign", sub, "--journal", str(scratch),
                 "--metrics-out", str(copy),
                 "--out", str(scratch / "trace.json")],
                capture_output=True, text=True, check=False)
            ok = (result.returncode == 0 and
                  "(1 torn line(s) skipped)" in result.stdout)
            failed |= not ok
            print(f"check_top_residue: {'OK' if ok else 'FAIL'}: campaign "
                  f"{sub}, torn line {i} before {opener}")
            if not ok:
                print(f"exit {result.returncode}\n{result.stdout}"
                      f"{result.stderr}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
