#!/usr/bin/env python3
"""Validates a `propane campaign trace` Chrome trace-event JSON file.

Two layers of checking:

  1. Schema: the file is one JSON object with displayTimeUnit/traceEvents;
     every event carries ph/name/pid/tid, timestamps where its phase needs
     them, a duration on complete ("X") events, a numeric args.value on
     counter ("C") samples and a scope on instants ("i").

  2. Ancestry: every synthesized campaign.run (golden run) and
     campaign.batch (kernel request) span must reach its session's
     `campaign` root span (parent_span_id 0) by walking
     args.parent_span_id through the spans of its own process track
     (campaign.run -> campaign.golden_phase -> campaign, campaign.batch ->
     campaign.injection_phase -> campaign), and the trace must hold at
     least one of each. Each session numbers its spans from 1, so span
     ids are looked up per pid. A span that detaches from its phase
     leaves the trace loadable but the campaign timeline unexplained, so
     CI fails here.

Usage: check_trace.py <trace.json>
"""

import json
import sys

VALID_PHASES = {"X", "C", "i", "M"}


def fail(message: str) -> None:
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_trace.py <trace.json>")
    try:
        with open(sys.argv[1], encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load {sys.argv[1]}: {error}")

    if trace.get("displayTimeUnit") != "ms":
        fail("missing displayTimeUnit")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    spans = {}  # (pid, span_id) -> (name, parent_span_id)
    synthesized = {"campaign.run": [], "campaign.batch": []}
    counts = {phase: 0 for phase in VALID_PHASES}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        phase = event.get("ph")
        if phase not in VALID_PHASES:
            fail(f"{where}: unexpected phase {phase!r}")
        counts[phase] += 1
        for key in ("name", "pid", "tid"):
            if key not in event:
                fail(f"{where}: missing {key!r}")
        if phase != "M" and not isinstance(event.get("ts"), int):
            fail(f"{where}: non-integer ts")
        args = event.get("args", {})
        if phase == "X":
            if not isinstance(event.get("dur"), int):
                fail(f"{where}: X event without integer dur")
            span_id = args.get("span_id")
            if span_id:
                spans[(event["pid"], span_id)] = (
                    event["name"], args.get("parent_span_id", 0))
            if event["name"] in synthesized:
                synthesized[event["name"]].append(
                    (where, event["pid"], args.get("parent_span_id", 0)))
        elif phase == "C":
            if not isinstance(args.get("value"), (int, float)):
                fail(f"{where}: counter without numeric args.value")
        elif phase == "i":
            if event.get("s") != "p":
                fail(f"{where}: instant without process scope")

    for name, found in synthesized.items():
        if not found:
            fail(f"no {name} spans in the trace")

    checked = [(name, *entry) for name, found in synthesized.items()
               for entry in found]
    for kind, where, pid, parent in checked:
        chain = []
        while parent:
            if (pid, parent) not in spans:
                fail(f"{where}: parent_span_id {parent} is not a span of "
                     f"pid {pid}")
            name, parent = spans[(pid, parent)]
            chain.append(name)
            if len(chain) > 16:
                fail(f"{where}: ancestry loop through {chain}")
        if not chain or chain[-1] != "campaign":
            fail(f"{where}: {kind} never reaches the campaign root "
                 f"span (chain: {chain or 'detached'})")

    print(
        f"check_trace: OK: {len(events)} events "
        f"({counts['X']} X, {counts['C']} C, {counts['i']} i, "
        f"{counts['M']} M); all {len(synthesized['campaign.run'])} "
        f"campaign.run and {len(synthesized['campaign.batch'])} "
        f"campaign.batch spans reach the campaign root span"
    )


if __name__ == "__main__":
    main()
