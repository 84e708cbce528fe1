#!/usr/bin/env python3
"""Validate an otem.trace.v1 Chrome trace file.

Used by the CI trace-smoke step: a short scenario is run with
trace_out=<path>, then this script checks that the file is what
chrome://tracing / ui.perfetto.dev expect —

  - top-level object with schema "otem.trace.v1" and a non-empty
    traceEvents array;
  - every event is a complete-duration ("ph":"X") event carrying
    name/cat/ts/dur/pid/tid, with ts/dur finite and dur >= 0;
  - every event carries args.id/args.parent/args.depth, and no two
    events share an args.id (whether a child lies inside its parent's
    interval is not checked: overwritten flight-recorder rings may
    drop parents);
  - with --require NAME (repeatable), at least one event with that
    exact name exists — CI requires the scenario.run -> ltv.solve ->
    qp.factorize chain to prove every layer's spans survived to disk.

Usage: check_trace.py TRACE.json [--require scenario.run ...]
Exit code 1 on any violation, with a reason on stderr.
"""

import argparse
import math
import sys

import checklib
from checklib import fail

REQUIRED_EVENT_FIELDS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace_json")
    ap.add_argument("--require", action="append", default=[],
                    metavar="NAME",
                    help="span name that must appear at least once")
    args = ap.parse_args()

    doc = checklib.load_json(args.trace_json)
    checklib.require_schema(doc, "otem.trace.v1", args.trace_json)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail("traceEvents is missing or empty")

    names = {}
    first_with_id = {}
    for i, e in enumerate(events):
        for field in REQUIRED_EVENT_FIELDS:
            if field not in e:
                return fail(f"event {i} lacks '{field}': {e}")
        if e["ph"] != "X":
            return fail(f"event {i} has ph={e['ph']!r}, expected 'X'")
        if not (math.isfinite(e["ts"]) and math.isfinite(e["dur"])):
            return fail(f"event {i} has non-finite ts/dur: {e}")
        if e["dur"] < 0:
            return fail(f"event {i} has negative dur: {e}")
        span_args = e.get("args", {})
        for field in ("id", "parent", "depth"):
            if field not in span_args:
                return fail(f"event {i} args lack '{field}': {e}")
        span_id = span_args["id"]
        if span_id in first_with_id:
            return fail(f"events {first_with_id[span_id]} and {i} share "
                        f"args.id {span_id}")
        first_with_id[span_id] = i
        names[e["name"]] = names.get(e["name"], 0) + 1

    missing = [n for n in args.require if n not in names]
    if missing:
        return fail(f"required span name(s) absent: {', '.join(missing)}; "
                    f"present: {', '.join(sorted(names))}")

    total = sum(names.values())
    print(f"ok: {total} events, {len(names)} distinct span names "
          f"({', '.join(sorted(names))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
