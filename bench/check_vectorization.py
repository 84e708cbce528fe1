#!/usr/bin/env python3
"""Gate: the powertrain lane loop must still auto-vectorize.

Reads a build log produced with -fopt-info-vec (GCC prints one
"optimized: ... loop vectorized ..." remark per vectorized loop,
prefixed with the source path) and requires at least one vectorized
loop in every required translation unit. By default that is
src/vehicle/powertrain.cpp: Powertrain::power_lanes is the one lane
loop left in the tree, and power_trace runs it over every route's
samples. A refactor that reintroduces a libm call, an unspeculatable
load or data-dependent control flow into it silently drops it back to
scalar speed — the remark disappearing is the earliest, cheapest
signal of that regression.

Usage: check_vectorization.py BUILD_LOG [--require FILE ...]
"""

import argparse
import re
import sys

from checklib import fail

# Translation units holding a lane loop (Powertrain::power_lanes).
DEFAULT_REQUIRED = [
    "src/vehicle/powertrain.cpp",
]

REMARK = re.compile(r"^(?P<file>\S+?):\d+:\d+: optimized:.*loop vectorized")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("build_log", help="build output captured with -fopt-info-vec")
    ap.add_argument(
        "--require",
        action="append",
        default=None,
        metavar="FILE",
        help="source file that must show a vectorized loop "
        "(repeatable; defaults to src/vehicle/powertrain.cpp)",
    )
    args = ap.parse_args()
    required = args.require or DEFAULT_REQUIRED

    vectorized = set()
    with open(args.build_log) as f:
        for line in f:
            m = REMARK.match(line.strip())
            if m:
                vectorized.add(m.group("file"))

    if not vectorized:
        return fail("no 'loop vectorized' remarks found at all - was the "
                    "build run with -fopt-info-vec?")

    failed = []
    for req in required:
        # Remark paths may be absolute or relative; match on suffix.
        hit = any(v == req or v.endswith("/" + req) for v in vectorized)
        print(f"{'ok  ' if hit else 'MISS'}  {req}")
        if not hit:
            failed.append(req)

    if failed:
        return fail(f"{len(failed)} lane-loop TU(s) lost vectorization: "
                    + ", ".join(failed))
    print(f"\nall {len(required)} lane-loop TU(s) report vectorized loops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
