#!/usr/bin/env python3
"""Gate: the powertrain lane loop must still auto-vectorize, and the
LTV QP must stay scalar.

Reads a build log produced with -fopt-info-vec (GCC prints one
"optimized: ..." remark per vectorized loop or basic block, prefixed
with the source path) and checks two things:

* Every required translation unit shows at least one vectorized loop.
  By default that is src/vehicle/powertrain.cpp: Powertrain::power_lanes
  is the one lane loop left in the tree, and power_trace runs it over
  every route's samples. A refactor that reintroduces a libm call, an
  unspeculatable load or data-dependent control flow into it silently
  drops it back to scalar speed — the remark disappearing is the
  earliest, cheapest signal of that regression.
* No vectorization remark of any kind (loop or basic block) names a
  forbidden source file. CI forbids src/optim/ltv_qp.cpp and the two
  headers only it instantiates, small_mat.h and block_tridiag.h: the
  banded QP is bound by chains of dependent divides and square roots,
  and vector lanes lengthen those chains, so the QP's translation unit
  is compiled with -fno-tree-vectorize (src/optim/CMakeLists.txt,
  docs/PERFORMANCE.md). A remark naming one of them means the flag was
  lost or the kernels were instantiated in a vectorized unit.

Usage: check_vectorization.py BUILD_LOG [--require FILE ...]
                              [--forbid FILE ...]
"""

import argparse
import re
import sys

from checklib import fail

# Translation units holding a lane loop (Powertrain::power_lanes).
DEFAULT_REQUIRED = [
    "src/vehicle/powertrain.cpp",
]

LOOP = re.compile(r"^(?P<file>\S+?):\d+:\d+: optimized:.*loop vectorized")
ANY_VEC = re.compile(r"^(?P<file>\S+?):\d+:\d+: optimized:.*vectoriz")


def names(path, src):
    """Remark paths may be absolute or relative; match on suffix."""
    return path == src or path.endswith("/" + src)


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
    ap.add_argument(
        "--forbid",
        action="append",
        default=[],
        metavar="FILE",
        help="source file no vectorization remark may name "
        "(repeatable; loop and basic-block remarks alike)",
    )
    args = ap.parse_args()
    required = args.require or DEFAULT_REQUIRED

    vectorized = set()
    remarks = []
    with open(args.build_log) as f:
        for line in f:
            line = line.strip()
            m = LOOP.match(line)
            if m:
                vectorized.add(m.group("file"))
            if ANY_VEC.match(line):
                remarks.append(line)

    if not vectorized:
        return fail("no 'loop vectorized' remarks found at all - was the "
                    "build run with -fopt-info-vec?")

    missing = []
    for req in required:
        hit = any(names(v, req) for v in vectorized)
        print(f"{'ok  ' if hit else 'MISS'}  {req} (vectorized loop required)")
        if not hit:
            missing.append(req)

    leaked = []
    for src in args.forbid:
        hits = [r for r in remarks if names(ANY_VEC.match(r).group("file"), src)]
        print(f"{'ok  ' if not hits else 'LEAK'}  {src} (must stay scalar)")
        for r in hits[:5]:
            print(f"        {r}")
        if hits:
            leaked.append(f"{src} ({len(hits)} remark(s))")

    if missing:
        return fail(f"{len(missing)} lane-loop TU(s) lost vectorization: "
                    + ", ".join(missing))
    if leaked:
        return fail("vectorized code in scalar-only source(s): "
                    + ", ".join(leaked))
    print(f"\nall {len(required)} lane-loop TU(s) report vectorized loops; "
          f"{len(args.forbid)} scalar-only source(s) report none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
