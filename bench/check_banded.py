#!/usr/bin/env python3
"""Fail when the banded KKT path stops being O(H) per ADMM iteration,
or stops beating the dense oracle at H=60.

Reads a google-benchmark JSON file (as written by perf_solver with
--benchmark_out) and inspects the `stage_ops_per_iter` counter of the
warm BM_LtvControlStep/{horizon}/1 rows: the number of fixed-size
stage-block kernel applications (block Cholesky factor + solve sweeps,
stage matvecs) each ADMM iteration pays. On the block-tridiagonal
factorisation this count is linear in the horizon by construction, so
the normalised cost stage_ops_per_iter / horizon must be the SAME
constant at every horizon. A superlinear regression — someone sneaking
a dense operation back onto the hot path — shows up as that constant
growing with H and fails the gate.

The scaling gate runs on exact operation COUNTS, not wall-clock:
counts are machine-independent, so loaded CI runners can't flake it
(same policy as check_warm_start.py). The counts include only the
stage blocks each polish round actually re-assembles and re-factors.

One wall-clock gate rides along, as a ratio of two rows of the SAME
file (same machine, same run, so load shifts both): the warm banded
control step BM_LtvControlStep/60/1 must be faster than the dense
oracle BM_LtvControlStepDense/60/1. The dense/banded time ratio is
printed at every horizon present (H=10 and H=30 are reported, not
gated). With --benchmark_repetitions the median rows are compared.

Also asserts the dense oracle rows (BM_LtvControlStepDense), when
present, report zero stage ops — the counter must not leak across
paths. Solution agreement between the two paths is property-tested in
tests/test_banded_kkt.cpp, which the solver-perf-smoke CI job runs
alongside this gate.

Usage: check_banded.py BENCH_solver.json [--max-ratio-spread 1.35]

Exit code 1 when the per-horizon constants spread by more than
--max-ratio-spread (max/min), when fewer than two horizons are present
(a renamed benchmark can't silently disable the gate), when either H=60
row is missing or banded is not faster there, or when the JSON was not
produced from a Release build of this repo.
"""

import argparse
import re
import sys

import checklib

NAME_RE = re.compile(r"^(BM_LtvControlStep(?:Dense)?)/(\d+)/1\b")
GATED_HORIZON = 60  # the one horizon whose banded-vs-dense time is gated


def collect(benchmarks):
    """bench name -> {horizon -> (stage_ops_per_iter, real time in ns)}."""
    out = {}
    for m, b in checklib.bench_rows(benchmarks, NAME_RE):
        if "stage_ops_per_iter" not in b:
            continue
        out.setdefault(m.group(1), {})[int(m.group(2))] = (
            float(b["stage_ops_per_iter"]), checklib.real_time_ns(b))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json")
    ap.add_argument("--max-ratio-spread", type=float, default=1.35)
    args = ap.parse_args()

    data = checklib.load_release_bench(args.bench_json)
    rows = collect(data["benchmarks"])

    banded = rows.get("BM_LtvControlStep", {})
    if len(banded) < 2:
        print("error: need warm BM_LtvControlStep rows with a "
              "stage_ops_per_iter counter at >= 2 horizons in "
              f"{args.bench_json}", file=sys.stderr)
        return 1

    failed = False
    print(f"{'horizon':>7}  {'ops/iter':>10}  {'ops/iter/H':>10}")
    constants = {}
    for horizon in sorted(banded):
        ops = banded[horizon][0]
        if ops <= 0.0:
            print(f"error: horizon {horizon} reports no stage block ops "
                  "— the banded path did not run", file=sys.stderr)
            return 1
        constants[horizon] = ops / horizon
        print(f"{horizon:>7}  {ops:>10.1f}  {constants[horizon]:>10.2f}")

    spread = max(constants.values()) / min(constants.values())
    print(f"per-horizon constant spread (max/min): {spread:.3f} "
          f"(budget {args.max_ratio_spread:g})")
    if spread > args.max_ratio_spread:
        print("error: stage block ops per iteration are not growing "
              "linearly in the horizon", file=sys.stderr)
        failed = True

    dense = rows.get("BM_LtvControlStepDense", {})
    for horizon, (ops, _) in sorted(dense.items()):
        if ops != 0.0:
            print(f"error: dense path reports {ops} stage block ops at "
                  f"horizon {horizon}; the counter leaked", file=sys.stderr)
            failed = True

    print(f"{'horizon':>7}  {'banded ms':>9}  {'dense ms':>9}  "
          f"{'dense/banded':>12}")
    for horizon in sorted(set(banded) & set(dense)):
        t_banded, t_dense = banded[horizon][1], dense[horizon][1]
        print(f"{horizon:>7}  {t_banded / 1e6:>9.3f}  {t_dense / 1e6:>9.3f}"
              f"  {t_dense / t_banded:>11.2f}x")
    if GATED_HORIZON not in banded or GATED_HORIZON not in dense:
        print(f"error: need BM_LtvControlStep/{GATED_HORIZON}/1 and "
              f"BM_LtvControlStepDense/{GATED_HORIZON}/1 in "
              f"{args.bench_json} for the wall-clock gate", file=sys.stderr)
        failed = True
    elif not banded[GATED_HORIZON][1] < dense[GATED_HORIZON][1]:
        print(f"error: the banded control step is not faster than the "
              f"dense oracle at H={GATED_HORIZON}", file=sys.stderr)
        failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
