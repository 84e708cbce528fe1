#!/usr/bin/env python3
"""Fail when warm-started ADMM stops beating cold starts.

Reads a google-benchmark JSON file (as written by perf_solver with
--benchmark_out) and pairs up BM_LtvControlStep/{horizon}/{warm} rows:
warm=0 solves every QP from zero, warm=1 carries terminal iterates
across rounds and steps (LtvOptions::warm_start, the shipped default).
The contract — enforced in CI — is that warm starts cut BOTH the mean
and the median ADMM iterations per control step by at least
--min-percent (default 25, the acceptance bar) at every horizon.

This gates on ITERATION COUNTS, not wall-clock: counts are exact and
machine-independent, so the gate doesn't flake on loaded CI runners.

Usage: check_warm_start.py BENCH_solver.json [--min-percent 25.0]

Exit code 1 when any horizon misses the bar, when the pairs are absent
(so a renamed benchmark can't silently disable the gate), or when the
JSON was not produced from a Release build of this repo
(context.repo_build_type — see checklib.load_release_bench).
"""

import argparse
import re
import sys

import checklib

NAME_RE = re.compile(r"^BM_LtvControlStep/(\d+)/([01])\b")


def collect(benchmarks):
    """horizon -> {0|1 -> {"mean": ..., "median": ...}}."""
    out = {}
    for m, b in checklib.bench_rows(benchmarks, NAME_RE):
        horizon, warm = int(m.group(1)), int(m.group(2))
        if "admm_iters_mean" not in b or "admm_iters_median" not in b:
            continue
        out.setdefault(horizon, {})[warm] = {
            "mean": float(b["admm_iters_mean"]),
            "median": float(b["admm_iters_median"]),
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json")
    ap.add_argument("--min-percent", type=float, default=25.0)
    args = ap.parse_args()

    data = checklib.load_release_bench(args.bench_json)
    rows = collect(data["benchmarks"])
    pairs = {h: v for h, v in rows.items() if 0 in v and 1 in v}
    if not pairs:
        print("error: no BM_LtvControlStep cold/warm pairs with "
              f"admm_iters counters in {args.bench_json}", file=sys.stderr)
        return 1

    failed = False
    print(f"{'horizon':>7}  {'stat':>6}  {'cold':>8}  {'warm':>8}  "
          f"{'saved':>7}")
    for horizon in sorted(pairs):
        for stat in ("mean", "median"):
            cold = pairs[horizon][0][stat]
            warm = pairs[horizon][1][stat]
            saved = 100.0 * (1.0 - warm / cold) if cold > 0 else 0.0
            flag = ""
            if saved < args.min_percent:
                failed = True
                flag = f"  <-- below {args.min_percent:g}% bar"
            print(f"{horizon:>7}  {stat:>6}  {cold:>8.1f}  {warm:>8.1f}  "
                  f"{saved:>+6.1f}%{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
