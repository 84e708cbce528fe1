#!/usr/bin/env python3
"""Fail when the instrumentation overhead exceeds its budget.

Reads a google-benchmark JSON file (as written by perf_fleet with
--benchmark_out) and compares BM_FleetEvaluate/N (bare fleet) against
its instrumented variants at the same thread count:

  BM_FleetEvaluateMetrics/N — shared MetricsRegistry, DiagnosticsSink
      per mission, step-loop timing on;
  BM_FleetEvaluateTraced/N  — all of the above PLUS the span tracer
      enabled (fleet.mission / sim.run / sim.step spans into the
      per-thread flight-recorder rings).

The contract — enforced in CI — is that each variant costs < 5 %
wall-clock over the bare fleet. The measured delta is printed per
variant and thread count.

Usage: check_overhead.py BENCH_fleet.json [--max-percent 5.0]

When the file was produced with --benchmark_repetitions, the MINIMUM
real_time per benchmark is used: the min is the least noisy statistic
for "how fast can this go", which is what an overhead ratio needs.
Exit code 1 when any thread count blows the budget, or when the JSON
was not produced from a Release build of this repo
(context.repo_build_type — see checklib.load_release_bench).
"""

import argparse
import re
import sys

import checklib

NAME_RE = re.compile(r"^(BM_FleetEvaluate(?:Metrics|Traced)?)/(\d+)")

VARIANTS = [
    ("BM_FleetEvaluateMetrics", "metrics"),
    ("BM_FleetEvaluateTraced", "traced"),
]


def best_times(benchmarks):
    """name -> {threads -> min real_time in ns} over iteration runs."""
    best = {}
    for b in checklib.iteration_rows(benchmarks):
        m = NAME_RE.match(b["name"])
        if not m:
            continue
        name, threads = m.group(1), int(m.group(2))
        t = checklib.real_time_ns(b)
        slot = best.setdefault(name, {})
        slot[threads] = min(slot.get(threads, t), t)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json")
    ap.add_argument("--max-percent", type=float, default=5.0)
    args = ap.parse_args()

    data = checklib.load_release_bench(args.bench_json)
    best = best_times(data["benchmarks"])

    base = best.get("BM_FleetEvaluate", {})
    compared = 0
    failed = False
    print(f"{'variant':>8}  {'threads':>7}  {'bare_ms':>10}  "
          f"{'with_ms':>10}  {'overhead':>8}")
    for bench_name, label in VARIANTS:
        instrumented = best.get(bench_name, {})
        for threads in sorted(set(base) & set(instrumented)):
            compared += 1
            t0, t1 = base[threads], instrumented[threads]
            overhead = 100.0 * (t1 - t0) / t0
            flag = ""
            if overhead > args.max_percent:
                failed = True
                flag = f"  <-- exceeds {args.max_percent:g}% budget"
            print(f"{label:>8}  {threads:>7}  {t0 / 1e6:>10.2f}  "
                  f"{t1 / 1e6:>10.2f}  {overhead:>+7.2f}%{flag}")
    if compared == 0:
        print("error: no BM_FleetEvaluate vs instrumented-variant pairs "
              f"in {args.bench_json}", file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
