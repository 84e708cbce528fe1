#!/usr/bin/env bash
# run_benchmarks.sh — regenerate BENCH_fleet.json and BENCH_solver.json,
# the perf trajectories later PRs regress against.
#
# Usage: bench/run_benchmarks.sh [--allow-debug] [build-dir]
#
# Refuses non-Release build trees: debug numbers are useless as a
# baseline and have silently polluted the checked-in JSON before. The
# guard reads CMakeCache.txt because the JSON's own
# context.library_build_type reports how the google-benchmark LIBRARY
# was built (preinstalled as debug here), not how this repo's code was
# compiled. The bench binaries additionally self-stamp
# context.repo_build_type ("release" iff compiled with NDEBUG), and
# every bench/check_*.py gate refuses JSON without a "release" stamp —
# so even a file produced by bypassing this script can't become a
# committed baseline. Pass --allow-debug to measure a debug build
# anyway (throwaway local profiling only — the gates will reject it).
#
# Protocol: every benchmark runs 5 repetitions, so each file carries
# per-repetition rows plus mean / median / stddev / cv aggregates; the
# check_*.py gates read the median and print the CV (checklib.py).
# perf_fleet's repetitions are randomly interleaved, as in CI, so the
# bare and instrumented fleets see the same machine drift and
# check_overhead.py's minimum-over-repetitions ratio compares like
# with like. The script refuses to start while the 1-minute load
# average exceeds nproc/2 — numbers measured on a busy machine are not
# a baseline, and there is no flag to override that.
#
# BENCH_fleet.json (perf_fleet):
#   - BM_FleetEvaluate/N        16 seeded missions through
#                               exec::parallel_for over
#                               Simulator::run_with_sinks at N threads
#                               (N=1 serial)
#   - BM_FleetEvaluateMetrics/N the same fleet with a metrics registry
#                               attached (instrumentation overhead)
#   - BM_FleetEvaluateTraced/N  metrics + the span tracer enabled (the
#                               tracing-on overhead check_overhead.py
#                               also holds to the < 5% budget)
#   - BM_ObsCounterAdd,         obs primitive micro-costs: a counter
#     BM_ObsSketchRecord        add, a sketch record and the
#                               BM_TraceSpan{Enabled,Disabled} pair
#   - BM_QpSolveCold/h          one-shot QP solves, items/s = ADMM iter/s
#   - BM_QpSolveWarm/h          persistent-workspace QP solves
# BENCH_solver.json (perf_solver):
#   - BM_MpcForward[Backward]/h rollout + adjoint micro-costs
#   - BM_OtemSolve/h            full augmented-Lagrangian control steps
#   - BM_QpSolveSequence/{n,w}  receding-horizon QP, cold (w=0) vs warm
#   - BM_LtvControlStep/{h,w}   LTV-QP control step (banded KKT, the
#                               production path), cold vs warm —
#                               admm_iters_mean / admm_iters_median are
#                               what bench/check_warm_start.py gates on;
#                               stage_ops_per_iter is what
#                               bench/check_banded.py gates on;
#                               solve_p50_us / solve_p95_us /
#                               solve_p99_us are sketch-derived per-solve
#                               latency quantiles (the ECU tail budget)
#   - BM_LtvControlStepDense/{h,1}  the dense condensed-KKT oracle on
#                               the same workload (the banded speedup's
#                               denominator)
# Derive the headline numbers as
#   fleet speedup  = real_time(threads=1) / real_time(threads=8)
#   QP ns per iter = 1e9 / items_per_second
#   warm-start win = 1 - admm_iters_median(w=1) / admm_iters_median(w=0)
#   banded speedup = real_time(BM_LtvControlStepDense/h/1)
#                    / real_time(BM_LtvControlStep/h/1)
# CI gates:
#   python3 bench/check_overhead.py BENCH_fleet.json     (< 5% overhead)
#   python3 bench/check_warm_start.py BENCH_solver.json  (>= 25% fewer iters)
#   python3 bench/check_banded.py BENCH_solver.json      (O(H) block ops)
#   python3 bench/check_vectorization.py <build log>     (power_lanes SIMD)
set -euo pipefail

ALLOW_DEBUG=0
if [[ "${1:-}" == "--allow-debug" ]]; then
  ALLOW_DEBUG=1
  shift
fi

BUILD_DIR="${1:-build}"
FLEET_BIN="$BUILD_DIR/bench/perf_fleet"
SOLVER_BIN="$BUILD_DIR/bench/perf_solver"

for BIN in "$FLEET_BIN" "$SOLVER_BIN"; do
  if [[ ! -x "$BIN" ]]; then
    echo "error: $BIN not found — build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

# Baselines must come from an optimised build.
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)
if [[ "$BUILD_TYPE" != "Release" && "$ALLOW_DEBUG" != 1 ]]; then
  echo "error: $BUILD_DIR is built as '${BUILD_TYPE:-unknown}', not Release." >&2
  echo "Benchmark baselines from unoptimised builds are meaningless;" >&2
  echo "reconfigure with -DCMAKE_BUILD_TYPE=Release, or pass" >&2
  echo "--allow-debug for throwaway local numbers (do not commit them)." >&2
  exit 1
fi

# A quiet machine, checked once before anything is stamped (the fleet
# benches' own threads raise the load average for the runs after them).
LOAD1=$(cut -d' ' -f1 /proc/loadavg)
NPROC=$(nproc)
if awk -v l="$LOAD1" -v n="$NPROC" 'BEGIN { exit !(l > n / 2) }'; then
  echo "error: 1-minute load average $LOAD1 exceeds nproc/2 = $NPROC/2;" >&2
  echo "refusing to stamp benchmark baselines on a busy machine." >&2
  exit 1
fi

# min_time keeps the fleet benches to a few iterations per repetition.
"$FLEET_BIN" \
  --benchmark_out=BENCH_fleet.json \
  --benchmark_out_format=json \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_min_time=0.5

echo "wrote BENCH_fleet.json"

"$SOLVER_BIN" \
  --benchmark_out=BENCH_solver.json \
  --benchmark_out_format=json \
  --benchmark_repetitions=5 \
  --benchmark_min_time=0.5

echo "wrote BENCH_solver.json"
