// perf_fleet — google-benchmark timings for the execution subsystem:
// a 16-mission Monte-Carlo fleet stepped through exec::parallel_for at
// increasing thread counts (serial baseline at threads=1), the same
// missions with full instrumentation attached (BM_FleetEvaluateMetrics)
// and with the span tracer enabled on top (BM_FleetEvaluateTraced) —
// both held to the <5 % overhead budget CI enforces via
// bench/check_overhead.py — the ADMM QP hot path (cold one-shot vs a
// warm persistent QpSolver workspace, ns per ADMM iteration), and the
// obs primitives themselves (counter add, histogram record, scoped
// timer). bench/run_benchmarks.sh wraps this binary and emits
// BENCH_fleet.json so successive PRs have a perf trajectory to regress
// against.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/parallel_methodology.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/sketch.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "optim/qp.h"
#include "sim/obs_sink.h"
#include "sim/simulator.h"
#include "sim/step_sink.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace {

using namespace otem;

core::SystemSpec spec() { return core::SystemSpec::from_config(Config()); }

/// One fleet mission's conditions. Drawn per mission in the order route
/// seed, ambient, duration, initial charge.
struct MissionDraw {
  std::uint64_t route_seed = 0;
  double ambient_k = 0.0;
  double duration_s = 0.0;
  double soe0 = 0.0;
};

/// The 16 seeded synthetic missions, drawn once and serially, so every
/// width runs the same fleet. Missions are shorter than a deployment
/// route to keep one benchmark iteration at a few milliseconds; each is
/// still a full closed-loop thermal/electrical simulation.
const std::vector<MissionDraw>& missions() {
  static const std::vector<MissionDraw> draws = [] {
    Rng rng(7);
    std::vector<MissionDraw> out(16);
    for (MissionDraw& d : out) {
      d.route_seed = rng.next_u64();
      d.ambient_k = rng.uniform(283.15, 313.15);
      d.duration_s = rng.uniform(200.0, 500.0);
      d.soe0 = rng.uniform(40.0, 100.0);
    }
    return out;
  }();
  return draws;
}

/// Run the fleet once at execution width `threads`: per mission the
/// synthetic route, its power trace and a closed-loop parallel-baseline
/// run through Simulator::run_with_sinks from a pack soaked to ambient.
/// When `shared` is set, every mission also attaches a DiagnosticsSink
/// writing into that one registry bundle. Returns the summed qloss.
double run_fleet(const core::SystemSpec& base, size_t threads,
                 const sim::DiagnosticsSink::Instruments* shared = nullptr) {
  const std::vector<MissionDraw>& draws = missions();
  std::vector<double> qloss(draws.size());
  exec::parallel_for(
      draws.size(),
      [&](size_t m) {
        const MissionDraw& d = draws[m];
        core::SystemSpec s = base;
        s.ambient_k = d.ambient_k;
        const TimeSeries load = vehicle::Powertrain(s.vehicle).power_trace(
            vehicle::generate_synthetic(d.route_seed, d.duration_s, 32.0));
        sim::RunOptions ropt;
        ropt.record_trace = false;
        ropt.initial.t_battery_k = d.ambient_k;
        ropt.initial.t_coolant_k = d.ambient_k;
        ropt.initial.soe_percent = d.soe0;
        sim::MetricsAccumulator metrics;
        std::optional<sim::DiagnosticsSink> diagnostics;
        std::vector<sim::StepSink*> sinks{&metrics};
        if (shared) sinks.push_back(&diagnostics.emplace(*shared));
        core::ParallelMethodology methodology(s);
        sim::Simulator(s).run_with_sinks(methodology, load, ropt, sinks);
        qloss[m] = metrics.take().qloss_percent;
      },
      threads);
  double sum = 0.0;
  for (double q : qloss) sum += q;
  return sum;
}

/// The fleet at a given execution width. threads=1 is the serial
/// fallback path (no pool, no locks); results are bit-identical across
/// widths by construction (pre-drawn mission conditions).
void BM_FleetEvaluate(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const core::SystemSpec base = spec();
  for (auto _ : state) benchmark::DoNotOptimize(run_fleet(base, threads));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_FleetEvaluate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same fleet with the instrumentation layer fully attached: one
/// MetricsRegistry written concurrently by all missions (a
/// DiagnosticsSink per mission), step-loop timing on. CI compares this
/// against BM_FleetEvaluate at the same thread count and fails when the
/// overhead exceeds 5 %.
void BM_FleetEvaluateMetrics(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const core::SystemSpec base = spec();
  obs::MetricsRegistry registry;
  const sim::DiagnosticsSink::Instruments shared(registry, "fleet.");
  for (auto _ : state)
    benchmark::DoNotOptimize(run_fleet(base, threads, &shared));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["steps_instrumented"] = static_cast<double>(
      registry.snapshot().counters.at("fleet.sim.steps"));
}
BENCHMARK(BM_FleetEvaluateMetrics)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same fleet with the span tracer live on top of the metrics
/// layer: every mission records sim.run / sim.step spans into its
/// thread's flight-recorder ring. CI compares this against
/// BM_FleetEvaluate at the same thread count under the same <5 % budget
/// (bench/check_overhead.py) — the cost of leaving the tracer ENABLED,
/// not just compiled in.
void BM_FleetEvaluateTraced(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const core::SystemSpec base = spec();
  obs::MetricsRegistry registry;
  const sim::DiagnosticsSink::Instruments shared(registry, "fleet.");
  obs::set_trace_enabled(true);
  for (auto _ : state)
    benchmark::DoNotOptimize(run_fleet(base, threads, &shared));
  obs::set_trace_enabled(false);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["spans_in_rings"] =
      static_cast<double>(obs::TraceCollector().collect().size());
  obs::trace_reset();
}
BENCHMARK(BM_FleetEvaluateTraced)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- obs primitives ----------------------------------------------------
// The per-event costs underlying the fleet overhead: a sharded counter
// add, a histogram record (binary search + 5 atomics), and the scoped
// timer's two clock reads. The *Disabled variants measure the kill
// switch (one relaxed load, no clock).

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("bench.counter");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h =
      registry.histogram("bench.hist", obs::latency_buckets_us());
  double v = 1.0;
  for (auto _ : state) {
    h.record(v);
    v = v < 1e6 ? v * 1.7 : 1.0;
  }
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsScopedTimer(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h =
      registry.histogram("bench.timer", obs::latency_buckets_us());
  for (auto _ : state) {
    const obs::ScopedTimer t(h);
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_ObsScopedTimer);

void BM_ObsSketchRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Sketch& s = registry.sketch("bench.sketch");
  double v = 1.0;
  for (auto _ : state) {
    s.record(v);
    v = v < 1e6 ? v * 1.7 : 1.0;
  }
}
BENCHMARK(BM_ObsSketchRecord);

void BM_TraceSpanEnabled(benchmark::State& state) {
  obs::set_trace_enabled(true);
  for (auto _ : state) {
    const obs::TraceSpan span("bench.span");
    benchmark::DoNotOptimize(&span);
  }
  obs::set_trace_enabled(false);
  obs::trace_reset();
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_TraceSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    const obs::TraceSpan span("bench.span_off");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_ObsScopedTimerDisabled(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h =
      registry.histogram("bench.timer_off", obs::latency_buckets_us());
  obs::set_enabled(false);
  for (auto _ : state) {
    const obs::ScopedTimer t(h);
    benchmark::DoNotOptimize(&t);
  }
  obs::set_enabled(true);
}
BENCHMARK(BM_ObsScopedTimerDisabled);

/// A QP shaped like the LTV-MPC subproblem at the given horizon:
/// nu = 2h decision variables, nu box rows plus 4h banded state rows.
optim::QpProblem mpc_shaped_qp(size_t horizon) {
  const size_t nu = 2 * horizon;
  const size_t rows = nu + 4 * horizon;
  optim::QpProblem p;
  p.p = optim::Matrix(nu, nu);
  p.q.assign(nu, 0.0);
  for (size_t i = 0; i < nu; ++i) {
    p.p(i, i) = 0.05 + 0.01 * static_cast<double>(i % 7);
    p.q[i] = (i % 2 == 0) ? -0.02 : 0.015;
  }
  p.a = optim::Matrix(rows, nu);
  p.l.assign(rows, 0.0);
  p.u.assign(rows, 0.0);
  for (size_t i = 0; i < nu; ++i) {
    p.a(i, i) = 1.0;
    p.l[i] = -1.0;
    p.u[i] = 1.0;
  }
  // State rows: causal (lower-banded) sensitivity pattern with decaying
  // influence of older controls, equilibrated to unit row norm.
  for (size_t k = 0; k < horizon; ++k) {
    for (size_t j = 0; j < 4; ++j) {
      const size_t r = nu + 4 * k + j;
      for (size_t col = 0; col <= 2 * k + 1; ++col) {
        const double age = static_cast<double>(2 * k + 1 - col);
        p.a(r, col) = ((col + j) % 3 == 0 ? 1.0 : -0.4) /
                      (1.0 + 0.35 * age);
      }
      p.l[r] = -0.8 - 0.05 * static_cast<double>(j);
      p.u[r] = 0.9;
    }
  }
  return p;
}

/// One-shot solve_qp: pays the full workspace allocation every call.
void BM_QpSolveCold(benchmark::State& state) {
  const optim::QpProblem p =
      mpc_shaped_qp(static_cast<size_t>(state.range(0)));
  optim::QpOptions opt;
  opt.eps_abs = 1e-4;
  opt.eps_rel = 1e-4;
  std::int64_t total_iters = 0;
  for (auto _ : state) {
    const optim::QpResult r = optim::solve_qp(p, opt);
    total_iters += static_cast<std::int64_t>(r.iterations);
    benchmark::DoNotOptimize(r.primal_residual);
  }
  state.SetItemsProcessed(total_iters);  // items/s = ADMM iterations/s
}
BENCHMARK(BM_QpSolveCold)->Arg(10)->Arg(30)->Arg(60);

/// Persistent QpSolver: the workspace (KKT matrix, factorisation,
/// iterate buffers) is reused across solves, the steady state of an MPC
/// controller calling the solver every step.
void BM_QpSolveWarm(benchmark::State& state) {
  const optim::QpProblem p =
      mpc_shaped_qp(static_cast<size_t>(state.range(0)));
  optim::QpOptions opt;
  opt.eps_abs = 1e-4;
  opt.eps_rel = 1e-4;
  optim::QpSolver solver;
  std::int64_t total_iters = 0;
  for (auto _ : state) {
    const optim::QpResult r = solver.solve(p, opt);
    total_iters += static_cast<std::int64_t>(r.iterations);
    benchmark::DoNotOptimize(r.primal_residual);
  }
  state.SetItemsProcessed(total_iters);
}
BENCHMARK(BM_QpSolveWarm)->Arg(10)->Arg(30)->Arg(60);

}  // namespace

int main(int argc, char** argv) {
  // Same stamp as perf_solver: how THIS repo was compiled, which the
  // bench/check_*.py gates require to be "release" (the stock
  // library_build_type key only describes the benchmark library).
#ifdef NDEBUG
  benchmark::AddCustomContext("repo_build_type", "release");
#else
  benchmark::AddCustomContext("repo_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
