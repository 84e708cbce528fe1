// obs_sink.h — StepSinks that feed the observability layer.
//
// DiagnosticsSink turns the per-step StepSample stream into
// distributions inside an obs::MetricsRegistry: solver iteration /
// residual / latency sketches, step-loop timings, fallback and
// convergence counters. It BORROWS the registry, so any number of
// concurrent runs (a serve daemon's requests) can aggregate into one
// registry — the sharded instruments make that safe — while a second
// sink with a mission-local registry captures the per-mission view.
//
// JsonlEventSink streams one structured event line per step (plus a
// run_begin/run_end envelope) to disk through obs::JsonlWriter — O(1)
// memory in mission length, schema "otem.events.v2" pinned by
// tests/test_obs.cpp (v2 added solve.qp_warm_hits and
// solve.kkt_refactorizations).
#pragma once

#include <memory>
#include <string>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "sim/step_sink.h"

namespace otem::sim {

/// Metric catalogue (all names carry the constructor's prefix):
///   counters    sim.steps, sim.infeasible_steps, solver.solves,
///               solver.fallbacks, solver.nonconverged,
///               solver.qp_rho_updates, solver.qp_warm_hits,
///               solver.kkt_refactorizations, solver.stage_block_ops,
///               solver.qp_polish_hits, solver.qp_polish_unsettled
///   gauges      sim.qloss_percent, sim.duration_s
///   sketches    sim.step_latency_us, solver.latency_us,
///               solver.iterations, solver.qp_iterations,
///               solver.qp_iterations_cold, solver.primal_residual,
///               solver.dual_residual, solver.constraint_violation
///
/// solver.qp_iterations_cold is the fallback-step (cold-start) slice of
/// solver.qp_iterations: mean(qp_iterations_cold) - mean(warm steps)
/// is the per-step ADMM iteration saving the warm start buys (see
/// docs/PERFORMANCE.md).
class DiagnosticsSink final : public StepSink {
 public:
  /// One step in 64 is wall-clock timed for sim.step_latency_us; the
  /// shape of the latency distribution survives 64x decimation, and the
  /// two clock reads would otherwise rival a reactive baseline's whole
  /// step cost (the <5 % overhead budget CI enforces).
  static constexpr size_t kTimingStride = 64;

  /// The resolved instrument references for one name prefix. Resolving
  /// takes 21 mutex-guarded registry lookups — the serve daemon shares
  /// ONE bundle across all its runs instead of resolving per run.
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& registry,
                         const std::string& prefix = "");
    obs::Counter& steps;
    obs::Counter& infeasible;
    obs::Counter& solves;
    obs::Counter& fallbacks;
    obs::Counter& nonconverged;
    obs::Counter& rho_updates;
    obs::Counter& warm_hits;
    obs::Counter& kkt_refactorizations;
    obs::Counter& stage_block_ops;
    obs::Counter& qp_polish_hits;
    obs::Counter& qp_polish_unsettled;
    obs::Gauge& qloss;
    obs::Gauge& duration;
    obs::Sketch& step_latency_us;
    obs::Sketch& solve_latency_us;
    obs::Sketch& iterations;
    obs::Sketch& qp_iterations;
    obs::Sketch& qp_iterations_cold;
    obs::Sketch& primal_residual;
    obs::Sketch& dual_residual;
    obs::Sketch& constraint_violation;
  };

  /// Registers (or finds) the instruments in `registry` eagerly, so the
  /// record path takes no registry lock. `prefix` namespaces the metric
  /// names ("otem.", ...).
  explicit DiagnosticsSink(obs::MetricsRegistry& registry,
                           const std::string& prefix = "")
      : instruments_(registry, prefix) {}
  /// Shares a pre-resolved bundle (serve runs).
  explicit DiagnosticsSink(const Instruments& instruments)
      : instruments_(instruments) {}

  size_t timing_stride() const override { return kTimingStride; }
  /// Only eventful samples carry information for this sink: the step
  /// count comes from the Stepper (steps_recorded), the final qloss
  /// rides on the last sample (always delivered), and everything else
  /// is conditional on timing / infeasibility / solver presence anyway.
  /// On a reactive baseline the simulator then skips the dispatch
  /// entirely for ~63 of every 64 steps.
  bool eventful_samples_only() const override { return true; }
  void begin(const RunContext& ctx) override;
  void record(const StepSample& sample) override;
  void steps_recorded(size_t steps) override { local_.steps = steps; }
  /// Counters and gauges are accumulated in plain locals during the run
  /// and flushed to the (shared, atomic) instruments here — one atomic
  /// op per counter per RUN instead of per step. Registry snapshots are
  /// therefore complete once the run has ended.
  void end(const core::PlantState& final_state) override;

 private:
  Instruments instruments_;
  double dt_ = 1.0;
  /// Per-run accumulation, flushed by end().
  struct Local {
    std::uint64_t steps = 0;
    std::uint64_t infeasible = 0;
    std::uint64_t solves = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t nonconverged = 0;
    std::uint64_t rho_updates = 0;
    std::uint64_t warm_hits = 0;
    std::uint64_t kkt_refactorizations = 0;
    std::uint64_t stage_block_ops = 0;
    std::uint64_t qp_polish_hits = 0;
    std::uint64_t qp_polish_unsettled = 0;
    double qloss_percent = 0.0;
  };
  Local local_;
};

/// One JSON object per line:
///   {"event":"run_begin","schema":"otem.events.v2",...}
///   {"event":"step","k":0,...,"solve":{...}}   (solve only when present)
///   {"event":"run_end",...}
/// `every` decimates: only steps with k % every == 0 emit a line
/// (run_begin/run_end always do).
class JsonlEventSink final : public StepSink {
 public:
  explicit JsonlEventSink(const std::string& path, size_t every = 1);

  bool wants_teb() const override { return true; }
  /// Time exactly the steps this sink emits.
  size_t timing_stride() const override { return every_; }
  void begin(const RunContext& ctx) override;
  void record(const StepSample& sample) override;
  void end(const core::PlantState& final_state) override;

  size_t lines_written() const { return writer_.lines_written(); }

  /// The event object for one sample — exposed so the golden-schema
  /// test can pin the line layout without driving a full run.
  static Json step_event(const StepSample& sample, double dt);

 private:
  obs::JsonlWriter writer_;
  size_t every_;
  double dt_ = 1.0;
  double qloss_final_ = 0.0;
};

}  // namespace otem::sim
