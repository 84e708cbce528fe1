// step_sink.h — streaming per-step telemetry pipeline.
//
// The step loops own no accounting: a sim::Stepper (sim/stepper.h)
// pushes one StepSample per plant step through a chain of StepSinks,
// and the sinks decide what becomes of the telemetry. Three ship with
// the library:
//
//   MetricsAccumulator — the RunResult arithmetic (Algorithm 1 outputs,
//                        energy breakdown, thermal safety), O(1) memory.
//   TraceRecorder      — the in-RAM RunTrace (opt-in, O(steps) memory).
//   CsvStreamSink      — per-step telemetry streamed straight to disk,
//                        O(1) memory in mission length; what fleet runs
//                        and multi-hour missions attach instead of an
//                        in-RAM trace.
//
// Accumulation order in MetricsAccumulator matches the pre-sink
// simulator exactly, so RunResult values are bit-identical to the old
// inlined loop (tests/test_scenario_engine.cpp enforces this).
#pragma once

#include <fstream>
#include <string>

#include "core/methodology.h"
#include "core/system_spec.h"
#include "sim/simulator.h"

namespace otem::sim {

/// Per-run constants handed to every sink before the first step.
struct RunContext {
  const core::SystemSpec& spec;
  double dt = 1.0;            ///< step period [s]
  size_t steps = 0;           ///< mission length; 0 = open (a session)
  core::PlantState initial;   ///< state before the first step
};

/// Everything one plant step produced. `state` is the plant state AFTER
/// the step; `qloss_cum_percent` is the running capacity-loss sum
/// including this step; `teb` is the combined thermal/energy buffer in
/// [0, 1], computed only when some attached sink wants_teb() (NaN
/// otherwise — it costs a model evaluation per step).
struct StepSample {
  size_t k = 0;
  const core::StepRecord& rec;
  const core::PlantState& state;
  double qloss_cum_percent = 0.0;
  double teb = 0.0;
  /// Wall clock of the whole plant step (methodology.step). SAMPLED:
  /// measured only when obs::enabled() and step index k is a multiple
  /// of the gcd of the attached sinks' timing_stride()s; 0 on untimed
  /// steps. Sinks must treat 0 as "not measured this step".
  double step_time_us = 0.0;
};

class StepSink {
 public:
  virtual ~StepSink() = default;

  /// True when this sink consumes StepSample::teb; the Stepper skips
  /// the TEB evaluation entirely when no attached sink wants it.
  virtual bool wants_teb() const { return false; }

  /// Stride at which this sink wants StepSample::step_time_us filled:
  /// 0 = never (the default — the simulator touches no clock), 1 =
  /// every step, N = one step in N. The simulator times at the gcd of
  /// all attached strides, so a sink may see MORE timed samples than it
  /// asked for, never fewer. Sampling exists because two clock reads
  /// rival a reactive baseline's entire step cost.
  virtual size_t timing_stride() const { return 0; }

  /// True when this sink only needs EVENTFUL samples: wall-clock timed,
  /// infeasible, solver-backed (solve.present), or the final step of
  /// the run (always delivered, so running totals can close). The
  /// Stepper skips the record() call entirely on uneventful steps —
  /// for a reactive baseline that turns per-step diagnostics dispatch
  /// into nothing. Sinks that consume the full telemetry stream (trace,
  /// CSV, accounting) keep the default false.
  virtual bool eventful_samples_only() const { return false; }

  virtual void begin(const RunContext& ctx) { (void)ctx; }
  virtual void record(const StepSample& sample) = 0;
  /// How many steps the run recorded, told once right before end():
  /// RunContext::steps for a finished mission, fewer for a cancelled
  /// one. Sinks take their step count from here (an eventful-only sink
  /// could not count the steps itself).
  virtual void steps_recorded(size_t steps) { (void)steps; }
  virtual void end(const core::PlantState& final_state) {
    (void)final_state;
  }
};

/// Owns the RunResult arithmetic the simulator used to inline: same
/// accumulation order step by step, so results stay bit-identical.
/// max_t_battery_k is seeded from the initial state, so a mission that
/// only ever cools reports its true (initial) maximum. duration_s counts
/// the steps the Stepper recorded, so a cancelled run or a session
/// closes exactly.
class MetricsAccumulator final : public StepSink {
 public:
  void begin(const RunContext& ctx) override;
  void record(const StepSample& sample) override;
  void steps_recorded(size_t steps) override { steps_ = steps; }
  void end(const core::PlantState& final_state) override;

  /// The finished result (valid after end()); trace fields are empty.
  const RunResult& result() const { return result_; }
  RunResult take() { return std::move(result_); }

 private:
  RunResult result_;
  double dt_ = 1.0;
  double t_max_k_ = 0.0;
  size_t steps_ = 0;  ///< the Stepper's count (steps_recorded)
};

/// Records the full in-RAM RunTrace (the pre-refactor record_trace
/// behaviour).
class TraceRecorder final : public StepSink {
 public:
  bool wants_teb() const override { return true; }
  void begin(const RunContext& ctx) override;
  void record(const StepSample& sample) override;

  const RunTrace& trace() const { return trace_; }
  RunTrace take() { return std::move(trace_); }

 private:
  RunTrace trace_;
  double dt_ = 1.0;
};

/// Streams one CSV row per step to `path` — constant memory no matter
/// how long the mission runs. Column schema (stable; the golden-file
/// test pins it):
///
///   t_s, p_load_w, p_cooler_w, p_cap_w, i_bat_a, tb_c, tc_c,
///   soc_percent, soe_percent, qloss_percent, teb, q_bat_w, t_inlet_c
///
/// The first 11 columns match what `otem_cli trace_csv=` historically
/// dumped from the in-RAM trace; q_bat_w / t_inlet_c complete the
/// telemetry. Stream failure (full disk) is detected in record()/end()
/// and raised as SimError with the path — telemetry is never silently
/// truncated.
class CsvStreamSink final : public StepSink {
 public:
  /// Opens `path` for writing; throws SimError when that fails.
  /// `precision` is the fixed number of decimals per cell.
  explicit CsvStreamSink(const std::string& path, int precision = 6);

  bool wants_teb() const override { return true; }
  void begin(const RunContext& ctx) override;
  void record(const StepSample& sample) override;
  void end(const core::PlantState& final_state) override;

  const std::string& path() const { return path_; }
  size_t rows_written() const { return rows_; }

 private:
  std::string path_;
  std::ofstream out_;
  int precision_;
  double dt_ = 1.0;
  size_t rows_ = 0;
};

}  // namespace otem::sim
