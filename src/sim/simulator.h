// simulator.h — closed-loop plant simulator (paper Algorithm 1 outer
// loop, generalised over methodologies).
//
// Drives any Methodology through a power-request trace. The step loop
// itself is thin: per step it advances the plant and hands the step to
// a sim::Stepper (sim/stepper.h), which feeds the StepSinks that own
// all accounting — RunResult arithmetic, the in-RAM trace, streaming
// CSV telemetry. run() is the classic convenience wrapper (metrics +
// optional trace); run_with_sinks() is the composable entry point.
#pragma once

#include <vector>

#include "common/timeseries.h"
#include "core/methodology.h"
#include "core/system_spec.h"
#include "exec/stop_token.h"

namespace otem::sim {

class StepSink;

/// Full per-step telemetry, recorded when RunOptions::record_trace.
struct RunTrace {
  TimeSeries t_battery_k;  ///< T_b after each step
  TimeSeries t_coolant_k;
  TimeSeries soc_percent;
  TimeSeries soe_percent;
  TimeSeries p_load_w;       ///< EV request served
  TimeSeries p_cooler_w;     ///< cooler electric power
  TimeSeries p_cap_w;        ///< ultracap terminal power (discharge +)
  TimeSeries q_bat_w;        ///< battery heat generation
  TimeSeries t_inlet_k;      ///< coolant inlet applied
  TimeSeries i_bat_a;
  TimeSeries qloss_percent;  ///< cumulative capacity loss
  TimeSeries teb;            ///< combined TEB in [0, 1]
};

struct RunResult {
  double duration_s = 0.0;

  // Algorithm 1 outputs.
  double qloss_percent = 0.0;   ///< total battery capacity loss
  double energy_hees_j = 0.0;   ///< battery + ultracap energy consumed

  // Energy breakdown.
  double energy_battery_j = 0.0;
  double energy_cap_j = 0.0;
  double energy_cooling_j = 0.0;  ///< cooler + pump (subset of HEES energy
                                  ///< for self-powered coolers)
  double energy_loss_j = 0.0;     ///< resistive + conversion losses

  /// The paper's Fig. 9 / Table I metric: HEES energy over duration [W].
  double average_power_w = 0.0;

  // Thermal safety (C1).
  double max_t_battery_k = 0.0;
  double thermal_violation_s = 0.0;  ///< time spent above the C1 ceiling

  size_t infeasible_steps = 0;  ///< physical clamps fired (reliability)
  double unserved_energy_j = 0.0;  ///< bus energy the HEES failed to deliver
  core::PlantState final_state;

  RunTrace trace;  ///< populated when requested
};

struct RunOptions {
  core::PlantState initial;  ///< defaults to the paper's x0
  bool record_trace = true;
  /// Cooperative stop: consulted before every plant step. When it
  /// fires, attached sinks are FINALIZED (end() runs, streams flush)
  /// with whatever steps completed, then otem::SimCancelled is thrown —
  /// a cancelled mission leaves closed files and closed running totals,
  /// never a truncated stream. Default-constructed = never stops, and
  /// costs one pointer test per step.
  exec::StopToken stop;
};

class Simulator {
 public:
  explicit Simulator(const core::SystemSpec& spec);

  /// Run `methodology` over the power-request trace. Compatibility
  /// wrapper over run_with_sinks(): a MetricsAccumulator plus, when
  /// options.record_trace, a TraceRecorder.
  RunResult run(core::Methodology& methodology,
                const TimeSeries& power_request,
                const RunOptions& options = {}) const;

  /// Drive the step loop, pushing every step through `sinks` (all
  /// non-null, caller-owned). options.record_trace is ignored here —
  /// attach a TraceRecorder instead.
  void run_with_sinks(core::Methodology& methodology,
                      const TimeSeries& power_request,
                      const RunOptions& options,
                      const std::vector<StepSink*>& sinks) const;

  const core::SystemSpec& spec() const { return spec_; }

 private:
  core::SystemSpec spec_;
};

}  // namespace otem::sim
