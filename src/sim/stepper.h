// stepper.h — the one owner of per-mission step accounting.
//
// Paper Algorithm 1 is one loop: solve, apply, advance the plant,
// accumulate Qloss and energy. Simulator::run_with_sinks and each
// serve::Session hand every finished plant step to a Stepper, which
// validates and begins/ends the sinks, splits them into every-step and
// eventful-only chains, folds their timing strides, keeps the step
// index and running qloss, evaluates the TEB only when a sink wants
// it, and builds and fans out the StepSample. The two loops keep only
// what differs: the power source, the clock, cancellation.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "core/teb.h"
#include "sim/step_sink.h"

namespace otem::sim {

class Stepper {
 public:
  /// Unarmed until begin().
  Stepper() = default;
  Stepper(const RunContext& ctx, const std::vector<StepSink*>& sinks) {
    begin(ctx, sinks);
  }

  /// Arm for one mission and run every sink's begin(ctx). The sinks are
  /// caller-owned and must outlive end(). With ctx.steps == 0 (an open
  /// session) no step is the final one.
  void begin(const RunContext& ctx, const std::vector<StepSink*>& sinks);

  /// The gcd of the sinks' timing_stride()s; 0 when none asks or obs
  /// is disabled. The caller decides which steps it actually times.
  size_t timing_stride() const { return timing_stride_; }

  /// Account one finished step; `state_after` is the post-step plant
  /// state, `step_us` its wall clock when `timed` (timed is eventful).
  /// Inline: it runs once per plant step in every caller's hot loop.
  void record(const core::StepRecord& rec, const core::PlantState& state_after,
              double step_us = 0.0, bool timed = false) {
    qloss_cum_ += rec.qloss_percent;
    const double teb = teb_ ? teb_->evaluate(state_after).combined()
                            : std::numeric_limits<double>::quiet_NaN();
    const StepSample sample{k_, rec, state_after, qloss_cum_, teb, step_us};
    for (StepSink* sink : every_step_) sink->record(sample);
    if (!eventful_only_.empty() &&
        (timed || !rec.feasible || rec.solve.present ||
         k_ + 1 == mission_steps_))
      for (StepSink* sink : eventful_only_) sink->record(sample);
    ++k_;
  }

  /// Steps recorded since begin() — also the next step's index.
  size_t steps() const { return k_; }

  /// Finalize every sink, in attach order: steps_recorded(steps()),
  /// then end().
  void end(const core::PlantState& final_state);

 private:
  std::vector<StepSink*> sinks_;
  std::vector<StepSink*> every_step_;
  std::vector<StepSink*> eventful_only_;
  std::optional<core::TebMetric> teb_;  ///< only when a sink wants_teb()
  size_t mission_steps_ = 0;
  size_t timing_stride_ = 0;
  size_t k_ = 0;
  double qloss_cum_ = 0.0;
};

}  // namespace otem::sim
