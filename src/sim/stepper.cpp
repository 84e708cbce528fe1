#include "sim/stepper.h"

#include <numeric>

#include "common/error.h"
#include "obs/metrics.h"

namespace otem::sim {

void Stepper::begin(const RunContext& ctx,
                    const std::vector<StepSink*>& sinks) {
  sinks_.assign(sinks.begin(), sinks.end());
  every_step_.clear();
  eventful_only_.clear();
  teb_.reset();
  timing_stride_ = 0;
  bool want_teb = false;
  for (StepSink* sink : sinks_) {
    OTEM_REQUIRE(sink != nullptr, "null step sink attached");
    // Split once, so the per-step path has no per-sink predicates.
    (sink->eventful_samples_only() ? eventful_only_ : every_step_)
        .push_back(sink);
    want_teb = want_teb || sink->wants_teb();
    const size_t s = obs::enabled() ? sink->timing_stride() : 0;
    if (s) timing_stride_ = timing_stride_ ? std::gcd(timing_stride_, s) : s;
  }
  if (want_teb) teb_.emplace(ctx.spec);
  mission_steps_ = ctx.steps;
  k_ = 0;
  qloss_cum_ = 0.0;
  for (StepSink* sink : sinks_) sink->begin(ctx);
}

void Stepper::end(const core::PlantState& final_state) {
  for (StepSink* sink : sinks_) {
    sink->steps_recorded(k_);
    sink->end(final_state);
  }
}

}  // namespace otem::sim
