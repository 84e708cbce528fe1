#include "sim/simulator.h"

#include <limits>

#include "common/error.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "sim/step_sink.h"
#include "sim/stepper.h"

namespace otem::sim {

Simulator::Simulator(const core::SystemSpec& spec) : spec_(spec) {}

RunResult Simulator::run(core::Methodology& methodology,
                         const TimeSeries& power_request,
                         const RunOptions& options) const {
  MetricsAccumulator metrics;
  TraceRecorder trace;
  std::vector<StepSink*> sinks{&metrics};
  if (options.record_trace) sinks.push_back(&trace);
  run_with_sinks(methodology, power_request, options, sinks);
  RunResult result = metrics.take();
  if (options.record_trace) result.trace = trace.take();
  return result;
}

void Simulator::run_with_sinks(core::Methodology& methodology,
                               const TimeSeries& power_request,
                               const RunOptions& options,
                               const std::vector<StepSink*>& sinks) const {
  OTEM_REQUIRE(!power_request.empty(), "empty power request trace");
  const double dt = power_request.dt();
  const size_t steps = power_request.size();

  core::PlantState state = options.initial;
  methodology.reset(state, power_request);
  Stepper stepper(RunContext{spec_, dt, steps, options.initial}, sinks);

  // Tracing reuses the sampled step timings as sim.step spans — no
  // extra clock reads on already-timed steps. When tracing is on but
  // no sink asked for timing, sample at the diagnostics stride
  // (DiagnosticsSink::kTimingStride) so a trace_out= run still shows
  // the step cadence.
  const bool tracing = obs::trace_enabled();
  constexpr size_t kTraceStepStride = 64;
  size_t timing_stride = stepper.timing_stride();
  if (tracing && timing_stride == 0) timing_stride = kTraceStepStride;

  const obs::TraceSpan run_span("sim.run");

  // next_timed tracks the multiples of timing_stride without a per-step
  // modulo (a runtime-divisor div in the hottest loop of the codebase).
  size_t next_timed = timing_stride ? 0 : std::numeric_limits<size_t>::max();
  for (size_t k = 0; k < steps; ++k) {
    if (options.stop.stop_requested()) {
      // Cooperative cancellation: finalize every sink with the state as
      // of the last completed step, so streams close and totals are
      // consistent (just short), THEN report the abandonment.
      stepper.end(state);
      throw SimCancelled(
          options.stop.deadline_expired()
              ? "simulation deadline expired at step " + std::to_string(k) +
                    "/" + std::to_string(steps)
              : "simulation cancelled at step " + std::to_string(k) + "/" +
                    std::to_string(steps));
    }
    const bool timed = k == next_timed;
    if (timed) next_timed += timing_stride;
    const double t0 = timed ? obs::now_us() : 0.0;
    const core::StepRecord rec =
        methodology.step(state, power_request[k], k, dt);
    const double step_us = timed ? obs::now_us() - t0 : 0.0;
    if (timed && tracing) obs::trace_emit("sim.step", t0, step_us);
    stepper.record(rec, state, step_us, timed);
  }

  stepper.end(state);
}

}  // namespace otem::sim
