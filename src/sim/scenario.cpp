#include "sim/scenario.h"

#include <memory>
#include <vector>

#include "common/error.h"
#include "core/methodology_registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/obs_sink.h"
#include "sim/step_sink.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace otem::sim {

Scenario Scenario::from_config(const Config& cfg) {
  Scenario sc;
  sc.methodology = cfg.get_string("method", sc.methodology);
  sc.cycle = cfg.get_string("cycle", sc.cycle);
  sc.cycle_csv = cfg.get_string("cycle_csv", sc.cycle_csv);
  sc.time_column = cfg.get_string("time_column", sc.time_column);
  sc.speed_column = cfg.get_string("speed_column", sc.speed_column);
  sc.synthetic = cfg.get_bool("synthetic", sc.synthetic);
  sc.synthetic_seed = static_cast<std::uint64_t>(
      cfg.get_long("synthetic_seed", static_cast<long>(sc.synthetic_seed)));
  sc.synthetic_duration_s =
      cfg.get_double("synthetic_duration_s", sc.synthetic_duration_s);
  sc.synthetic_max_speed_mps =
      cfg.get_double("synthetic_max_speed_mps", sc.synthetic_max_speed_mps);
  const long repeats = cfg.get_long("repeats", 1);
  OTEM_REQUIRE(repeats >= 1, "scenario repeats must be >= 1");
  sc.repeats = static_cast<size_t>(repeats);
  sc.soak = cfg.get_bool("soak", sc.soak);
  sc.initial.t_battery_k =
      cfg.get_double("t_battery0_k", sc.initial.t_battery_k);
  sc.initial.t_coolant_k =
      cfg.get_double("t_coolant0_k", sc.initial.t_coolant_k);
  sc.initial.soe_percent = cfg.get_double("soe0", sc.initial.soe_percent);
  sc.initial.soc_percent = cfg.get_double("soc0", sc.initial.soc_percent);
  core::require_temperature_k("t_battery0_k", sc.initial.t_battery_k);
  core::require_temperature_k("t_coolant0_k", sc.initial.t_coolant_k);
  core::require_percent("soe0", sc.initial.soe_percent);
  core::require_percent("soc0", sc.initial.soc_percent);
  sc.record_trace = cfg.get_bool("record_trace", sc.record_trace);
  sc.trace_csv = cfg.get_string("trace_csv", sc.trace_csv);
  sc.metrics_out = cfg.get_string("metrics_out", sc.metrics_out);
  sc.events_jsonl = cfg.get_string("events_jsonl", sc.events_jsonl);
  const long every = cfg.get_long("events_every", 1);
  OTEM_REQUIRE(every >= 1, "events_every must be >= 1");
  sc.events_every = static_cast<size_t>(every);
  sc.trace_out = cfg.get_string("trace_out", sc.trace_out);
  return sc;
}

namespace {
TimeSeries scenario_speed(const Scenario& sc) {
  if (!sc.cycle_csv.empty()) {
    return vehicle::load_speed_csv(sc.cycle_csv, sc.time_column,
                                   sc.speed_column);
  }
  if (sc.synthetic) {
    return vehicle::generate_synthetic(sc.synthetic_seed,
                                       sc.synthetic_duration_s,
                                       sc.synthetic_max_speed_mps);
  }
  return vehicle::generate(vehicle::cycle_from_string(sc.cycle));
}
}  // namespace

TimeSeries scenario_power_trace(const Scenario& scenario,
                                const core::SystemSpec& spec) {
  return vehicle::Powertrain(spec.vehicle)
      .power_trace(scenario_speed(scenario))
      .repeated(scenario.repeats);
}

ScenarioOutcome run_scenario(const Scenario& scenario, const Config& cfg) {
  return run_scenario(scenario, core::SystemSpec::from_config(cfg), cfg);
}

namespace {
/// Turns tracing on for a trace_out= run and restores the previous
/// state on scope exit (exception-safe; concurrent runs that also
/// enabled tracing are unaffected because enabling is idempotent and
/// each run restores what IT saw).
struct TraceEnableGuard {
  bool active;
  bool previous = false;
  explicit TraceEnableGuard(bool enable) : active(enable) {
    if (active) {
      previous = obs::trace_enabled();
      obs::set_trace_enabled(true);
    }
  }
  ~TraceEnableGuard() {
    if (active) obs::set_trace_enabled(previous);
  }
};
}  // namespace

ScenarioOutcome run_scenario(const Scenario& scenario,
                             const core::SystemSpec& base_spec,
                             const Config& cfg,
                             const std::vector<StepSink*>& extra_sinks,
                             const exec::StopToken& stop) {
  const TraceEnableGuard trace_guard(!scenario.trace_out.empty());
  core::SystemSpec spec = base_spec;
  if (scenario.ambient_k > 0.0) spec.ambient_k = scenario.ambient_k;

  const TimeSeries speed = scenario_speed(scenario);
  ScenarioOutcome outcome;
  outcome.distance_m = vehicle::stats_of(speed).distance_m *
                       static_cast<double>(scenario.repeats);
  outcome.power = vehicle::Powertrain(spec.vehicle)
                      .power_trace(speed)
                      .repeated(scenario.repeats);

  RunOptions options;
  options.initial = scenario.initial;
  if (scenario.soak) {
    options.initial.t_battery_k = spec.ambient_k;
    options.initial.t_coolant_k = spec.ambient_k;
  }
  options.record_trace = scenario.record_trace;
  options.stop = stop;

  auto methodology =
      core::make_methodology(scenario.methodology, spec, cfg);

  MetricsAccumulator metrics;
  TraceRecorder trace;
  std::vector<StepSink*> sinks{&metrics};
  if (scenario.record_trace) sinks.push_back(&trace);
  std::unique_ptr<CsvStreamSink> csv;
  if (!scenario.trace_csv.empty()) {
    csv = std::make_unique<CsvStreamSink>(scenario.trace_csv);
    sinks.push_back(csv.get());
  }
  obs::MetricsRegistry registry;
  std::unique_ptr<DiagnosticsSink> diagnostics;
  if (!scenario.metrics_out.empty()) {
    diagnostics = std::make_unique<DiagnosticsSink>(registry);
    sinks.push_back(diagnostics.get());
  }
  std::unique_ptr<JsonlEventSink> events;
  if (!scenario.events_jsonl.empty()) {
    events = std::make_unique<JsonlEventSink>(scenario.events_jsonl,
                                              scenario.events_every);
    sinks.push_back(events.get());
  }
  for (StepSink* sink : extra_sinks) sinks.push_back(sink);

  {
    const obs::TraceSpan run_span("scenario.run");
    const Simulator simulator(spec);
    simulator.run_with_sinks(*methodology, outcome.power, options, sinks);
  }
  outcome.result = metrics.take();
  if (scenario.record_trace) outcome.result.trace = trace.take();
  if (!scenario.metrics_out.empty())
    obs::write_metrics_json(scenario.metrics_out, registry);
  if (!scenario.trace_out.empty())
    obs::TraceCollector().write_chrome_trace(scenario.trace_out);
  return outcome;
}

}  // namespace otem::sim
