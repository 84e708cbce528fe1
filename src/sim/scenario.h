// scenario.h — declarative mission descriptions and the shared runner.
//
// A Scenario names everything one closed-loop run needs — the route
// (named cycle, external CSV, or seeded synthetic), repeats, the
// methodology (resolved through core::MethodologyRegistry), initial
// state and telemetry options — and every front-end (otem_cli
// run/compare, the examples, the fig/table benches) funnels through the
// one run_scenario() instead of hand-assembling powertrain + simulator
// + controller. Scenarios parse straight from Config key=value
// overrides, so "one more experiment" is a command line, not a new
// main().
//
// Config keys read by Scenario::from_config (all optional):
//   method=<registry name>          default "otem"
//   cycle=<UDDS|US06|...>           default "UDDS"
//   cycle_csv=<path> [time_column=t speed_column=v]   external route
//   synthetic=true synthetic_seed=N synthetic_duration_s=S
//       synthetic_max_speed_mps=V   seeded synthetic route
//   repeats=N                       default 1
//   soak=true                       start pack/coolant at ambient
//   t_battery0_k= t_coolant0_k= soe0= soc0=           initial state
//   record_trace=bool               default true (in-RAM RunTrace)
//   trace_csv=<path>                stream per-step telemetry to disk
//   metrics_out=<path>              write an obs metrics snapshot (JSON)
//   events_jsonl=<path> [events_every=N]   stream per-step JSONL events
//   trace_out=<path>                enable span tracing for the run and
//                                   write a Chrome trace (otem.trace.v1)
//
// Mission size is bounded where a mission is asked for (a config line,
// a serve frame, a campaign grid), before a route is generated or
// repeated: synthetic_duration_s within (0, kMaxSyntheticDurationS] and
// route samples x repeats within kMaxMissionSteps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/plant_state.h"
#include "core/system_spec.h"
#include "sim/simulator.h"

namespace otem::sim {

/// Most plant steps one mission may take (route samples x repeats):
/// 2^22, 48.5 days at the 1-Hz cycles, a 32 MiB power trace.
inline constexpr size_t kMaxMissionSteps = size_t{1} << 22;

/// Longest synthetic route [s]: 1e6 s, 11.6 days.
inline constexpr double kMaxSyntheticDurationS = 1e6;

/// Throws otem::SimError naming `key` unless `seconds` lies within
/// (0, kMaxSyntheticDurationS] (NaN never does).
void require_synthetic_duration_s(const std::string& key, double seconds);

/// Throws otem::SimError unless a route of `route_samples` steps driven
/// `repeats` times fits kMaxMissionSteps (and repeats >= 1).
void require_mission_steps(size_t route_samples, size_t repeats);

struct Scenario {
  std::string methodology = "otem";

  /// Route source: cycle_csv wins when set, then synthetic, then the
  /// named cycle.
  std::string cycle = "UDDS";
  std::string cycle_csv;
  std::string time_column = "t";
  std::string speed_column = "v";
  bool synthetic = false;
  std::uint64_t synthetic_seed = 1;
  double synthetic_duration_s = 900.0;
  double synthetic_max_speed_mps = 32.0;

  size_t repeats = 1;

  /// Ambient override [K]; 0 keeps the spec's ambient.
  double ambient_k = 0.0;

  /// Initial plant state; with soak=true the thermal states start at
  /// the (possibly overridden) ambient instead.
  core::PlantState initial;
  bool soak = false;

  bool record_trace = true;
  std::string trace_csv;  ///< when non-empty, stream telemetry here

  /// When non-empty, attach a DiagnosticsSink and write the metrics
  /// snapshot (schema otem.metrics.v2) here after the run.
  std::string metrics_out;
  /// When non-empty, stream per-step events (schema otem.events.v2)
  /// here; events_every decimates the step events.
  std::string events_jsonl;
  size_t events_every = 1;

  /// When non-empty, turn span tracing on for this run and write the
  /// flight recorder's contents as Chrome trace-event JSON (schema
  /// otem.trace.v1) here afterwards. Tracing state is process-global:
  /// concurrent runs share the recorder (their spans land on separate
  /// tids), and the previous enable state is restored on return.
  std::string trace_out;

  static Scenario from_config(const Config& cfg);
};

struct ScenarioOutcome {
  RunResult result;
  TimeSeries power;        ///< the request trace that was driven
  double distance_m = 0.0; ///< route distance including repeats
};

/// The resolved route power-request trace P_hat_e for `scenario` under
/// `spec` (route source resolved, repeats applied) — exactly what
/// run_scenario drives through the methodology, exposed so a serve
/// session can stream the same mission one protocol step at a time.
TimeSeries scenario_power_trace(const Scenario& scenario,
                                const core::SystemSpec& spec);

/// Run `scenario` against the spec built from `cfg`
/// (core::SystemSpec::from_config).
ScenarioOutcome run_scenario(const Scenario& scenario, const Config& cfg);

/// Run `scenario` against an explicit spec (sweeps that mutate the
/// spec programmatically); `cfg` still feeds the methodology factory.
/// `extra_sinks` are caller-owned sinks appended to the scenario's own
/// chain — how otem_cli compare aggregates per-method diagnostics into
/// one registry. `stop` is consulted before every plant step (see
/// RunOptions::stop) — the serve daemon passes its per-request token
/// here so deadlines and drain cancellation reach the step loop. Throws
/// otem::SimCancelled when the token fires mid-mission.
ScenarioOutcome run_scenario(const Scenario& scenario,
                             const core::SystemSpec& spec,
                             const Config& cfg,
                             const std::vector<StepSink*>& extra_sinks = {},
                             const exec::StopToken& stop = {});

}  // namespace otem::sim
