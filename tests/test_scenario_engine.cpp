// Tests for the scenario engine: the methodology registry, the
// streaming step-sink pipeline and the declarative Scenario runner.
//
// The heart of the file is the bit-identity harness: an in-test
// re-implementation of the pre-sink simulator loop (the accounting that
// used to live inline in Simulator::run) is driven over every named
// cycle x methodology pair and compared field by field with EXPECT_EQ
// against the sink-based Simulator. No tolerance — the refactor must
// not change a single bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "core/methodology_registry.h"
#include "core/teb.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "sim/step_sink.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace otem::sim {
namespace {

Config cheap_otem_config() {
  // Small horizon / few solver iterations: the equivalence sweep runs
  // OTEM over six full cycles and only cares that both paths get the
  // SAME answer, not that the answer is well optimised.
  Config cfg;
  cfg.set_pair("otem.horizon=8");
  cfg.set_pair("otem.solver.adam_iterations=40");
  cfg.set_pair("otem.solver.outer_iterations=2");
  return cfg;
}

/// The pre-refactor Simulator::run loop, verbatim (plus the
/// max_t_battery_k seeding fix that shipped with the sink pipeline):
/// every accumulation in the same order, the trace pushed from the same
/// values. This is the reference the sink pipeline must reproduce
/// bit-identically.
RunResult reference_run(const core::SystemSpec& spec,
                        core::Methodology& methodology,
                        const TimeSeries& power,
                        const RunOptions& options) {
  const double dt = power.dt();
  const size_t steps = power.size();
  const double t_max = spec.thermal.max_battery_temp_k;
  const core::TebMetric teb(spec);

  core::PlantState state = options.initial;
  methodology.reset(state, power);

  RunResult r;
  r.max_t_battery_k = options.initial.t_battery_k;
  for (size_t k = 0; k < steps; ++k) {
    const core::StepRecord rec = methodology.step(state, power[k], k, dt);
    r.qloss_percent += rec.qloss_percent;
    r.energy_battery_j += rec.e_bat_j;
    r.energy_cap_j += rec.e_cap_j;
    r.energy_cooling_j += rec.e_cooling_j;
    r.energy_loss_j += rec.e_loss_j;
    if (!rec.feasible) ++r.infeasible_steps;
    r.unserved_energy_j += rec.unmet_w * dt;
    r.max_t_battery_k = std::max(r.max_t_battery_k, state.t_battery_k);
    if (state.t_battery_k > t_max) r.thermal_violation_s += dt;
    if (options.record_trace) {
      r.trace.t_battery_k.push_back(state.t_battery_k);
      r.trace.t_coolant_k.push_back(state.t_coolant_k);
      r.trace.soc_percent.push_back(state.soc_percent);
      r.trace.soe_percent.push_back(state.soe_percent);
      r.trace.p_load_w.push_back(rec.p_load_w);
      r.trace.p_cooler_w.push_back(rec.p_cooler_w);
      r.trace.p_cap_w.push_back(rec.e_cap_j / dt);
      r.trace.q_bat_w.push_back(rec.q_bat_w);
      r.trace.t_inlet_k.push_back(rec.t_inlet_k);
      r.trace.i_bat_a.push_back(rec.i_bat_a);
      r.trace.qloss_percent.push_back(r.qloss_percent);
      r.trace.teb.push_back(teb.evaluate(state).combined());
    }
  }
  r.duration_s = static_cast<double>(steps) * dt;
  r.energy_hees_j = r.energy_battery_j + r.energy_cap_j;
  r.average_power_w = r.energy_hees_j / r.duration_s;
  r.final_state = state;
  return r;
}

void expect_series_identical(const TimeSeries& a, const TimeSeries& b,
                             const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t k = 0; k < a.size(); ++k)
    ASSERT_EQ(a[k], b[k]) << what << " diverges at step " << k;
}

TEST(SinkPipeline, BitIdenticalToPreRefactorLoopOnEveryCycleAndMethod) {
  const Config cfg = cheap_otem_config();
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  const std::vector<std::string> methods = {"parallel", "active_cooling",
                                            "dual", "otem"};
  for (vehicle::CycleName cycle : vehicle::all_cycles()) {
    const TimeSeries power =
        vehicle::Powertrain(spec.vehicle)
            .power_trace(vehicle::generate(cycle));
    for (const std::string& name : methods) {
      SCOPED_TRACE(std::string(vehicle::to_string(cycle)) + " / " + name);
      RunOptions options;
      options.record_trace = true;

      auto m_ref = core::make_methodology(name, spec, cfg);
      const RunResult want = reference_run(spec, *m_ref, power, options);

      auto m_new = core::make_methodology(name, spec, cfg);
      const RunResult got =
          Simulator(spec).run(*m_new, power, options);

      EXPECT_EQ(got.duration_s, want.duration_s);
      EXPECT_EQ(got.qloss_percent, want.qloss_percent);
      EXPECT_EQ(got.energy_hees_j, want.energy_hees_j);
      EXPECT_EQ(got.energy_battery_j, want.energy_battery_j);
      EXPECT_EQ(got.energy_cap_j, want.energy_cap_j);
      EXPECT_EQ(got.energy_cooling_j, want.energy_cooling_j);
      EXPECT_EQ(got.energy_loss_j, want.energy_loss_j);
      EXPECT_EQ(got.average_power_w, want.average_power_w);
      EXPECT_EQ(got.max_t_battery_k, want.max_t_battery_k);
      EXPECT_EQ(got.thermal_violation_s, want.thermal_violation_s);
      EXPECT_EQ(got.infeasible_steps, want.infeasible_steps);
      EXPECT_EQ(got.unserved_energy_j, want.unserved_energy_j);
      EXPECT_EQ(got.final_state.t_battery_k, want.final_state.t_battery_k);
      EXPECT_EQ(got.final_state.soe_percent, want.final_state.soe_percent);

      expect_series_identical(got.trace.t_battery_k,
                              want.trace.t_battery_k, "t_battery_k");
      expect_series_identical(got.trace.t_coolant_k,
                              want.trace.t_coolant_k, "t_coolant_k");
      expect_series_identical(got.trace.soc_percent,
                              want.trace.soc_percent, "soc_percent");
      expect_series_identical(got.trace.soe_percent,
                              want.trace.soe_percent, "soe_percent");
      expect_series_identical(got.trace.p_load_w, want.trace.p_load_w,
                              "p_load_w");
      expect_series_identical(got.trace.p_cooler_w,
                              want.trace.p_cooler_w, "p_cooler_w");
      expect_series_identical(got.trace.p_cap_w, want.trace.p_cap_w,
                              "p_cap_w");
      expect_series_identical(got.trace.q_bat_w, want.trace.q_bat_w,
                              "q_bat_w");
      expect_series_identical(got.trace.t_inlet_k,
                              want.trace.t_inlet_k, "t_inlet_k");
      expect_series_identical(got.trace.i_bat_a, want.trace.i_bat_a,
                              "i_bat_a");
      expect_series_identical(got.trace.qloss_percent,
                              want.trace.qloss_percent, "qloss_percent");
      expect_series_identical(got.trace.teb, want.trace.teb, "teb");
    }
  }
}

/// A plant that strictly cools from wherever it starts — the case the
/// pre-sink simulator got wrong (it started the running max at 0 K, so
/// a monotonically cooling mission under-reported its peak).
class CoolingOnlyMethodology final : public core::Methodology {
 public:
  std::string name() const override { return "cooling-only"; }
  void reset(const core::PlantState& initial, const TimeSeries&) override {
    t0_ = initial.t_battery_k;
  }
  core::StepRecord step(core::PlantState& state, double p_e_w, size_t k,
                        double) override {
    state.t_battery_k = t0_ - 0.1 * static_cast<double>(k + 1);
    core::StepRecord rec;
    rec.p_load_w = p_e_w;
    rec.state_after = state;
    return rec;
  }

 private:
  double t0_ = 0.0;
};

TEST(SinkPipeline, MaxBatteryTempSeededFromInitialState) {
  // A heat-soaked pack that only ever cools must still report its
  // (initial) soak temperature as the mission maximum.
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  const TimeSeries power(1.0, std::vector<double>(30, 500.0));
  RunOptions options;
  options.record_trace = false;
  options.initial.t_battery_k = 330.0;
  CoolingOnlyMethodology cooling;
  const RunResult r = Simulator(spec).run(cooling, power, options);
  EXPECT_EQ(r.max_t_battery_k, 330.0);
  EXPECT_EQ(r.final_state.t_battery_k, 330.0 - 3.0);
}

// --- registry ---------------------------------------------------------------

TEST(MethodologyRegistry, KnowsAllBuiltins) {
  auto& reg = core::MethodologyRegistry::instance();
  for (const char* name :
       {"parallel", "active_cooling", "dual", "otem", "otem-ltv"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  // names() is sorted for stable help/error output.
  const std::vector<std::string> names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(MethodologyRegistry, CreatesWorkingMethodologies) {
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  for (const std::string& name :
       core::MethodologyRegistry::instance().names()) {
    auto m = core::make_methodology(name, spec, cfg);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_FALSE(m->name().empty()) << name;
  }
}

TEST(MethodologyRegistry, UnknownNameThrowsListingRegisteredNames) {
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  try {
    core::make_methodology("otmm", spec, cfg);  // typo
    FAIL() << "should have thrown";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown methodology 'otmm'"), std::string::npos)
        << what;
    // The message names every registered strategy so the fix is
    // copy-pasteable from the error itself.
    for (const char* name :
         {"parallel", "active_cooling", "dual", "otem", "otem-ltv"}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(MethodologyRegistry, DuplicateRegistrationThrows) {
  auto& reg = core::MethodologyRegistry::instance();
  EXPECT_THROW(reg.add("parallel",
                       [](const core::SystemSpec&, const Config&)
                           -> std::unique_ptr<core::Methodology> {
                         return nullptr;
                       }),
               SimError);
}

// --- CsvStreamSink golden file ----------------------------------------------

/// Deterministic scripted plant: every field of the StepRecord and the
/// post-step state is a simple function of the step index, so the
/// expected CSV can be derived independently in the test.
class ScriptedMethodology final : public core::Methodology {
 public:
  std::string name() const override { return "scripted"; }
  void reset(const core::PlantState&, const TimeSeries&) override {}
  core::StepRecord step(core::PlantState& state, double p_e_w, size_t k,
                        double dt) override {
    const double x = static_cast<double>(k + 1);
    state.t_battery_k = 298.0 + 0.5 * x;
    state.t_coolant_k = 297.0 + 0.25 * x;
    state.soc_percent = 100.0 - x;
    state.soe_percent = 90.0 - 2.0 * x;
    core::StepRecord rec;
    rec.p_load_w = p_e_w;
    rec.p_cooler_w = 100.0 * x;
    rec.i_bat_a = 2.0 * x;
    rec.e_cap_j = 50.0 * x * dt;
    rec.q_bat_w = 7.0 * x;
    rec.t_inlet_k = 293.15 + x;
    rec.qloss_percent = 0.001 * x;
    rec.state_after = state;
    return rec;
  }
};

TEST(CsvStreamSink, GoldenFileSchemaAndFormatting) {
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  const std::string path = testing::TempDir() + "otem_csv_golden.csv";
  const TimeSeries power(0.5, {1000.0, 2000.0, 3000.0});

  ScriptedMethodology scripted;
  CsvStreamSink csv(path);
  MetricsAccumulator metrics;
  RunOptions options;
  Simulator(spec).run_with_sinks(scripted, power, options,
                                 {&metrics, &csv});
  EXPECT_EQ(csv.rows_written(), 3u);
  EXPECT_EQ(csv.path(), path);

  // Derive the expected file from the script: the same column order and
  // fixed 6-decimal formatting the header documents, TEB from the same
  // public metric the simulator evaluates.
  const core::TebMetric teb(spec);
  std::string want =
      "t_s,p_load_w,p_cooler_w,p_cap_w,i_bat_a,tb_c,tc_c,"
      "soc_percent,soe_percent,qloss_percent,teb,q_bat_w,t_inlet_c\n";
  double qloss_cum = 0.0;
  for (size_t k = 0; k < 3; ++k) {
    const double x = static_cast<double>(k + 1);
    core::PlantState s;
    s.t_battery_k = 298.0 + 0.5 * x;
    s.t_coolant_k = 297.0 + 0.25 * x;
    s.soc_percent = 100.0 - x;
    s.soe_percent = 90.0 - 2.0 * x;
    qloss_cum += 0.001 * x;
    const std::vector<double> cells = {
        static_cast<double>(k) * 0.5,
        power[k],
        100.0 * x,
        50.0 * x,  // e_cap_j / dt
        2.0 * x,
        s.t_battery_k - 273.15,
        s.t_coolant_k - 273.15,
        s.soc_percent,
        s.soe_percent,
        qloss_cum,
        teb.evaluate(s).combined(),
        7.0 * x,
        (293.15 + x) - 273.15,
    };
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i) want += ',';
      want += strings::format_double(cells[i], 6);
    }
    want += '\n';
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), want);
  std::remove(path.c_str());
}

TEST(CsvStreamSink, UnwritablePathThrows) {
  EXPECT_THROW(CsvStreamSink("/nonexistent-dir/x/y.csv"), SimError);
}

// --- Scenario ---------------------------------------------------------------

TEST(Scenario, FromConfigParsesEveryKey) {
  Config cfg;
  cfg.set_pair("method=dual");
  cfg.set_pair("cycle=US06");
  cfg.set_pair("repeats=4");
  cfg.set_pair("soak=true");
  cfg.set_pair("synthetic=true");
  cfg.set_pair("synthetic_seed=42");
  cfg.set_pair("synthetic_duration_s=300");
  cfg.set_pair("synthetic_max_speed_mps=25");
  cfg.set_pair("t_battery0_k=305.0");
  cfg.set_pair("soe0=55");
  cfg.set_pair("record_trace=false");
  cfg.set_pair("trace_csv=/tmp/t.csv");
  const Scenario sc = Scenario::from_config(cfg);
  EXPECT_EQ(sc.methodology, "dual");
  EXPECT_EQ(sc.cycle, "US06");
  EXPECT_EQ(sc.repeats, 4u);
  EXPECT_TRUE(sc.soak);
  EXPECT_TRUE(sc.synthetic);
  EXPECT_EQ(sc.synthetic_seed, 42u);
  EXPECT_DOUBLE_EQ(sc.synthetic_duration_s, 300.0);
  EXPECT_DOUBLE_EQ(sc.synthetic_max_speed_mps, 25.0);
  EXPECT_DOUBLE_EQ(sc.initial.t_battery_k, 305.0);
  EXPECT_DOUBLE_EQ(sc.initial.soe_percent, 55.0);
  EXPECT_FALSE(sc.record_trace);
  EXPECT_EQ(sc.trace_csv, "/tmp/t.csv");
  // Everything was consumed — no false typo warnings.
  EXPECT_TRUE(cfg.unused_keys().empty());
}

TEST(Scenario, InvalidRepeatsThrow) {
  Config cfg;
  cfg.set_pair("repeats=0");
  EXPECT_THROW(Scenario::from_config(cfg), SimError);
}

TEST(Scenario, StatesOutsideThePlantDomainThrow) {
  // Temperatures within -40...+85 C, SoE and SoC within 0...100 %: the
  // bounds themselves are accepted, anything past them is refused.
  for (const char* key : {"t_battery0_k", "t_coolant0_k"}) {
    for (const char* bad : {"233.14", "358.16", "1e300", "-1e300"}) {
      Config cfg;
      cfg.set(key, bad);
      EXPECT_THROW(Scenario::from_config(cfg), SimError) << key << "=" << bad;
    }
    for (const char* good : {"233.15", "358.15"}) {
      Config cfg;
      cfg.set(key, good);
      EXPECT_NO_THROW(Scenario::from_config(cfg)) << key << "=" << good;
    }
  }
  for (const char* key : {"soe0", "soc0"}) {
    for (const char* bad : {"-0.001", "100.001", "1e300"}) {
      Config cfg;
      cfg.set(key, bad);
      EXPECT_THROW(Scenario::from_config(cfg), SimError) << key << "=" << bad;
    }
    for (const char* good : {"0", "100"}) {
      Config cfg;
      cfg.set(key, good);
      EXPECT_NO_THROW(Scenario::from_config(cfg)) << key << "=" << good;
    }
  }
  for (const char* bad : {"233.14", "358.16", "1e300"}) {
    Config cfg;
    cfg.set("ambient_k", bad);
    EXPECT_THROW(core::SystemSpec::from_config(cfg), SimError) << bad;
  }
}

TEST(Scenario, RunScenarioMatchesHandAssembledRun) {
  // The declarative runner must be the same computation as wiring
  // powertrain + registry + simulator by hand.
  const Config cfg = cheap_otem_config();
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  Scenario sc;
  sc.methodology = "dual";
  sc.cycle = "NYCC";
  sc.repeats = 2;
  const ScenarioOutcome outcome = run_scenario(sc, spec, cfg);

  const TimeSeries power =
      vehicle::Powertrain(spec.vehicle)
          .power_trace(vehicle::generate(vehicle::CycleName::kNycc))
          .repeated(2);
  auto dual = core::make_methodology("dual", spec, cfg);
  const RunResult want = Simulator(spec).run(*dual, power);

  ASSERT_EQ(outcome.power.size(), power.size());
  EXPECT_EQ(outcome.result.qloss_percent, want.qloss_percent);
  EXPECT_EQ(outcome.result.energy_hees_j, want.energy_hees_j);
  EXPECT_EQ(outcome.result.max_t_battery_k, want.max_t_battery_k);
  EXPECT_EQ(outcome.result.trace.t_battery_k.size(),
            want.trace.t_battery_k.size());
  EXPECT_GT(outcome.distance_m, 0.0);
}

TEST(Scenario, SoakStartsThermalStatesAtAmbient) {
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  Scenario sc;
  sc.methodology = "parallel";
  sc.cycle = "NYCC";
  sc.soak = true;
  sc.ambient_k = 308.15;
  const ScenarioOutcome outcome = run_scenario(sc, spec, cfg);
  // First trace sample is the state after one step from the soaked
  // start; it cannot have cooled below ambient minus a degree in 1 s.
  EXPECT_GT(outcome.result.trace.t_battery_k[0], 307.0);
  EXPECT_GE(outcome.result.max_t_battery_k, 308.15);
}

}  // namespace
}  // namespace otem::sim
