// Tests for the closed-loop simulator and metrics layer.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/parallel_methodology.h"
#include "exec/stop_token.h"
#include "obs/metrics.h"
#include "sim/metrics.h"
#include "sim/obs_sink.h"
#include "sim/simulator.h"
#include "sim/step_sink.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace otem::sim {
namespace {

core::SystemSpec default_spec() {
  return core::SystemSpec::from_config(Config());
}

TimeSeries udds_power(const core::SystemSpec& spec) {
  return vehicle::Powertrain(spec.vehicle)
      .power_trace(vehicle::generate(vehicle::CycleName::kUdds));
}

TEST(Simulator, AccountingIdentities) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  const RunResult r = sim.run(m, udds_power(spec));

  EXPECT_NEAR(r.energy_hees_j, r.energy_battery_j + r.energy_cap_j,
              std::abs(r.energy_hees_j) * 1e-12);
  EXPECT_NEAR(r.average_power_w, r.energy_hees_j / r.duration_s,
              std::abs(r.average_power_w) * 1e-12);
  EXPECT_GT(r.qloss_percent, 0.0);
  EXPECT_GT(r.energy_loss_j, 0.0);
}

TEST(Simulator, TraceAlignedWithInput) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  const TimeSeries power = udds_power(spec);
  const RunResult r = sim.run(m, power);
  EXPECT_EQ(r.trace.t_battery_k.size(), power.size());
  EXPECT_EQ(r.trace.soc_percent.size(), power.size());
  EXPECT_EQ(r.trace.teb.size(), power.size());
  // Cumulative loss is monotone.
  for (size_t k = 1; k < r.trace.qloss_percent.size(); ++k)
    EXPECT_GE(r.trace.qloss_percent[k], r.trace.qloss_percent[k - 1]);
}

TEST(Simulator, TraceCanBeDisabled) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  RunOptions opt;
  opt.record_trace = false;
  const RunResult r = sim.run(m, udds_power(spec), opt);
  EXPECT_TRUE(r.trace.t_battery_k.empty());
  EXPECT_GT(r.qloss_percent, 0.0);
}

TEST(Simulator, DeterministicRuns) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  const TimeSeries power = udds_power(spec);
  core::ParallelMethodology m1(spec);
  core::ParallelMethodology m2(spec);
  const RunResult a = sim.run(m1, power);
  const RunResult b = sim.run(m2, power);
  EXPECT_DOUBLE_EQ(a.qloss_percent, b.qloss_percent);
  EXPECT_DOUBLE_EQ(a.energy_hees_j, b.energy_hees_j);
  EXPECT_DOUBLE_EQ(a.final_state.t_battery_k, b.final_state.t_battery_k);
}

TEST(Simulator, InitialStateHonoured) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  RunOptions opt;
  opt.initial.soc_percent = 60.0;
  // Start the bank at the parallel architecture's rest point so the
  // battery is not charged from the bank during the run.
  opt.initial.soe_percent = 60.0;
  opt.initial.t_battery_k = 305.0;
  const RunResult r =
      sim.run(m, TimeSeries(1.0, std::vector<double>(5, 1000.0)), opt);
  EXPECT_LT(r.final_state.soc_percent, 60.0);
  EXPECT_GT(r.max_t_battery_k, 300.0);
}

TEST(Simulator, ThermalViolationCounted) {
  core::SystemSpec spec = default_spec();
  spec.thermal.max_battery_temp_k = 299.0;  // absurdly tight ceiling
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  const RunResult r =
      sim.run(m, TimeSeries(1.0, std::vector<double>(600, 40000.0)));
  EXPECT_GT(r.thermal_violation_s, 0.0);
  EXPECT_GT(r.max_t_battery_k, 299.0);
}

TEST(Simulator, EmptyTraceThrows) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  EXPECT_THROW(sim.run(m, TimeSeries()), SimError);
}

TEST(Simulator, CapPowerTraceMatchesEnergyAccounting) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  const RunResult r = sim.run(m, udds_power(spec));
  // Integrating the recorded ultracap power recovers the energy total.
  EXPECT_NEAR(r.trace.p_cap_w.integral(), r.energy_cap_j,
              std::abs(r.energy_cap_j) * 1e-9 + 1e-6);
}

TEST(Simulator, UnservedEnergyZeroOnFeasibleMission) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  const RunResult r = sim.run(m, udds_power(spec));
  EXPECT_DOUBLE_EQ(r.unserved_energy_j, 0.0);
}

TEST(Simulator, UnservedEnergyCountsBrownouts) {
  // A load far beyond the pack's deliverable power must show up as
  // unserved energy, not silently vanish.
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  const RunResult r = sim.run(
      m, TimeSeries(1.0, std::vector<double>(30, 500000.0)));  // 500 kW
  EXPECT_GT(r.unserved_energy_j, 1e6);
  EXPECT_GT(r.infeasible_steps, 0u);
}

// --- metrics ------------------------------------------------------------

TEST(Metrics, RelativeCapacityLoss) {
  RunResult a, b;
  a.qloss_percent = 0.5;
  b.qloss_percent = 1.0;
  EXPECT_DOUBLE_EQ(relative_capacity_loss_percent(a, b), 50.0);
  RunResult zero;
  EXPECT_THROW(relative_capacity_loss_percent(a, zero), SimError);
}

TEST(Metrics, LifetimeImprovementFromLossRatio) {
  RunResult better, base;
  better.qloss_percent = 0.8;
  base.qloss_percent = 1.0;
  EXPECT_NEAR(lifetime_improvement_percent(better, base), 25.0, 1e-9);
}

TEST(Metrics, MissionsToEndOfLife) {
  RunResult r;
  r.qloss_percent = 0.004;
  EXPECT_NEAR(missions_to_end_of_life(r, battery::CellParams{}),
              5000.0, 1e-6);
}

TEST(Metrics, RangeEstimatePlausible) {
  const core::SystemSpec spec = default_spec();
  RunResult r;
  r.energy_hees_j = 6.0e6;  // 6 MJ over 10 km -> 167 Wh/km
  const double km = estimated_range_km(r, spec, 10000.0);
  EXPECT_GT(km, 80.0);
  EXPECT_LT(km, 250.0);
}

// --- cooperative cancellation -----------------------------------------------

/// Probe sink: counts delivered samples, requests a stop after
/// `stop_after` of them, and records whether end() ran.
class CancelProbeSink final : public StepSink {
 public:
  CancelProbeSink(exec::StopSource source, size_t stop_after)
      : source_(std::move(source)), stop_after_(stop_after) {}

  void record(const StepSample& sample) override {
    ++records_;
    (void)sample;
    if (records_ >= stop_after_) source_.request_stop();
  }
  void end(const core::PlantState& final_state) override {
    (void)final_state;
    end_called_ = true;
  }

  size_t records() const { return records_; }
  bool end_called() const { return end_called_; }

 private:
  exec::StopSource source_;
  size_t stop_after_;
  size_t records_ = 0;
  bool end_called_ = false;
};

TEST(Simulator, CancelMidMissionThrowsSimCancelledAndFinalizesSinks) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  const TimeSeries power = udds_power(spec);
  ASSERT_GT(power.size(), 100u);

  exec::StopSource source;
  RunOptions opt;
  opt.stop = source.token();
  CancelProbeSink probe(source, 50);
  MetricsAccumulator metrics;
  std::vector<StepSink*> sinks{&metrics, &probe};
  EXPECT_THROW(sim.run_with_sinks(m, power, opt, sinks), SimCancelled);
  // The mission stopped where asked — not truncated mid-write, not run
  // to completion — and every sink was finalized.
  EXPECT_EQ(probe.records(), 50u);
  EXPECT_TRUE(probe.end_called());
  // The closed totals describe the 50 steps that ran, not the route.
  EXPECT_EQ(metrics.result().duration_s, 50 * power.dt());
}

TEST(Simulator, CancelMidMissionReportsTheStepsThatRanToDiagnostics) {
  // DiagnosticsSink sees only eventful samples, so it cannot count the
  // steps itself; it must report the Stepper's count, not the route
  // length the run was started with.
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  const TimeSeries power = udds_power(spec);
  ASSERT_GT(power.size(), 100u);

  exec::StopSource source;
  RunOptions opt;
  opt.stop = source.token();
  CancelProbeSink probe(source, 50);
  obs::MetricsRegistry registry;
  DiagnosticsSink diag(registry);
  std::vector<StepSink*> sinks{&probe, &diag};
  EXPECT_THROW(sim.run_with_sinks(m, power, opt, sinks), SimCancelled);
  ASSERT_EQ(probe.records(), 50u);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("sim.steps"), 50u);
  EXPECT_EQ(snap.gauges.at("sim.duration_s"), 50 * power.dt());
}

TEST(Simulator, CancelBeforeTheFirstStepReportsZeroPowerNotNaN) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  exec::StopSource source;
  source.request_stop();
  RunOptions opt;
  opt.stop = source.token();
  MetricsAccumulator metrics;
  EXPECT_THROW(sim.run_with_sinks(m, udds_power(spec), opt, {&metrics}),
               SimCancelled);
  EXPECT_EQ(metrics.result().duration_s, 0.0);
  EXPECT_EQ(metrics.result().average_power_w, 0.0);
}

TEST(Simulator, CancelClosesStreamingCsvSinkCleanly) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  const TimeSeries power = udds_power(spec);

  const std::string path =
      ::testing::TempDir() + "otem_cancelled_trace.csv";
  exec::StopSource source;
  RunOptions opt;
  opt.stop = source.token();
  CancelProbeSink probe(source, 25);
  CsvStreamSink csv(path);
  std::vector<StepSink*> sinks{&csv, &probe};
  EXPECT_THROW(sim.run_with_sinks(m, power, opt, sinks), SimCancelled);
  EXPECT_EQ(csv.rows_written(), 25u);

  // The file is a CLOSED, well-formed CSV of exactly the completed
  // steps: header + 25 rows, final line newline-terminated.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  size_t lines = 0;
  std::string line, last;
  while (std::getline(in, line)) {
    ++lines;
    last = line;
  }
  EXPECT_EQ(lines, 26u);
  EXPECT_NE(last.find(','), std::string::npos);  // a data row, not junk
  std::remove(path.c_str());
}

TEST(Simulator, PreStoppedTokenCancelsBeforeTheFirstStep) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  exec::StopSource source;
  source.request_stop();
  RunOptions opt;
  opt.stop = source.token();
  try {
    sim.run(m, udds_power(spec), opt);
    FAIL() << "should have thrown SimCancelled";
  } catch (const SimCancelled& e) {
    EXPECT_NE(std::string(e.what()).find("cancelled at step 0"),
              std::string::npos);
  }
}

TEST(Simulator, ExpiredDeadlineReadsAsDeadlineNotCancel) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  const exec::StopSource source = exec::StopSource::with_deadline(
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  RunOptions opt;
  opt.stop = source.token();
  try {
    sim.run(m, udds_power(spec), opt);
    FAIL() << "should have thrown SimCancelled";
  } catch (const SimCancelled& e) {
    EXPECT_NE(std::string(e.what()).find("deadline expired"),
              std::string::npos);
  }
}

TEST(Simulator, SimCancelledIsASimError) {
  // Callers that already catch SimError keep working; callers that
  // need to distinguish an abandoned run can catch the subclass.
  const SimCancelled cancelled("stopped");
  const SimError* base = &cancelled;
  EXPECT_NE(std::string(base->what()).find("stopped"), std::string::npos);
}

TEST(Simulator, EmptyStopTokenAddsNothingToARun) {
  const core::SystemSpec spec = default_spec();
  const Simulator sim(spec);
  core::ParallelMethodology m(spec);
  RunOptions plain;
  plain.record_trace = false;
  RunOptions with_token;
  with_token.record_trace = false;
  with_token.stop = exec::StopToken();  // empty: never stops
  const RunResult a = sim.run(m, udds_power(spec), plain);
  const RunResult b = sim.run(m, udds_power(spec), with_token);
  EXPECT_EQ(a.qloss_percent, b.qloss_percent);  // bit-identical
  EXPECT_EQ(a.energy_hees_j, b.energy_hees_j);
}

}  // namespace
}  // namespace otem::sim
