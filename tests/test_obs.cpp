// Tests for the observability layer: the sharded metrics registry
// (exact cross-thread totals), the enabled() kill switch, the JSONL
// writer, the DiagnosticsSink / JsonlEventSink step sinks, CSV
// stream-failure detection, and the thread-safe logger. The quantile
// sketch itself is tested in tests/test_trace.cpp.
//
// Golden tests pin the externally visible schemas byte-for-byte:
// "otem.metrics.v2" (metrics_out= snapshots) and "otem.events.v2"
// (events_jsonl= step lines). Downstream tooling parses these files —
// a change here is a breaking change and must bump the schema string.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "core/methodology_registry.h"
#include "exec/parallel_for.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "rank_error.h"
#include "sim/obs_sink.h"
#include "sim/simulator.h"
#include "sim/step_sink.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace otem {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "otem_test_obs_" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Restores recording even when an assertion aborts the test early.
struct EnabledGuard {
  ~EnabledGuard() { obs::set_enabled(true); }
};

// --- registry / instruments --------------------------------------------

TEST(Metrics, CounterExactAcrossThreads) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("hits");
  constexpr size_t kTasks = 64;
  constexpr size_t kAddsPerTask = 10000;
  exec::parallel_for(
      kTasks,
      [&](size_t) {
        for (size_t i = 0; i < kAddsPerTask; ++i) c.add();
      },
      8);
  // Sharded slots summed at quiescence: the total is exact, not
  // approximate — threads=N must match threads=1.
  EXPECT_EQ(c.value(), kTasks * kAddsPerTask);
  EXPECT_EQ(registry.snapshot().counters.at("hits"), kTasks * kAddsPerTask);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  obs::MetricsRegistry registry;
  obs::Gauge& g = registry.gauge("level");
  g.set(1.0);
  g.set(42.5);
  EXPECT_DOUBLE_EQ(g.value(), 42.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauges.at("level"), 42.5);
}

TEST(Metrics, DisabledPathRecordsNothing) {
  const EnabledGuard guard;
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("c");
  obs::Gauge& g = registry.gauge("g");
  obs::set_enabled(false);
  c.add(7);
  g.set(3.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  obs::set_enabled(true);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

// --- golden schemas -----------------------------------------------------

TEST(Metrics, SnapshotJsonGoldenSchema) {
  obs::MetricsRegistry registry;
  registry.counter("runs").add(3);
  registry.gauge("temp_k").set(300.5);
  obs::Sketch& s = registry.sketch("lat");
  s.record(0.5);
  s.record(2.0);
  s.record(9.5);
  const std::string got =
      obs::snapshot_to_json(registry.snapshot()).dump(0);
  // Pinned byte-for-byte: this is the metrics_out= contract
  // ("otem.metrics.v2"). Names sorted; three sections, with every
  // distribution a sketch.
  const std::string want =
      "{\"schema\":\"otem.metrics.v2\","
      "\"counters\":{\"runs\":3},"
      "\"gauges\":{\"temp_k\":300.5},"
      "\"sketches\":{\"lat\":{"
      "\"count\":3,\"sum\":12,\"min\":0.5,\"max\":9.5,\"mean\":4,"
      "\"p50\":2,\"p95\":9.5,\"p99\":9.5,\"p999\":9.5}}}";
  EXPECT_EQ(got, want);
}

TEST(Metrics, SnapshotJsonGoldenSketchSection) {
  obs::MetricsRegistry registry;
  obs::Sketch& s = registry.sketch("lat_us");
  for (int i = 1; i <= 4; ++i) s.record(static_cast<double>(i));
  const std::string got =
      obs::snapshot_to_json(registry.snapshot()).dump(0);
  // Small enough that the sketch stores every sample exactly: the
  // quantile walk returns the first value whose cumulative weight
  // reaches q*n, so p50 of {1,2,3,4} is 2 and the tail quantiles hit
  // the max. Empty sections still render, as {}.
  const std::string want =
      "{\"schema\":\"otem.metrics.v2\","
      "\"counters\":{},"
      "\"gauges\":{},"
      "\"sketches\":{\"lat_us\":{"
      "\"count\":4,\"sum\":10,\"min\":1,\"max\":4,\"mean\":2.5,"
      "\"p50\":2,\"p95\":4,\"p99\":4,\"p999\":4}}}";
  EXPECT_EQ(got, want);
}

TEST(Events, StepEventGoldenLine) {
  core::StepRecord rec;
  rec.p_load_w = 12000.0;
  rec.p_cooler_w = 350.0;
  rec.e_cap_j = 500.0;
  rec.feasible = true;
  rec.solve.present = true;
  rec.solve.converged = true;
  rec.solve.fallback = false;
  rec.solve.iterations = 40;
  rec.solve.sqp_rounds = 2;
  rec.solve.qp_iterations = 120;
  rec.solve.qp_rho_updates = 3;
  rec.solve.qp_warm_hits = 2;
  rec.solve.kkt_refactorizations = 4;
  rec.solve.cost = 1.5;
  rec.solve.constraint_violation = 0.001;
  rec.solve.primal_residual = 0.0005;
  rec.solve.dual_residual = 2e-05;
  rec.solve.solve_time_us = 850.0;
  core::PlantState state;
  state.t_battery_k = 303.15;
  state.t_coolant_k = 298.65;
  state.soc_percent = 71.5;
  state.soe_percent = 64.25;
  const sim::StepSample sample{2, rec, state, 0.25, 0.5, 12.5};
  const std::string got =
      sim::JsonlEventSink::step_event(sample, 1.0).dump(0);
  // Pinned byte-for-byte: one events_jsonl= line ("otem.events.v2").
  const std::string want =
      "{\"event\":\"step\",\"k\":2,\"t_s\":2,"
      "\"p_load_w\":12000,\"p_cooler_w\":350,\"p_cap_w\":500,"
      "\"tb_k\":303.15,\"tc_k\":298.65,"
      "\"soc_percent\":71.5,\"soe_percent\":64.25,"
      "\"qloss_percent\":0.25,\"teb\":0.5,\"feasible\":true,"
      "\"step_us\":12.5,"
      "\"solve\":{\"converged\":true,\"fallback\":false,"
      "\"iterations\":40,\"sqp_rounds\":2,\"qp_iterations\":120,"
      "\"qp_rho_updates\":3,\"qp_warm_hits\":2,"
      "\"kkt_refactorizations\":4,\"cost\":1.5,"
      "\"constraint_violation\":0.001,\"primal_residual\":0.0005,"
      "\"dual_residual\":2e-05,\"latency_us\":850}}";
  EXPECT_EQ(got, want);
}

TEST(Events, StepEventOmitsSolveWhenAbsent) {
  core::StepRecord rec;  // solve.present defaults to false
  core::PlantState state;
  const sim::StepSample sample{0, rec, state, 0.0, 0.0, 0.0};
  const std::string line =
      sim::JsonlEventSink::step_event(sample, 1.0).dump(0);
  EXPECT_EQ(line.find("\"solve\""), std::string::npos);
}

// --- JSONL writer -------------------------------------------------------

TEST(Jsonl, WriterStreamsOneObjectPerLine) {
  const std::string path = temp_path("writer.jsonl");
  {
    obs::JsonlWriter w(path);
    Json a = Json::object();
    a.set("event", "run_begin");
    w.write(a);
    Json b = Json::object();
    b.set("event", "run_end").set("n", 2);
    w.write(b);
    EXPECT_EQ(w.lines_written(), 2u);
    w.close();
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"event\":\"run_begin\"}");
  EXPECT_EQ(lines[1], "{\"event\":\"run_end\",\"n\":2}");
  std::remove(path.c_str());
}

TEST(Jsonl, WriterThrowsWhenPathCannotOpen) {
  EXPECT_THROW(obs::JsonlWriter("/nonexistent-dir/x/y.jsonl"), SimError);
}

// --- sinks end-to-end ---------------------------------------------------

/// Keeps every step's SolveDiagnostics: the test-local record of what
/// DiagnosticsSink was offered.
class SolveLog final : public sim::StepSink {
 public:
  void record(const sim::StepSample& sample) override {
    solves.push_back(sample.rec.solve);
  }
  std::vector<core::SolveDiagnostics> solves;
};

/// The instrument names in one section of a MetricsSnapshot.
template <typename Section>
std::set<std::string> names_of(const Section& section) {
  std::set<std::string> out;
  for (const auto& entry : section) out.insert(entry.first);
  return out;
}

TEST(DiagnosticsSink, CapturesSolverDiagnosticsEndToEnd) {
  // Cheap LTV-OTEM setup: small horizon, short synthetic mission. The
  // point is that every step's SolveDiagnostics lands in the registry,
  // not solution quality.
  Config cfg;
  cfg.set_pair("otem.horizon=8");
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  auto methodology = core::make_methodology("otem-ltv", spec, cfg);

  const TimeSeries speed = vehicle::generate_synthetic(11, 120.0, 25.0);
  const TimeSeries load =
      vehicle::Powertrain(spec.vehicle).power_trace(speed);
  const size_t steps = load.size();

  obs::MetricsRegistry registry;
  sim::DiagnosticsSink diag(registry);
  const std::string events = temp_path("events.jsonl");
  sim::JsonlEventSink jsonl(events, 10);
  SolveLog log;
  sim::RunOptions ropt;
  ropt.record_trace = false;
  sim::Simulator(spec).run_with_sinks(*methodology, load, ropt,
                                      {&diag, &jsonl, &log});

  const obs::MetricsSnapshot snap = registry.snapshot();
  // The catalogue documented in sim/obs_sink.h, and nothing else.
  EXPECT_EQ(names_of(snap.counters),
            (std::set<std::string>{
                "sim.steps", "sim.infeasible_steps", "solver.solves",
                "solver.fallbacks", "solver.nonconverged",
                "solver.qp_rho_updates", "solver.qp_warm_hits",
                "solver.kkt_refactorizations", "solver.stage_block_ops",
                "solver.qp_polish_hits", "solver.qp_polish_unsettled"}));
  EXPECT_EQ(names_of(snap.gauges),
            (std::set<std::string>{"sim.qloss_percent", "sim.duration_s"}));
  EXPECT_EQ(names_of(snap.sketches),
            (std::set<std::string>{
                "sim.step_latency_us", "solver.latency_us",
                "solver.iterations", "solver.qp_iterations",
                "solver.qp_iterations_cold", "solver.primal_residual",
                "solver.dual_residual", "solver.constraint_violation"}));

  EXPECT_EQ(snap.counters.at("sim.steps"), steps);
  EXPECT_EQ(snap.counters.at("solver.solves"), steps);
  // Timing is sampled at the gcd of the attached sinks' strides:
  // gcd(DiagnosticsSink=64, JsonlEventSink every=10) = 2.
  EXPECT_EQ(snap.sketches.at("sim.step_latency_us").count,
            (steps + 1) / 2);
  EXPECT_EQ(snap.sketches.at("solver.latency_us").count, steps);
  EXPECT_GT(snap.sketches.at("solver.latency_us").sum, 0.0);

  // Every distribution counts exactly the steps its record condition
  // selects from the StepRecord stream.
  ASSERT_EQ(log.solves.size(), steps);
  std::uint64_t iterations = 0, cold = 0, primal = 0, dual = 0,
                violation = 0;
  std::vector<double> qp_iterations;
  for (const core::SolveDiagnostics& s : log.solves) {
    ASSERT_TRUE(s.present);
    if (s.iterations) ++iterations;
    if (s.qp_iterations) {
      qp_iterations.push_back(static_cast<double>(s.qp_iterations));
      if (s.fallback) ++cold;
    }
    if (s.primal_residual > 0.0) ++primal;
    if (s.dual_residual > 0.0) ++dual;
    if (s.constraint_violation > 0.0) ++violation;
  }
  const obs::Sketch::Snapshot& qp_all =
      snap.sketches.at("solver.qp_iterations");
  const obs::Sketch::Snapshot& qp_cold =
      snap.sketches.at("solver.qp_iterations_cold");
  EXPECT_EQ(snap.sketches.at("solver.iterations").count, iterations);
  EXPECT_EQ(qp_all.count, qp_iterations.size());
  EXPECT_EQ(qp_cold.count, cold);
  EXPECT_EQ(snap.sketches.at("solver.primal_residual").count, primal);
  EXPECT_EQ(snap.sketches.at("solver.dual_residual").count, dual);
  EXPECT_EQ(snap.sketches.at("solver.constraint_violation").count,
            violation);
  EXPECT_GT(qp_all.count, 0u);
  EXPECT_GT(primal, 0u);

  // Quantiles hold within the sketch's rank error against the exact
  // quantiles of the same values; the integer sum is exact.
  std::sort(qp_iterations.begin(), qp_iterations.end());
  EXPECT_LE(test::rank_error(qp_iterations, 0.50, qp_all.p50), 0.02);
  EXPECT_LE(test::rank_error(qp_iterations, 0.99, qp_all.p99), 0.02);
  double qp_sum = 0.0;
  for (double v : qp_iterations) qp_sum += v;
  EXPECT_EQ(qp_all.sum, qp_sum);

  // Warm-start telemetry: the first step cold-starts (1 fallback, its
  // qp_iterations land in the cold slice), every later SQP round is
  // warm, and each solve pays at least one factorisation per round.
  EXPECT_EQ(snap.counters.at("solver.fallbacks"), 1u);
  EXPECT_EQ(qp_cold.count, 1u);
  EXPECT_GT(snap.counters.at("solver.qp_warm_hits"), steps);
  EXPECT_GE(snap.counters.at("solver.kkt_refactorizations"), steps);
  // The cold step must not out-iterate the average warm step — the
  // whole point of the warm start.
  EXPECT_GT(qp_cold.sum / static_cast<double>(qp_cold.count),
            qp_all.sum / static_cast<double>(qp_all.count));
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.duration_s"),
                   static_cast<double>(steps) * 1.0);
  EXPECT_GT(snap.gauges.at("sim.qloss_percent"), 0.0);

  // JSONL envelope: run_begin + decimated steps + run_end.
  const std::vector<std::string> lines = read_lines(events);
  ASSERT_EQ(lines.size(), 2 + (steps + 9) / 10);
  EXPECT_EQ(lines.front().rfind("{\"event\":\"run_begin\","
                                "\"schema\":\"otem.events.v2\"",
                                0),
            0u);
  EXPECT_EQ(lines[1].rfind("{\"event\":\"step\",\"k\":0,", 0), 0u);
  EXPECT_EQ(lines.back().rfind("{\"event\":\"run_end\",", 0), 0u);
  std::remove(events.c_str());
}

TEST(DiagnosticsSink, RtiLtvMissionCountsUnsettledPolishes) {
  // At the RTI serving point (H=30, one SQP round, eps 0.2) a share of
  // the QP rounds end their polish with a working set that never
  // settled; the counter makes that share visible next to the
  // accepted-polish count, which cannot show it.
  Config cfg;
  cfg.set_pair("ltv.sqp_iterations=1");
  cfg.set_pair("ltv.qp.eps=0.2");
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  auto methodology = core::make_methodology("otem-ltv", spec, cfg);
  const TimeSeries speed = vehicle::generate_synthetic(12, 300.0, 30.0);
  const TimeSeries load =
      vehicle::Powertrain(spec.vehicle).power_trace(speed);

  obs::MetricsRegistry registry;
  sim::DiagnosticsSink diag(registry);
  const std::string events = temp_path("unsettled.jsonl");
  sim::JsonlEventSink jsonl(events);
  sim::RunOptions ropt;
  ropt.record_trace = false;
  sim::Simulator(spec).run_with_sinks(*methodology, load, ropt,
                                      {&diag, &jsonl});

  const obs::MetricsSnapshot snap = registry.snapshot();
  const std::uint64_t rounds = snap.counters.at("solver.solves");
  const std::uint64_t unsettled =
      snap.counters.at("solver.qp_polish_unsettled");
  EXPECT_EQ(rounds, load.size());  // one QP round per step
  EXPECT_GT(unsettled, 0u);
  EXPECT_LT(unsettled, rounds);
  // The events carry it per step, only where it is non-zero.
  size_t flagged = 0;
  for (const std::string& line : read_lines(events))
    if (line.find("\"qp_polish_unsettled\":1") != std::string::npos)
      ++flagged;
  EXPECT_EQ(flagged, unsettled);
  std::remove(events.c_str());
}

TEST(DiagnosticsSink, ReactiveBaselineHasNoSolverMetrics) {
  const core::SystemSpec spec =
      core::SystemSpec::from_config(Config());
  auto methodology = core::make_methodology("parallel", spec, Config());
  const TimeSeries speed = vehicle::generate_synthetic(11, 120.0, 25.0);
  const TimeSeries load =
      vehicle::Powertrain(spec.vehicle).power_trace(speed);

  obs::MetricsRegistry registry;
  sim::DiagnosticsSink diag(registry);
  sim::RunOptions ropt;
  ropt.record_trace = false;
  sim::Simulator(spec).run_with_sinks(*methodology, load, ropt, {&diag});

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("sim.steps"), load.size());
  EXPECT_EQ(snap.counters.at("solver.solves"), 0u);
  EXPECT_EQ(snap.sketches.at("solver.latency_us").count, 0u);
  // Alone, DiagnosticsSink samples one step in kTimingStride.
  EXPECT_EQ(snap.sketches.at("sim.step_latency_us").count,
            (load.size() + sim::DiagnosticsSink::kTimingStride - 1) /
                sim::DiagnosticsSink::kTimingStride);
}

// --- CSV stream failure -------------------------------------------------

#if !defined(_WIN32)
TEST(CsvStreamSink, ThrowsSimErrorWhenStreamFails) {
  // /dev/full accepts the open but fails every flush — a deterministic
  // stand-in for a disk filling up mid-run.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";

  const core::SystemSpec spec =
      core::SystemSpec::from_config(Config());
  core::StepRecord rec;
  core::PlantState state;
  const sim::StepSample sample{0, rec, state, 0.0, 0.0, 0.0};
  sim::CsvStreamSink sink("/dev/full");
  sim::RunContext ctx{spec, 1.0, 1, core::PlantState{}};
  sink.begin(ctx);
  EXPECT_THROW(
      {
        // Push enough rows to force a buffer flush, then end() flushes
        // whatever is left — one of the two must detect the failure.
        for (int i = 0; i < 5000; ++i) sink.record(sample);
        sink.end(state);
      },
      SimError);
}
#endif

// --- logging ------------------------------------------------------------

TEST(Logging, FormatLineLayout) {
  const std::string line =
      log::detail::format_line(log::Level::kInfo, "hello world");
  // 2026-08-06T12:34:56.789Z [otem INFO  t01] hello world\n
  const std::regex layout(
      R"(^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z )"
      R"(\[otem INFO  t\d{2,}\] hello world\n$)");
  EXPECT_TRUE(std::regex_match(line, layout)) << "line was: " << line;
}

#if !defined(_WIN32)
TEST(Logging, ParallelWritersNeverShearLines) {
  const std::string path = temp_path("log.txt");
  const int fd =
      ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0600);
  ASSERT_GE(fd, 0);
  const log::Level old_level = log::level();
  log::set_level(log::Level::kWarn);
  log::set_fd(fd);

  constexpr size_t kMessages = 256;
  exec::parallel_for(
      kMessages,
      [&](size_t i) {
        // Long payload: a sheared write would interleave mid-line.
        log::warn("hammer ", i, " ", std::string(160, 'x'));
      },
      8);

  log::set_fd(2);
  log::set_level(old_level);
  ::close(fd);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), kMessages);
  const std::regex layout(
      R"(^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z )"
      R"(\[otem WARN  t\d{2,}\] hammer (\d+) x{160}$)");
  std::set<size_t> seen;
  for (const std::string& line : lines) {
    std::smatch m;
    ASSERT_TRUE(std::regex_match(line, m, layout)) << "line: " << line;
    seen.insert(static_cast<size_t>(std::stoul(m[1].str())));
  }
  // Every message arrived exactly once, intact.
  EXPECT_EQ(seen.size(), kMessages);
  std::remove(path.c_str());
}
#endif

TEST(Logging, LevelFiltersMessages) {
  const log::Level old_level = log::level();
  log::set_level(log::Level::kOff);
  // Must not crash or emit; write() early-outs before formatting.
  log::error("dropped");
  log::set_level(old_level);
}

}  // namespace
}  // namespace otem
