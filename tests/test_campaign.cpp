// Tests for the campaign subsystem: the generator grammar (stable
// order, O(1) expansion, content-addressed IDs), bit-exact sketch and
// accumulator serialization, and the determinism contract the whole
// design exists for — the otem.campaign.v1 summary is BYTE-IDENTICAL
// at any thread count, and a campaign halted after K commits and
// resumed from its checkpoint (at a different thread count) produces
// the same bytes as one that was never interrupted.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bit_hash.h"
#include "campaign/checkpoint.h"
#include "campaign/grid.h"
#include "campaign/runner.h"
#include "common/config.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/system_spec.h"
#include "obs/sketch.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/scenario.h"
#include "vehicle/drive_cycle.h"

namespace otem {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "otem_test_campaign_" + name;
}

/// A deliberately tiny grid so determinism tests run many full
/// campaigns quickly: 3 synthetic routes x 2 UC sizes x 2 methods = 12
/// scenarios of ~2 simulated minutes each.
campaign::Grid small_grid() {
  campaign::Grid grid;
  grid.methodologies = {"parallel", "dual"};
  grid.cycles.clear();
  grid.synthetic_routes = 3;
  grid.min_duration_s = 90.0;
  grid.max_duration_s = 150.0;
  grid.uc_scales = {0.5, 1.0};
  grid.seed = 7;
  return grid;
}

// --- hex encoding -------------------------------------------------------

TEST(CampaignHex, DoubleRoundTripIsBitExact) {
  const double values[] = {0.0,    -0.0,       1.0 / 3.0, 1e-308,
                           2.5e17, -123.4567,  1e308};
  for (double v : values) {
    const std::string hex = strings::hex_double(v);
    EXPECT_EQ(hex.size(), 16u);
    const double back = strings::parse_hex_double(hex);
    EXPECT_EQ(strings::hex_double(back), hex) << v;
  }
  EXPECT_THROW(strings::parse_hex_u64("123"), SimError);
  EXPECT_THROW(strings::parse_hex_u64("123456789abcdefg"), SimError);
}

// --- generator grammar --------------------------------------------------

TEST(CampaignGrid, SizeIsAxisProductAndExpansionIsStable) {
  const campaign::Grid grid = small_grid();
  ASSERT_EQ(grid.size(), 3u * 2u * 2u);
  // Methodology is the innermost axis: consecutive scenarios differ
  // only in methodology, so comparisons stay paired per mission.
  const campaign::ScenarioSpec a = grid.at(0);
  const campaign::ScenarioSpec b = grid.at(1);
  EXPECT_EQ(a.methodology, "parallel");
  EXPECT_EQ(b.methodology, "dual");
  EXPECT_EQ(a.route_seed, b.route_seed);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.ambient_k, b.ambient_k);
  EXPECT_EQ(a.uc_scale, b.uc_scale);
  // Expansion is a pure function of (grid, index).
  for (size_t i = 0; i < grid.size(); ++i) {
    const campaign::ScenarioSpec once = grid.at(i);
    const campaign::ScenarioSpec twice = grid.at(i);
    EXPECT_EQ(once.id, twice.id);
    EXPECT_EQ(once.seed, twice.seed);
    EXPECT_EQ(once.canonical_key(), twice.canonical_key());
  }
}

TEST(CampaignGrid, IdsAreContentAddressedAndUnique) {
  const campaign::Grid grid = small_grid();
  std::set<std::string> ids;
  for (size_t i = 0; i < grid.size(); ++i) {
    const campaign::ScenarioSpec s = grid.at(i);
    EXPECT_EQ(s.id.size(), 16u);
    EXPECT_EQ(s.id, strings::hex_u64(campaign::fnv1a64(s.canonical_key())));
    ids.insert(s.id);
  }
  EXPECT_EQ(ids.size(), grid.size());
  // Same physical content in a different grid object = same id.
  campaign::Grid other = small_grid();
  EXPECT_EQ(other.at(3).id, grid.at(3).id);
  // A different campaign seed changes the drawn conditions, hence ids.
  other.seed = 8;
  EXPECT_NE(other.at(3).id, grid.at(3).id);
  EXPECT_NE(other.fingerprint(), grid.fingerprint());
}

TEST(CampaignGrid, FromConfigParsesAxesAndValidates) {
  Config cfg;
  cfg.set("campaign.methods", "otem,dual");
  cfg.set("campaign.cycles", "UDDS,US06");
  cfg.set("campaign.synthetic_routes", "1");
  cfg.set("campaign.ambients_c", "10:40:4");
  cfg.set("campaign.uc_scales", "0.5,1,2");
  cfg.set("campaign.seed", "99");
  const campaign::Grid grid = campaign::Grid::from_config(cfg);
  EXPECT_EQ(grid.methodologies.size(), 2u);
  EXPECT_EQ(grid.routes(), 3u);  // two cycles + one synthetic
  ASSERT_EQ(grid.ambients_k.size(), 4u);
  EXPECT_NEAR(grid.ambients_k.front(), 283.15, 1e-9);
  EXPECT_NEAR(grid.ambients_k.back(), 313.15, 1e-9);
  EXPECT_EQ(grid.size(), 3u * 4u * 3u * 2u);
  grid.validate();

  Config bad;
  bad.set("campaign.cycles", "NOT_A_CYCLE");
  bad.set("campaign.synthetic_routes", "0");
  EXPECT_THROW(campaign::Grid::from_config(bad).validate(), SimError);
}

TEST(CampaignGrid, ValidateRefusesSyntheticDurationsPastTheCap) {
  // The synthetic duration range is held to the scenario's (0, 1e6] s.
  campaign::Grid grid = small_grid();
  grid.max_duration_s = 1e6;
  EXPECT_NO_THROW(grid.validate());
  grid.max_duration_s = 2e6;
  EXPECT_THROW(grid.validate(), SimError);
  grid.min_duration_s = 1.5e6;
  EXPECT_THROW(grid.validate(), SimError);
  grid = small_grid();
  grid.min_duration_s = 0.0;
  EXPECT_THROW(grid.validate(), SimError);
}

TEST(CampaignGrid, ValidateRefusesAmbientsAndChargesOutsideThePlantDomain) {
  // The same domain SystemSpec and Scenario enforce, so a local campaign
  // and its fabric twin refuse the same grids before any scenario runs.
  using campaign::Grid;
  const auto refused = [](auto mutate) {
    Grid grid = small_grid();
    mutate(grid);
    try {
      grid.validate();
      return false;
    } catch (const SimError&) {
      return true;
    }
  };
  EXPECT_TRUE(refused([](Grid& g) { g.ambients_k = {298.15, 1e300}; }));
  EXPECT_TRUE(refused([](Grid& g) { g.ambients_k = {233.14}; }));
  EXPECT_TRUE(refused([](Grid& g) { g.ambient_max_k = 358.16; }));
  EXPECT_TRUE(refused([](Grid& g) { g.ambient_min_k = -1e300; }));
  EXPECT_TRUE(refused([](Grid& g) { g.soe0_max = 100.5; }));
  EXPECT_TRUE(refused([](Grid& g) { g.soe0_min = -1.0; }));
  EXPECT_FALSE(refused([](Grid& g) {
    g.ambients_k = {233.15, 358.15};
    g.soe0_min = 0.0;
    g.soe0_max = 100.0;
  }));

  Config cfg;
  cfg.set("campaign.ambients_c", "-50,25");
  EXPECT_THROW(Grid::from_config(cfg), SimError);
}

// --- sketch serialization -----------------------------------------------

TEST(CampaignSketch, JsonRoundTripContinuesBitIdentically) {
  Rng rng(42);
  obs::QuantileSketch original(64);
  // Enough samples to force several compaction levels.
  for (int i = 0; i < 5000; ++i) original.add(rng.uniform(-50.0, 1000.0));

  obs::QuantileSketch restored =
      obs::QuantileSketch::from_json(original.to_json());
  EXPECT_EQ(restored.to_json().dump(), original.to_json().dump());
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(restored.quantile(q), original.quantile(q));

  // The restored sketch must CONTINUE identically, not just report
  // identically: same inputs after the round-trip, same state after.
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.uniform(-50.0, 1000.0);
    original.add(v);
    restored.add(v);
  }
  EXPECT_EQ(restored.to_json().dump(), original.to_json().dump());
}

// --- accumulator --------------------------------------------------------

TEST(CampaignAccumulator, CheckpointRoundTripContinuesBitIdentically) {
  Rng rng(1);
  campaign::CampaignAccumulator acc;
  auto random_result = [&]() {
    campaign::ScenarioResult r;
    for (size_t d = 0; d < campaign::ScenarioResult::kDims; ++d)
      r.set_dim(d, rng.uniform(0.0, 1e6));
    return r;
  };
  for (int i = 0; i < 500; ++i)
    acc.commit(i % 2 ? "otem" : "dual", random_result());

  campaign::CampaignAccumulator restored =
      campaign::CampaignAccumulator::from_json(acc.to_json());
  EXPECT_EQ(restored.committed(), acc.committed());
  EXPECT_EQ(restored.groups_json().dump(), acc.groups_json().dump());

  for (int i = 0; i < 500; ++i) {
    const campaign::ScenarioResult r = random_result();
    acc.commit(i % 2 ? "otem" : "dual", r);
    restored.commit(i % 2 ? "otem" : "dual", r);
  }
  EXPECT_EQ(restored.to_json().dump(), acc.to_json().dump());
  EXPECT_EQ(restored.groups_json().dump(), acc.groups_json().dump());
}

TEST(CampaignCheckpoint, FileRoundTripAndValidation) {
  campaign::Checkpoint ck;
  ck.grid_fingerprint = "deadbeefdeadbeef";
  ck.watermark = 7;
  campaign::CampaignAccumulator acc;
  for (int i = 0; i < 7; ++i) {
    campaign::ScenarioResult r;
    r.qloss_percent = 0.1 * i;
    acc.commit("otem", r);
  }
  ck.accumulator = acc.to_json();
  campaign::ScenarioResult out_of_order;
  out_of_order.qloss_percent = 1.25;
  ck.pending.emplace(9, out_of_order);

  const std::string path = temp_path("roundtrip.ckpt");
  campaign::write_checkpoint_file(path, ck);
  const campaign::Checkpoint back = campaign::read_checkpoint_file(path);
  EXPECT_EQ(back.grid_fingerprint, ck.grid_fingerprint);
  EXPECT_EQ(back.watermark, ck.watermark);
  ASSERT_EQ(back.pending.size(), 1u);
  EXPECT_EQ(back.pending.at(9).qloss_percent, 1.25);
  EXPECT_EQ(back.to_json().dump(), ck.to_json().dump());
  std::remove(path.c_str());

  // A watermark that disagrees with the accumulator is rejected.
  campaign::Checkpoint torn = ck;
  torn.watermark = 6;
  EXPECT_THROW(campaign::Checkpoint::from_json(torn.to_json()), SimError);
}

// --- end-to-end determinism ---------------------------------------------

TEST(CampaignRunner, SummaryBytesAreThreadCountInvariant) {
  const campaign::Grid grid = small_grid();
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  campaign::CampaignOptions one;
  one.threads = 1;
  const campaign::CampaignOutcome serial =
      campaign::run_campaign(grid, spec, cfg, one);
  ASSERT_FALSE(serial.halted);
  ASSERT_EQ(serial.scenarios_run, grid.size());
  ASSERT_FALSE(serial.summary_text.empty());

  for (size_t threads : {2u, 5u}) {
    campaign::CampaignOptions opt;
    opt.threads = threads;
    const campaign::CampaignOutcome parallel =
        campaign::run_campaign(grid, spec, cfg, opt);
    EXPECT_EQ(parallel.summary_text, serial.summary_text)
        << "threads=" << threads;
  }
}

TEST(CampaignRunner, HaltAndResumeReproduceUninterruptedBytes) {
  const campaign::Grid grid = small_grid();
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  campaign::CampaignOptions reference;
  reference.threads = 3;
  const campaign::CampaignOutcome uninterrupted =
      campaign::run_campaign(grid, spec, cfg, reference);
  ASSERT_FALSE(uninterrupted.summary_text.empty());

  // Halt after K commits at one thread count, resume at another — the
  // interruption must be invisible in the summary bytes.
  for (const std::uint64_t K : {1u, 5u, 11u}) {
    const std::string ckpt =
        temp_path("resume_" + std::to_string(K) + ".ckpt");

    campaign::CampaignOptions first;
    first.threads = 4;
    first.checkpoint_path = ckpt;
    first.checkpoint_every = 2;
    first.halt_after_commits = K;
    const campaign::CampaignOutcome halted =
        campaign::run_campaign(grid, spec, cfg, first);
    EXPECT_TRUE(halted.halted) << "K=" << K;
    EXPECT_TRUE(halted.summary_text.empty()) << "K=" << K;

    campaign::CampaignOptions second;
    second.threads = 2;
    second.resume_from = ckpt;
    const campaign::CampaignOutcome resumed =
        campaign::run_campaign(grid, spec, cfg, second);
    EXPECT_FALSE(resumed.halted) << "K=" << K;
    EXPECT_GE(resumed.scenarios_restored, K) << "K=" << K;
    EXPECT_EQ(resumed.scenarios_restored + resumed.scenarios_run,
              grid.size())
        << "K=" << K;
    EXPECT_EQ(resumed.summary_text, uninterrupted.summary_text)
        << "K=" << K;
    std::remove(ckpt.c_str());
  }
}

TEST(CampaignRunner, ResumeRejectsMismatchedGrid) {
  const campaign::Grid grid = small_grid();
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  const std::string ckpt = temp_path("mismatch.ckpt");
  campaign::CampaignOptions first;
  first.threads = 2;
  first.checkpoint_path = ckpt;
  first.halt_after_commits = 3;
  (void)campaign::run_campaign(grid, spec, cfg, first);

  campaign::Grid other = small_grid();
  other.seed = 1234;
  campaign::CampaignOptions second;
  second.resume_from = ckpt;
  EXPECT_THROW(campaign::run_campaign(other, spec, cfg, second), SimError);
  std::remove(ckpt.c_str());
}

TEST(CampaignRunner, SummaryDocumentShape) {
  const campaign::Grid grid = small_grid();
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  campaign::CampaignOptions opt;
  opt.threads = 2;
  const std::string out = temp_path("summary.json");
  opt.summary_out = out;
  const campaign::CampaignOutcome outcome =
      campaign::run_campaign(grid, spec, cfg, opt);

  const Json& summary = outcome.summary;
  ASSERT_TRUE(summary.is_object());
  EXPECT_EQ(summary.find("schema")->as_string(), "otem.campaign.v1");
  EXPECT_EQ(summary.find("scenarios")->as_number(),
            static_cast<double>(grid.size()));
  const Json* groups = summary.find("groups");
  ASSERT_TRUE(groups != nullptr && groups->is_object());
  for (const std::string method : {"parallel", "dual"}) {
    const Json* group = groups->find(method);
    ASSERT_TRUE(group != nullptr) << method;
    EXPECT_EQ(group->find("scenarios")->as_number(),
              static_cast<double>(grid.size() / 2));
    const Json* metrics = group->find("metrics");
    ASSERT_TRUE(metrics != nullptr);
    const Json* qloss = metrics->find("qloss_percent");
    ASSERT_TRUE(qloss != nullptr);
    for (const char* stat :
         {"count", "mean", "stddev", "min", "max", "sum", "p50", "p95",
          "p99"})
      EXPECT_TRUE(qloss->find(stat) != nullptr) << stat;
    EXPECT_GT(qloss->find("mean")->as_number(), 0.0);
  }

  // summary_out received exactly summary_text's bytes.
  std::ifstream f(out);
  std::string file_text((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(file_text, outcome.summary_text);
  std::remove(out.c_str());
}

TEST(CampaignRunner, LtvSolverStateStaysIsolatedAcrossThreads) {
  // otem-ltv carries warm starts and the banded KKT's stage workspace
  // across steps INSIDE a mission; each scenario owns its controller,
  // so execution width and repetition must not change a single byte.
  campaign::Grid grid;
  grid.methodologies = {"otem-ltv"};
  grid.cycles.clear();
  grid.synthetic_routes = 3;
  grid.min_duration_s = 60.0;
  grid.max_duration_s = 120.0;
  grid.seed = 99;
  Config cfg;
  cfg.set("otem.horizon", "8");
  cfg.set("ltv.kkt", "banded");
  cfg.set("ltv.warm_start", "true");
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  campaign::CampaignOptions one;
  one.threads = 1;
  const std::string serial =
      campaign::run_campaign(grid, spec, cfg, one).summary_text;
  ASSERT_FALSE(serial.empty());

  campaign::CampaignOptions four;
  four.threads = 4;
  EXPECT_EQ(campaign::run_campaign(grid, spec, cfg, four).summary_text,
            serial);
  // Repeat at the same width: solver state resets per scenario.
  EXPECT_EQ(campaign::run_campaign(grid, spec, cfg, four).summary_text,
            serial);
}

TEST(CampaignFabric, SummaryMatchesLocalByteForByte) {
  // The same grid run in-process and dispatched as otem.serve.v1 run
  // requests to a daemon on a Unix socket: report_hex carries every
  // report double bit for bit, so the summaries are the same bytes.
  campaign::Grid grid;
  grid.methodologies = {"parallel", "dual", "otem-ltv"};
  grid.cycles.clear();
  grid.synthetic_routes = 2;
  grid.min_duration_s = 30.0;
  grid.max_duration_s = 60.0;
  grid.seed = 7;
  Config cfg;
  cfg.set("otem.horizon", "8");
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  campaign::CampaignOptions local;
  local.threads = 2;
  const std::string expected =
      campaign::run_campaign(grid, spec, cfg, local).summary_text;
  ASSERT_FALSE(expected.empty());

  const std::string sock = temp_path("fabric.sock");
  serve::ServerOptions server_options;
  server_options.threads = 2;
  server_options.workers = 2;
  serve::Server server(server_options);
  std::thread serving([&] { (void)server.serve_unix(sock); });
  // Nothing may throw past here until `serving` is joined.
  std::string fabric_summary;
  try {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      try {
        serve::request_once(sock,
                            R"({"schema":"otem.serve.v1","method":"ping"})");
        break;
      } catch (const SimError&) {
        if (std::chrono::steady_clock::now() >= deadline) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    campaign::CampaignOptions fabric;
    fabric.threads = 2;
    fabric.serve_sockets = {sock};
    fabric_summary =
        campaign::run_campaign(grid, spec, cfg, fabric).summary_text;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "fabric campaign failed: " << e.what();
  }
  server.request_stop();
  serving.join();
  EXPECT_EQ(fabric_summary, expected);
}

TEST(CampaignRunner, OtemBeatsParallelInDistribution) {
  // The paper's ordering must hold on a paired random grid, not just
  // the fixed schedules.
  campaign::Grid grid;
  grid.methodologies = {"parallel", "otem"};
  grid.cycles.clear();
  grid.synthetic_routes = 5;
  grid.min_duration_s = 300.0;
  grid.max_duration_s = 500.0;
  grid.soe0_min = 40.0;
  grid.soe0_max = 100.0;
  grid.seed = 99;
  Config cfg;
  cfg.set("otem.horizon", "12");
  cfg.set("otem.solver.adam_iterations", "60");
  cfg.set("otem.solver.outer_iterations", "2");
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  campaign::CampaignOptions opt;
  opt.threads = 2;
  const Json summary = campaign::run_campaign(grid, spec, cfg, opt).summary;
  ASSERT_TRUE(summary.is_object());
  const Json* groups = summary.find("groups");
  ASSERT_TRUE(groups != nullptr);
  auto stat = [&](const char* method, const char* dim, const char* which) {
    const Json* group = groups->find(method);
    const Json* metrics = group ? group->find("metrics") : nullptr;
    const Json* metric = metrics ? metrics->find(dim) : nullptr;
    const Json* value = metric ? metric->find(which) : nullptr;
    EXPECT_TRUE(value != nullptr) << method << " " << dim << " " << which;
    return value != nullptr ? value->as_number() : 0.0;
  };
  EXPECT_LT(stat("otem", "qloss_percent", "mean"),
            stat("parallel", "qloss_percent", "mean"));
  EXPECT_LE(stat("otem", "thermal_violation_s", "sum"),
            stat("parallel", "thermal_violation_s", "sum"));
}

TEST(CampaignRunner, TelemetryPrefixStreamsOneCsvPerScenario) {
  // Every scenario writes <prefix><scenario-id>.csv with one row per
  // step, while the summary stays byte-identical to a run without
  // telemetry (the sink only observes; it never feeds back).
  const campaign::Grid grid = small_grid();
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  campaign::CampaignOptions plain;
  plain.threads = 2;
  campaign::CampaignOptions streaming = plain;
  const std::string prefix = temp_path("telemetry_");
  streaming.telemetry_csv_prefix = prefix;

  const std::string a =
      campaign::run_campaign(grid, spec, cfg, plain).summary_text;
  const std::string b =
      campaign::run_campaign(grid, spec, cfg, streaming).summary_text;
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  for (size_t i = 0; i < grid.size(); ++i) {
    const campaign::ScenarioSpec s = grid.at(i);
    const std::string path = prefix + s.id + ".csv";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing telemetry file " << path;
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("t_s,p_load_w,", 0), 0u) << path;
    size_t rows = 0;
    while (std::getline(in, line)) ++rows;
    // One row per simulated step: one per sample of the route.
    const size_t steps =
        vehicle::generate_synthetic(s.route_seed, s.duration_s,
                                    s.max_speed_mps)
            .size();
    EXPECT_EQ(rows, steps) << path;
    std::remove(path.c_str());
  }
}

/// Sets an environment variable for one scope and restores the old
/// value (or its absence) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = std::string(old);
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(CampaignRunner, DefaultWidthHonoursOtemThreads) {
  // threads = 0 resolves like every other width in the library:
  // OTEM_THREADS before hardware concurrency. With OTEM_THREADS=1 every
  // scenario must run on the one worker thread.
  const campaign::Grid grid = small_grid();
  ASSERT_EQ(grid.size(), 12u);
  const Config cfg;
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  std::vector<obs::SpanRecord> spans;
  {
    const ScopedEnv env("OTEM_THREADS", "1");
    obs::trace_reset();
    obs::set_trace_enabled(true);
    campaign::CampaignOptions opt;
    opt.threads = 0;
    const campaign::CampaignOutcome outcome =
        campaign::run_campaign(grid, spec, cfg, opt);
    obs::set_trace_enabled(false);
    spans = obs::TraceCollector().collect();
    obs::trace_reset();
    ASSERT_EQ(outcome.scenarios_run, grid.size());
  }

  std::set<std::uint32_t> tids;
  size_t runs = 0;
  for (const obs::SpanRecord& span : spans) {
    if (std::strcmp(span.name, "scenario.run") != 0) continue;
    ++runs;
    tids.insert(span.tid);
  }
  EXPECT_EQ(runs, grid.size());
  EXPECT_EQ(tids.size(), 1u);
}

// --- golden ids and fingerprints ---------------------------------------

TEST(CampaignGrid, IdsAndFingerprintsMatchTheirRecordedValues) {
  // Scenario ids and grid fingerprints are persisted (checkpoints,
  // result caches, summaries), so their bytes are pinned: synthetic and
  // cycle routes, drawn and axis ambients, fractional UC scales and
  // drawn initial charges.
  campaign::Grid grid;
  grid.methodologies = {"parallel", "active_cooling", "dual"};
  grid.cycles = {"US06", "NYCC"};
  grid.synthetic_routes = 3;
  grid.min_duration_s = 61.5;
  grid.max_duration_s = 1234.5678;
  grid.max_speed_mps = 37.25;
  grid.uc_scales = {0.3, 1.0, 2.0 / 3.0};
  grid.soe0_min = 20.0;
  grid.soe0_max = 99.9;
  grid.seed = 424242;
  std::string ids;
  for (size_t i = 0; i < grid.size(); i += 7) ids += grid.at(i).id + ",";
  EXPECT_EQ(campaign::fnv1a64(ids), 0xb51ed8b8d276bbccull) << ids;
  EXPECT_EQ(grid.at(0).canonical_key(),
            "method=parallel|route=US06|ambient_k=288.76164700639765|"
            "uc_scale=0.29999999999999999|soe0=62.408101072751222");
  EXPECT_EQ(grid.at(grid.size() - 1).canonical_key(),
            "method=dual|route=synthetic|route_seed=3d0241a7738f4616|"
            "duration_s=973.36815107726966|max_speed_mps=37.25|"
            "ambient_k=299.18757911483323|uc_scale=0.66666666666666663|"
            "soe0=95.41163229616501");
  EXPECT_EQ(grid.fingerprint(), "6a76851352d78035");

  grid.ambients_k = {263.15, 298.15, 1.0 / 3.0 + 300.0};
  EXPECT_EQ(grid.at(grid.size() - 2).canonical_key(),
            "method=active_cooling|route=synthetic|"
            "route_seed=3d0241a7738f4616|duration_s=973.36815107726966|"
            "max_speed_mps=37.25|ambient_k=300.33333333333331|"
            "uc_scale=0.66666666666666663|soe0=95.41163229616501");
  EXPECT_EQ(grid.fingerprint(), "e120086bc52db2e4");
}

// --- reactive plant bit pins -------------------------------------------

/// 2 cycles and 73 seeded synthetic routes (1-4 minutes, up to 40 m/s),
/// each at a drawn ambient of 5-40 C and initial bank charge of
/// 10-100 %, at two UC sizes: 150 scenarios of `method`.
campaign::Grid reactive_pin_grid(const std::string& method) {
  campaign::Grid grid;
  grid.methodologies = {method};
  grid.cycles = {"US06", "NYCC"};
  grid.synthetic_routes = 73;
  grid.min_duration_s = 60.0;
  grid.max_duration_s = 240.0;
  grid.max_speed_mps = 40.0;
  grid.ambient_min_k = 278.15;
  grid.ambient_max_k = 313.15;
  grid.uc_scales = {0.3, 1.0};
  grid.soe0_min = 10.0;
  grid.soe0_max = 100.0;
  grid.seed = 20261020;
  return grid;
}

/// Every RunResult double and every per-step trace value of the
/// pin grid's scenarios, run the way a local campaign worker runs them.
std::uint64_t reactive_run_hash(const std::string& method) {
  const campaign::Grid grid = reactive_pin_grid(method);
  EXPECT_EQ(grid.size(), 150u);
  const Config cfg;
  const core::SystemSpec base = core::SystemSpec::from_config(cfg);
  test::BitHash h;
  for (size_t i = 0; i < grid.size(); ++i) {
    const campaign::ScenarioSpec s = grid.at(i);
    core::SystemSpec spec =
        base.with_ultracap_size(base.ultracap.capacitance_f * s.uc_scale);
    spec.ambient_k = s.ambient_k;
    sim::Scenario sc;
    sc.methodology = s.methodology;
    if (s.synthetic()) {
      sc.synthetic = true;
      sc.synthetic_seed = s.route_seed;
      sc.synthetic_duration_s = s.duration_s;
      sc.synthetic_max_speed_mps = s.max_speed_mps;
    } else {
      sc.cycle = s.route;
    }
    sc.soak = true;
    sc.initial.soe_percent = s.soe0;
    sc.record_trace = true;
    const sim::RunResult r = sim::run_scenario(sc, spec, cfg).result;
    for (const double v :
         {r.duration_s, r.qloss_percent, r.energy_hees_j, r.energy_battery_j,
          r.energy_cap_j, r.energy_cooling_j, r.energy_loss_j,
          r.average_power_w, r.max_t_battery_k, r.thermal_violation_s,
          r.unserved_energy_j, r.final_state.t_battery_k,
          r.final_state.t_coolant_k, r.final_state.soc_percent,
          r.final_state.soe_percent})
      h.add(v);
    h.add_count(r.infeasible_steps);
    for (const TimeSeries* series :
         {&r.trace.t_battery_k, &r.trace.t_coolant_k, &r.trace.soc_percent,
          &r.trace.soe_percent, &r.trace.p_cooler_w, &r.trace.p_cap_w,
          &r.trace.q_bat_w, &r.trace.t_inlet_k, &r.trace.i_bat_a,
          &r.trace.qloss_percent})
      h.add(series->values());
  }
  return h.value();
}

// Recorded on x86-64 GCC builds (Release and the sanitizer
// RelWithDebInfo builds agree: no FMA contraction on the baseline ISA).
// A plant refactor that claims to keep every bit must leave these
// unchanged.
TEST(ReactiveBitPin, ParallelOver150Scenarios) {
  const std::uint64_t h = reactive_run_hash("parallel");
  EXPECT_EQ(h, 0x3280cf9593cfe786ull) << std::hex << "0x" << h;
}

TEST(ReactiveBitPin, ActiveCoolingOver150Scenarios) {
  const std::uint64_t h = reactive_run_hash("active_cooling");
  EXPECT_EQ(h, 0x40d923b51354077dull) << std::hex << "0x" << h;
}

TEST(ReactiveBitPin, DualOver150Scenarios) {
  const std::uint64_t h = reactive_run_hash("dual");
  EXPECT_EQ(h, 0xe9a376ef4adc59d7ull) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace otem
