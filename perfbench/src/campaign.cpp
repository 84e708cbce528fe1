// campaign.cpp — the two campaign workloads.
//
// Each pass is one campaign::run_campaign call, in-process, on two
// worker threads; passes repeat until the run's seconds are spent.
//
//   paper_campaign     the paper grid: parallel, active_cooling, dual,
//                      otem-ltv x US06, SC03, NYCC x 25/35 C, with
//                      otem-ltv at its shipped full-SQP point
//   reactive_campaign  50 seeded synthetic missions x parallel,
//                      active_cooling, dual per pass; pass i draws its
//                      missions from seed i % 64 of a pool derived from
//                      the run seed, 3200 missions in all. Plant-bound:
//                      no solver, no serve layer
//
// Set-up is config parse, grid expansion and spec build, up to the
// run_campaign call. Every pass's summary is an output run.py checks.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>

#include "campaign/accumulator.h"
#include "campaign/grid.h"
#include "campaign/runner.h"
#include "common/config.h"
#include "common/json.h"
#include "core/methodology_registry.h"
#include "core/system_spec.h"
#include "obs/trace.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "sim/step_sink.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kThreads = 2;
constexpr size_t kReactivePool = 64;
constexpr size_t kReactiveRoutes = 50;
/// Passes of reactive_campaign replayed layer by layer in a traced run.
constexpr size_t kDecomposedPasses = 4;
constexpr size_t kSetupReps = 201;
/// Steps between span drains in the decomposition: an otem-ltv step at
/// three SQP rounds records ~10 spans, the ring holds 2048.
constexpr size_t kDrainEverySteps = 64;

/// Grid and methodology keys of pass `index` of the seed's pool.
Pairs pass_pairs(const Options& opt, size_t index) {
  Pairs pairs;
  if (opt.workload == "paper_campaign") {
    pairs = {{"campaign.methods", "parallel,active_cooling,dual,otem-ltv"},
             {"campaign.cycles", "US06,SC03,NYCC"},
             {"campaign.synthetic_routes", "0"},
             {"campaign.ambients_c", "25,35"},
             {"campaign.seed", std::to_string(opt.seed % 2000000000ull)}};
  } else {
    const std::uint64_t seed = 1 + derive_seed(opt.seed, index) % 2000000000ull;
    pairs = {{"campaign.methods", "parallel,active_cooling,dual"},
             {"campaign.synthetic_routes", std::to_string(kReactiveRoutes)},
             {"campaign.seed", std::to_string(seed)}};
  }
  for (const auto& kv : opt.overrides) pairs.push_back(kv);
  return pairs;
}

/// Everything a campaign front-end builds before run_campaign.
struct Prepared {
  Pairs pairs;
  otem::Config cfg;
  otem::campaign::Grid grid;
  otem::core::SystemSpec spec;
  std::vector<otem::campaign::ScenarioSpec> scenarios;
};

std::unique_ptr<Prepared> prepare(const Pairs& pairs) {
  auto p = std::make_unique<Prepared>();
  p->pairs = pairs;
  for (const auto& [key, value] : pairs) p->cfg.set(key, value);
  p->grid = otem::campaign::Grid::from_config(p->cfg);
  p->grid.validate();
  p->scenarios.reserve(p->grid.size());
  for (size_t i = 0; i < p->grid.size(); ++i)
    p->scenarios.push_back(p->grid.at(i));
  p->spec = otem::core::SystemSpec::from_config(p->cfg);
  return p;
}

/// The summary's groups with every double as its bit pattern.
std::string groups_hex(const otem::Json& summary) {
  const otem::Json* groups = summary.find("groups");
  if (groups == nullptr || !groups->is_object()) return "null";
  std::string out = "{";
  for (const auto& [name, group] : groups->members()) {
    if (out.size() > 1) out += ',';
    out += jstr(name) + ":{\"scenarios\":";
    const otem::Json* n = group.find("scenarios");
    out += n != nullptr && n->is_number() ? jnum(n->as_number()) : "null";
    out += ",\"metrics\":{";
    const otem::Json* metrics = group.find("metrics");
    bool first_dim = true;
    if (metrics != nullptr && metrics->is_object()) {
      for (const auto& [dim, stats] : metrics->members()) {
        if (!first_dim) out += ',';
        first_dim = false;
        out += jstr(dim) + ":{";
        bool first_stat = true;
        for (const auto& [stat, value] : stats.members()) {
          if (!first_stat) out += ',';
          first_stat = false;
          out += jstr(stat) + ":";
          out += value.is_number() ? jstr(hex_bits(value.as_number()))
                                   : std::string("null");
        }
        out += "}";
      }
    }
    out += "}}";
  }
  return out + "}";
}

struct Pass {
  size_t seed_index = 0;
  double end_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t scenarios = 0;
};

/// A campaign user waits for whole passes, so the pass is the unit.
struct Phase {
  double start_s = 0.0;
  double wall_s = 0.0;
  std::vector<Pass> passes;

  double rate() const {  ///< median scenarios per second of a pass
    std::vector<double> rates;
    for (const Pass& p : passes)
      rates.push_back(static_cast<double>(p.scenarios) / p.wall_s);
    return median(rates);
  }

  /// Pass latency quantile. Passes shorter than a second are binned in
  /// 1-s windows like the stream round trips and the median over the
  /// windows is taken, so a burst of interference moves neither p50 nor
  /// p99. Longer passes (paper_campaign's ~8 s) are too few for
  /// windows; their quantile is over the passes themselves.
  double latency_us(double q) const {
    std::vector<double> all;
    for (const Pass& p : passes) all.push_back(p.wall_s * 1e6);
    if (*std::max_element(all.begin(), all.end()) >= 1e6)
      return q == 0.5 ? median(all) : percentile(all, q);
    Windows windows(start_s, 1.0, static_cast<size_t>(wall_s));
    for (const Pass& p : passes) windows.add(p.end_s, p.wall_s * 1e6);
    return windows.median_quantile(q);
  }
};

/// Run pass after pass (at least one) until `seconds` elapse.
Phase run_passes(const std::vector<std::unique_ptr<Prepared>>& prepared,
                 size_t first, double seconds, size_t max_passes,
                 Report& report,
                 std::map<std::pair<size_t, std::string>, size_t>& outputs) {
  Phase phase;
  std::vector<Pass>& passes = phase.passes;
  const double start = now_s();
  phase.start_s = start;
  for (size_t p = first;; ++p) {
    if (!passes.empty() &&
        (now_s() - start >= seconds || passes.size() >= max_passes))
      break;
    const size_t index = p % prepared.size();
    const Prepared& prep = *prepared[index];
    otem::campaign::CampaignOptions o;
    o.threads = kThreads;
    const std::uint64_t total = prep.grid.size();
    report.attempted += total;
    Pass pass;
    pass.seed_index = index;
    try {
      const double t0 = now_s();
      const otem::campaign::CampaignOutcome outcome =
          otem::campaign::run_campaign(prep.grid, prep.spec, prep.cfg, o);
      pass.end_s = now_s();
      pass.wall_s = pass.end_s - t0;
      if (outcome.halted || outcome.scenarios_run != total ||
          outcome.summary_text.empty()) {
        report.failed += total - 1;
        report.fail("campaign pass " + std::to_string(index) +
                    " did not complete");
        break;
      }
      pass.scenarios = total;
      ++outputs[{index, groups_hex(outcome.summary)}];
    } catch (const std::exception& e) {
      report.failed += total - 1;
      report.fail(std::string("campaign pass failed: ") + e.what());
      break;
    }
    passes.push_back(pass);
  }
  phase.wall_s = now_s() - start;
  return phase;
}

std::string outputs_json(
    const std::string& workload,
    const std::map<std::pair<size_t, std::string>, size_t>& outputs,
    const std::vector<std::unique_ptr<Prepared>>& prepared) {
  std::string out = "{\"kind\":\"campaign\",\"workload\":" + jstr(workload) +
                    ",\"grid_sizes\":[";
  for (size_t i = 0; i < prepared.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(prepared[i]->grid.size());
  }
  out += "],\"methods\":[";
  const auto& methods = prepared[0]->grid.methodologies;
  for (size_t i = 0; i < methods.size(); ++i) {
    if (i > 0) out += ',';
    out += jstr(methods[i]);
  }
  out += "],\"passes\":[";
  bool first = true;
  for (const auto& [key, count] : outputs) {
    if (!first) out += ',';
    first = false;
    out += "{\"seed_index\":" + std::to_string(key.first) +
           ",\"count\":" + std::to_string(count) + ",\"groups\":" +
           key.second + "}";
  }
  return out + "]}";
}

/// Collects solver diagnostics and per-step decision time of the
/// otem-ltv scenarios, and drains the span rings as the mission runs.
class SolverProbe final : public otem::sim::StepSink {
 public:
  size_t timing_stride() const override { return 1; }
  void record(const otem::sim::StepSample& sample) override {
    const otem::core::SolveDiagnostics& s = sample.rec.solve;
    if (!s.present) return;
    decision_us.push_back(sample.step_time_us);
    (sample.k == 0 ? cold_solve_us : warm_solve_us).push_back(s.solve_time_us);
    (sample.k == 0 ? cold_iters : warm_iters) +=
        static_cast<double>(s.qp_iterations);
    kkt += static_cast<double>(s.kkt_refactorizations);
    sqp_rounds += static_cast<double>(s.sqp_rounds);
    warm_hits += static_cast<double>(s.qp_warm_hits);
    polish_hits += static_cast<double>(s.qp_polish_hits);
    if (s.fallback && sample.k > 0) fallbacks += 1.0;
    if (++since_drain_ == kDrainEverySteps) drain();
  }
  void end(const otem::core::PlantState&) override { drain(); }

  /// The single thread running the mission is between steps here, so
  /// the rings are quiescent.
  void drain() {
    since_drain_ = 0;
    for (const auto& s : otem::obs::TraceCollector().collect()) {
      if (std::strcmp(s.name, "ltv.solve") == 0) ltv_solve_us += s.dur_us;
      else if (std::strcmp(s.name, "ltv_qp.solve") == 0) qp_solve_us += s.dur_us;
      else if (std::strcmp(s.name, "ltv_qp.factorize") == 0)
        factorize_us += s.dur_us;
    }
    otem::obs::trace_reset();
  }

  std::vector<double> decision_us, warm_solve_us, cold_solve_us;
  double warm_iters = 0, cold_iters = 0, kkt = 0, sqp_rounds = 0;
  double warm_hits = 0, polish_hits = 0, fallbacks = 0;
  double ltv_solve_us = 0, qp_solve_us = 0, factorize_us = 0;

 private:
  size_t since_drain_ = 0;
};

/// Layer-by-layer replay of some passes, single-threaded, through the
/// same public entry points the campaign runner uses per scenario.
struct Decomposition {
  double route_us = 0.0;        ///< sim::scenario_power_trace, summed
  double sim_us = 0.0;          ///< Simulator::run_with_sinks, summed
  double work_us = 0.0;         ///< route + build + simulate, summed
  double reactive_sim_us = 0.0; ///< Simulator::run_with_sinks, reactive
  double reactive_steps = 0.0;
  double hees_us = 0.0;         ///< reactive Methodology::step loop
  double hees_steps = 0.0;
  double fold_us = 0.0;         ///< per CampaignAccumulator::commit
  double scenarios = 0.0;
  SolverProbe probe;
};

Decomposition decompose(const std::vector<const Prepared*>& preps) {
  Decomposition d;
  std::vector<otem::campaign::ScenarioResult> results;
  std::vector<std::string> groups;
  std::vector<std::pair<const Prepared*, const otem::campaign::ScenarioSpec*>>
      items;
  for (const Prepared* prep : preps)
    for (const otem::campaign::ScenarioSpec& s : prep->scenarios)
      items.emplace_back(prep, &s);
  for (const auto& [prep_ptr, spec_ptr] : items) {
    const Prepared& prep = *prep_ptr;
    const otem::campaign::ScenarioSpec& s = *spec_ptr;
    otem::core::SystemSpec spec = prep.spec.with_ultracap_size(
        prep.spec.ultracap.capacitance_f * s.uc_scale);
    spec.ambient_k = s.ambient_k;
    otem::sim::Scenario sc;
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
    sc.record_trace = false;
    otem::Config cfg;
    for (const auto& [key, value] : prep.pairs) cfg.set(key, value);

    const double t0 = now_s();
    const otem::TimeSeries power = otem::sim::scenario_power_trace(sc, spec);
    const double t1 = now_s();
    auto methodology = otem::core::make_methodology(s.methodology, spec, cfg);
    otem::sim::RunOptions ro;
    ro.initial = sc.initial;
    ro.initial.t_battery_k = spec.ambient_k;
    ro.initial.t_coolant_k = spec.ambient_k;
    ro.record_trace = false;
    otem::sim::MetricsAccumulator metrics;
    const bool solver = s.methodology == "otem-ltv";
    std::vector<otem::sim::StepSink*> sinks{&metrics};
    if (solver) {
      sinks.push_back(&d.probe);
      otem::obs::trace_reset();
      otem::obs::set_trace_enabled(true);
    }
    const double t2 = now_s();
    otem::sim::Simulator(spec).run_with_sinks(*methodology, power, ro, sinks);
    const double t3 = now_s();
    otem::obs::set_trace_enabled(false);

    d.route_us += (t1 - t0) * 1e6;
    d.sim_us += (t3 - t2) * 1e6;
    d.work_us += (t3 - t0) * 1e6;
    d.scenarios += 1.0;
    results.push_back(otem::campaign::ScenarioResult::from_run(metrics.take()));
    groups.push_back(s.methodology);
    if (solver) continue;
    d.reactive_sim_us += (t3 - t2) * 1e6;
    d.reactive_steps += static_cast<double>(power.size());

    // The HEES + thermal decision alone: Methodology::step in a loop.
    auto bare = otem::core::make_methodology(s.methodology, spec, cfg);
    otem::core::PlantState state = ro.initial;
    bare->reset(state, power);
    const double t4 = now_s();
    for (size_t k = 0; k < power.size(); ++k)
      bare->step(state, power[k], k, power.dt());
    d.hees_us += (now_s() - t4) * 1e6;
    d.hees_steps += static_cast<double>(power.size());
  }

  // The in-order fold, over enough commits to time it.
  const size_t commits = std::max<size_t>(20000, results.size());
  otem::campaign::CampaignAccumulator acc;
  const double t0 = now_s();
  for (size_t i = 0; i < commits; ++i)
    acc.commit(groups[i % groups.size()], results[i % results.size()]);
  d.fold_us = (now_s() - t0) * 1e6 / static_cast<double>(commits);
  return d;
}

}  // namespace

bool is_campaign_workload(const std::string& name) {
  return name == "paper_campaign" || name == "reactive_campaign";
}

Report run_campaign_workload(const Options& opt) {
  const bool paper = opt.workload == "paper_campaign";
  const size_t pool = paper ? 1 : kReactivePool;
  Report report;

  // Set-up, repeated on each CPU in turn; the median is reported. The
  // campaign's worker threads inherit the affinity restored after it.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Prepared>> prepared(pool);
  const std::vector<int> cpus = allowed_cpus();
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    if (!cpus.empty()) pin(0, cpus[rep % cpus.size()]);
    const double t0 = now_s();
    prepared[0] = prepare(pass_pairs(opt, 0));
    setup_s.push_back(now_s() - t0);
  }
  set_affinity(0, cpus);
  for (size_t i = 1; i < pool; ++i) prepared[i] = prepare(pass_pairs(opt, i));

  std::map<std::pair<size_t, std::string>, size_t> outputs;
  if (opt.record) {
    run_passes(prepared, 0, 1e300, pool, report, outputs);
    report.outputs = outputs_json(opt.workload, outputs, prepared);
    return report;
  }

  const double phase_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const Phase untraced =
      run_passes(prepared, 0, phase_s, SIZE_MAX, report, outputs);
  Phase traced;
  if (opt.trace && report.failed == 0) {
    otem::obs::trace_reset();
    otem::obs::set_trace_enabled(true);
    traced = run_passes(prepared, untraced.passes.size(), phase_s, SIZE_MAX,
                        report, outputs);
    otem::obs::set_trace_enabled(false);
    otem::obs::trace_reset();
  }
  report.outputs = outputs_json(opt.workload, outputs, prepared);

  const double rate = untraced.rate();
  report.detail = "{\"passes\":" + std::to_string(untraced.passes.size()) +
                  ",\"scenarios_per_pass\":" +
                  std::to_string(prepared[0]->grid.size()) +
                  ",\"setup_samples\":" + std::to_string(setup_s.size()) + "}";

  if (!opt.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("latency_p50_us", untraced.latency_us(0.50), "us");
    report.add("latency_p99_us", untraced.latency_us(0.99), "us");
    report.add("throughput_per_s", rate, "1/s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }
  if (report.failed != 0) return report;

  // Layer by layer, single-threaded, over the first passes of the pool.
  std::vector<const Prepared*> decomposed;
  double busy_us = 0.0;  // two-thread capacity those passes took
  for (size_t i = 0; i < std::min(pool, kDecomposedPasses); ++i) {
    std::vector<double> walls;
    for (const Pass& p : untraced.passes)
      if (p.seed_index == i) walls.push_back(p.wall_s * 1e6);
    if (walls.empty()) break;
    decomposed.push_back(prepared[i].get());
    busy_us += median(walls) * static_cast<double>(kThreads);
  }
  const Decomposition d = decompose(decomposed);
  report.add("exec.busy_ratio", d.work_us / busy_us, "ratio");
  report.add("vehicle.route_us", d.route_us / d.scenarios, "us");
  const double sim_ns = d.reactive_sim_us * 1e3 / d.reactive_steps;
  const double hees_ns = d.hees_us * 1e3 / d.hees_steps;
  report.add("sim.step_ns", sim_ns, "ns");
  report.add("hees.step_ns", hees_ns, "ns");
  report.add("sim.loop_ns", sim_ns - hees_ns, "ns");
  report.add("campaign.fold_us", d.fold_us, "us");
  report.add("obs.trace_overhead_pct",
             (rate / traced.rate() - 1.0) * 100.0, "%");
  // Per scenario: the two-thread passes' busy time not covered by route
  // synthesis, the simulated mission and the fold (methodology
  // construction, scenario expansion, idle workers).
  const double per_scenario = busy_us / d.scenarios;
  report.add("unattributed_pct",
             100.0 *
                 (per_scenario - (d.route_us + d.sim_us) / d.scenarios -
                  d.fold_us) /
                 per_scenario,
             "%");
  const SolverProbe& p = d.probe;
  if (!p.decision_us.empty()) {
    const double n = static_cast<double>(p.decision_us.size());
    const double warm = static_cast<double>(p.warm_solve_us.size());
    report.add("core.solve_p50_us", percentile(p.warm_solve_us, 0.50), "us");
    report.add("core.solve_p99_us", percentile(p.warm_solve_us, 0.99), "us");
    report.add("core.cold_solve_ms", median(p.cold_solve_us) / 1000.0, "ms");
    report.add("core.solve_share",
               (sum(p.warm_solve_us) + sum(p.cold_solve_us)) /
                   sum(p.decision_us),
               "ratio");
    report.add("core.sqp_outside_qp_us", (p.ltv_solve_us - p.qp_solve_us) / n,
               "us");
    report.add("optim.admm_iters_warm", p.warm_iters / warm, "count");
    report.add("optim.admm_iters_cold",
               p.cold_iters / static_cast<double>(p.cold_solve_us.size()),
               "count");
    report.add("optim.kkt_factorizations_per_decision", p.kkt / n, "count");
    report.add("optim.polish_hit_ratio", p.polish_hits / p.sqp_rounds, "ratio");
    report.add("optim.warm_hit_ratio", p.warm_hits / p.sqp_rounds, "ratio");
    report.add("optim.fallbacks", p.fallbacks, "count");
    report.add("optim.qp_solve_us", p.qp_solve_us / n, "us");
    report.add("optim.factorize_us", p.factorize_us / n, "us");
  }
  return report;
}

}  // namespace perfbench
