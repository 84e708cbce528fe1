// sweep_fleet — Monte-Carlo robustness extension: the Fig. 8/9
// comparison repeated over a seeded ensemble of randomised missions
// (synthetic routes, ambient soak temperatures, initial bank charge).
// The paper's fixed-schedule results generalise only if the orderings
// hold in DISTRIBUTION; this bench reports mean +/- std per metric.
//
// A thin front-end over the campaign engine (src/campaign): missions
// stream through constant-memory accumulators — nothing per-run is
// retained however many missions run — and a "checkpoint=" path makes
// even this bench resumable ("resume=" continues a killed sweep
// bit-exactly). "missions=100000" is the same program as "missions=12".
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "campaign/grid.h"
#include "campaign/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace otem;

int main(int argc, char** argv) {
  const Config cfg = bench::bench_defaults(argc, argv);
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);

  // The fleet is a campaign grid with a single stochastic route axis:
  // per-route ambient/duration/charge draws, methodology innermost so
  // the comparison stays paired per mission.
  campaign::Grid grid;
  grid.methodologies = bench::methodology_names();
  grid.cycles.clear();
  grid.synthetic_routes = static_cast<size_t>(cfg.get_long("missions", 12));
  grid.seed = static_cast<std::uint64_t>(cfg.get_long("seed", 2026));
  grid.min_duration_s = cfg.get_double("min_duration_s", 600.0);
  grid.max_duration_s = cfg.get_double("max_duration_s", 1500.0);
  grid.ambient_min_k = cfg.get_double("fleet_ambient_min_k", 283.15);
  grid.ambient_max_k = cfg.get_double("fleet_ambient_max_k", 313.15);
  grid.soe0_min = cfg.get_double("soe0_min", 40.0);
  grid.soe0_max = cfg.get_double("soe0_max", 100.0);
  grid.validate();

  campaign::CampaignOptions opts;
  // Missions run on a worker pool; the committer folds results in
  // scenario order, so any width is bit-identical ("threads=1" serial).
  opts.threads = static_cast<size_t>(cfg.get_long("threads", 0));
  // "telemetry=/tmp/fleet" streams each scenario's per-step telemetry
  // to <prefix><scenario-id>.csv with O(1) memory per mission.
  const std::string telemetry = cfg.get_string("telemetry", "");
  if (!telemetry.empty()) opts.telemetry_csv_prefix = telemetry + "_";
  // "checkpoint=sweep.ckpt" makes the sweep crash-safe; "resume=" picks
  // a killed sweep back up bit-exactly.
  opts.checkpoint_path = cfg.get_string("checkpoint", "");
  opts.checkpoint_every =
      static_cast<size_t>(cfg.get_long("checkpoint_every", 1000));
  opts.resume_from = cfg.get_string("resume", "");
  opts.summary_out = cfg.get_string("summary_out", "");
  // "metrics_out=fleet.json" captures campaign counters (and, in fabric
  // mode, serve client retries) into one otem.metrics.v2 snapshot.
  const std::string metrics_out = cfg.get_string("metrics_out", "");
  obs::MetricsRegistry registry;
  if (!metrics_out.empty()) opts.metrics = &registry;
  // "trace_out=fleet.trace.json" records sim spans across the sweep
  // into one otem.trace.v1 Chrome trace.
  const std::string trace_out = cfg.get_string("trace_out", "");
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  bench::print_header(
      "Extension: Monte-Carlo fleet (" +
      std::to_string(grid.synthetic_routes) +
      " randomised missions, ambient " +
      bench::fmt(grid.ambient_min_k - 273.15, 0) + ".." +
      bench::fmt(grid.ambient_max_k - 273.15, 0) + " C)");

  const campaign::CampaignOutcome outcome =
      campaign::run_campaign(grid, spec, cfg, opts);
  if (outcome.halted) {
    std::cout << "sweep halted early";
    if (!opts.checkpoint_path.empty())
      std::cout << "; continue with resume=" << opts.checkpoint_path;
    std::cout << "\n";
    return 3;
  }

  const std::vector<int> w = {16, 22, 20, 14, 14};
  bench::print_row({"methodology", "qloss_% (mean+-std)",
                    "avg_kW (mean+-std)", "violation_s", "unserved_kJ"},
                   w);
  CsvTable csv({"methodology", "qloss_mean", "qloss_std", "power_mean_w",
                "power_std_w", "violation_total_s", "unserved_total_j"});

  const Json* groups = outcome.summary.find("groups");
  for (const auto& name : bench::methodology_names()) {
    const Json* group = groups->find(name);
    const Json* metrics = group->find("metrics");
    const Json* qloss = metrics->find("qloss_percent");
    const Json* power = metrics->find("average_power_w");
    const double violation_s =
        metrics->find("thermal_violation_s")->find("sum")->as_number();
    const double unserved_j =
        metrics->find("unserved_energy_j")->find("sum")->as_number();
    bench::print_row(
        {name,
         bench::fmt(qloss->find("mean")->as_number(), 5) + " +- " +
             bench::fmt(qloss->find("stddev")->as_number(), 5),
         bench::fmt(power->find("mean")->as_number() / 1000.0, 2) + " +- " +
             bench::fmt(power->find("stddev")->as_number() / 1000.0, 2),
         bench::fmt(violation_s, 0), bench::fmt(unserved_j / 1000.0, 1)},
        w);
    csv.add_row({name, bench::fmt(qloss->find("mean")->as_number(), 6),
                 bench::fmt(qloss->find("stddev")->as_number(), 6),
                 bench::fmt(power->find("mean")->as_number(), 1),
                 bench::fmt(power->find("stddev")->as_number(), 1),
                 bench::fmt(violation_s, 1), bench::fmt(unserved_j, 1)});
  }
  std::cout << "\nSame seed -> same fleet: the comparison is paired, so "
               "mean differences are directly attributable to the "
               "methodology.\n";
  if (!metrics_out.empty()) {
    obs::write_metrics_json(metrics_out, registry);
    std::cout << "metrics snapshot written to " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    obs::TraceCollector().write_chrome_trace(trace_out);
    std::cout << "trace written to " << trace_out << "\n";
  }
  bench::maybe_write_csv(cfg, "sweep_fleet", csv);
  return 0;
}
