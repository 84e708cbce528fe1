// table1_ucap_size_sweep — reproduces the paper's Table I:
// "Analyzing the Influence of Ultracapacitor Size in Different
// Methodologies". US06 drive cycle; ultracapacitor sizes 5,000 F to
// 25,000 F; Parallel [15], Dual [16], OTEM and its LTV-QP
// transcription (otem-ltv) compared on average power [W] and capacity
// loss [% of Parallel @ 25,000 F].
//
// Expected shape (paper): shrinking the bank raises the parallel
// architecture's capacity loss steeply (175 % at 5 kF vs 100 % at
// 25 kF) and hurts Dual moderately, while OTEM stays nearly flat
// because the active cooling system substitutes for the missing bank.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "exec/parallel_for.h"
#include "sim/metrics.h"

using namespace otem;

int main(int argc, char** argv) {
  const Config cfg = bench::bench_defaults(argc, argv);
  const core::SystemSpec base = core::SystemSpec::from_config(cfg);
  const size_t repeats =
      static_cast<size_t>(cfg.get_long("repeats", 3));

  const std::vector<double> sizes = {5000.0, 10000.0, 20000.0, 25000.0};
  const std::vector<std::string> methods = {"parallel", "dual", "otem",
                                           "otem-ltv"};

  // Normalisation baseline: Parallel @ 25,000 F (the paper's 100 %).
  const core::SystemSpec spec25 = base.with_ultracap_size(25000.0);
  const TimeSeries power = bench::cycle_power(
      spec25, vehicle::CycleName::kUs06, repeats);
  sim::Scenario base_sc;
  base_sc.methodology = "parallel";
  base_sc.cycle = vehicle::to_string(vehicle::CycleName::kUs06);
  base_sc.repeats = repeats;
  base_sc.record_trace = false;
  const sim::RunResult baseline =
      sim::run_scenario(base_sc, spec25, cfg).result;

  bench::print_header(
      "Table I: Influence of Ultracapacitor Size (US06 x" +
      std::to_string(repeats) + ", ambient " +
      bench::fmt(base.ambient_k - 273.15) + " C)");
  const std::vector<int> w = {10, 16, 14, 14, 16, 18, 10};
  bench::print_row({"size_F", "methodology", "avg_power_W", "qloss_rel_%",
                    "max_Tb_C", "violation_s", "infeas"},
                   w);

  CsvTable csv({"size_f", "methodology", "avg_power_w", "qloss_rel_percent",
                "qloss_abs_percent", "max_tb_c", "violation_s"});

  // The (size x methodology) grid is embarrassingly parallel once the
  // serial baseline above is fixed; run the cells through parallel_for
  // and print in grid order so output is identical at any width.
  const size_t threads = static_cast<size_t>(cfg.get_long("threads", 0));
  const size_t cells = sizes.size() * methods.size();
  std::vector<sim::RunResult> results(cells);
  exec::parallel_for(
      cells,
      [&](size_t i) {
        const core::SystemSpec spec =
            base.with_ultracap_size(sizes[i / methods.size()]);
        const sim::Simulator sim(spec);
        auto m = bench::make_methodology(methods[i % methods.size()],
                                         spec, cfg);
        sim::RunOptions opt;
        opt.record_trace = false;
        results[i] = sim.run(*m, power, opt);
      },
      threads);

  for (size_t i = 0; i < cells; ++i) {
    const double size = sizes[i / methods.size()];
    const std::string& name = methods[i % methods.size()];
    const sim::RunResult& r = results[i];
    const double rel = sim::relative_capacity_loss_percent(r, baseline);
    bench::print_row(
        {bench::fmt(size, 0), name, bench::fmt(r.average_power_w, 0),
         bench::fmt(rel, 2), bench::fmt(r.max_t_battery_k - 273.15, 2),
         bench::fmt(r.thermal_violation_s, 0),
         std::to_string(r.infeasible_steps)},
        w);
    csv.add_row({bench::fmt(size, 0), name,
                 bench::fmt(r.average_power_w, 1), bench::fmt(rel, 3),
                 bench::fmt(r.qloss_percent, 6),
                 bench::fmt(r.max_t_battery_k - 273.15, 3),
                 bench::fmt(r.thermal_violation_s, 1)});
  }
  bench::maybe_write_csv(cfg, "table1", csv);
  return 0;
}
