// fig9_power_consumption — reproduces the paper's Fig. 9: "Power
// Consumption Comparison for Different Methodologies in Multiple Drive
// Cycles": average power drawn from the HEES (EV load + cooling
// overheads + all losses) per cycle and methodology.
//
// Expected shape: methodologies with active cooling (active_cooling,
// otem) consume more than the passive ones; OTEM consumes on average
// ~12 % LESS than the pure active-cooling architecture (the paper's
// 12.1 %) because the HEES shares the work the cooler would otherwise
// compensate for.
#include <iostream>
#include <map>
#include <vector>

#include "bench_common.h"
#include "sim/metrics.h"

using namespace otem;

int main(int argc, char** argv) {
  const Config cfg = bench::bench_defaults(argc, argv);
  const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  const size_t repeats = static_cast<size_t>(cfg.get_long("repeats", 3));

  const auto cycles = vehicle::all_cycles();
  const auto& methods = bench::methodology_names();
  const auto cells =
      bench::run_comparison(spec, cfg, cycles, methods, repeats);

  bench::print_header(
      "Fig. 9: Average power consumption [W], per drive cycle (x" +
      std::to_string(repeats) + ", ambient " +
      bench::fmt(spec.ambient_k - 273.15) + " C)");
  const std::vector<int> w = {9, 16, 14, 15, 14};
  bench::print_row({"cycle", "methodology", "avg_power_W", "cooling_Wavg",
                    "loss_Wavg"},
                   w);

  CsvTable csv({"cycle", "methodology", "avg_power_w", "cooling_w_avg",
                "loss_w_avg"});

  std::map<std::string, double> sum_power;
  std::map<std::string, int> count_power;
  for (const auto& c : cells) {
    const double cooling_avg =
        c.result.energy_cooling_j / c.result.duration_s;
    const double loss_avg = c.result.energy_loss_j / c.result.duration_s;
    bench::print_row({vehicle::to_string(c.cycle), c.methodology,
                      bench::fmt(c.result.average_power_w, 0),
                      bench::fmt(cooling_avg, 0), bench::fmt(loss_avg, 0)},
                     w);
    csv.add_row({vehicle::to_string(c.cycle), c.methodology,
                 bench::fmt(c.result.average_power_w, 1),
                 bench::fmt(cooling_avg, 1), bench::fmt(loss_avg, 1)});
    sum_power[c.methodology] += c.result.average_power_w;
    count_power[c.methodology] += 1;
  }

  std::cout << "\nAverage power across cycles:\n";
  for (const auto& name : methods)
    std::cout << "  " << name << ": "
              << bench::fmt(sum_power[name] / count_power[name], 0)
              << " W\n";

  const double cool =
      sum_power["active_cooling"] / count_power["active_cooling"];
  std::cout << "\n";
  for (const char* name : {"otem", "otem-ltv"}) {
    const double avg = sum_power[name] / count_power[name];
    std::cout << name << " vs pure active cooling: "
              << bench::fmt(100.0 * (1.0 - avg / cool), 2)
              << " % average power reduction (paper: 12.1 %)\n";
  }
  bench::maybe_write_csv(cfg, "fig9", csv);
  return 0;
}
