// sweep_ambient — environment-temperature sweep. The paper evaluates
// "multiple standard driving cycles ... different environment
// temperatures" (Section IV-A); this bench makes the temperature axis
// explicit: the same US06 mission from a winter-cold soak to a desert
// afternoon, for every methodology. The pack starts soaked at ambient.
//
// Expected shape: the spread between methodologies grows with ambient —
// hot packs age exponentially faster (Eq. 5), so management matters
// most in summer, while in the cold everything behaves similarly (and
// the cold pack's HIGHER internal resistance raises everyone's losses).
//
// The (ambient x methodology) grid cells are independent, so they run
// through exec::parallel_for ("threads=N" override, 0 = auto); rows are
// printed in grid order afterwards, so output is identical at any width.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "exec/parallel_for.h"
#include "vehicle/hvac.h"

using namespace otem;

int main(int argc, char** argv) {
  const Config cfg = bench::bench_defaults(argc, argv);
  const size_t repeats = static_cast<size_t>(cfg.get_long("repeats", 2));
  const size_t threads = static_cast<size_t>(cfg.get_long("threads", 0));

  bench::print_header("Extension: ambient-temperature sweep (US06 x" +
                      std::to_string(repeats) + ")");
  const std::vector<int> w = {11, 16, 12, 14, 12, 14};
  bench::print_row({"ambient_C", "methodology", "qloss_%", "avg_power_W",
                    "max_Tb_C", "violation_s"},
                   w);
  CsvTable csv({"ambient_c", "methodology", "qloss_percent", "avg_power_w",
                "max_tb_c", "violation_s"});

  // Per-ambient context, prepared serially (the power trace is shared
  // by every methodology at that ambient).
  struct AmbientCase {
    double ambient_c = 0.0;
    Config acfg;
    core::SystemSpec spec;
    TimeSeries power;
  };
  const vehicle::CabinHvac hvac(vehicle::HvacParams::from_config(cfg));
  std::vector<AmbientCase> cases;
  for (double ambient_c : {-10.0, 5.0, 20.0, 30.0, 40.0}) {
    AmbientCase ac;
    ac.ambient_c = ambient_c;
    ac.acfg = cfg;
    ac.acfg.set("ambient_k", ambient_c + 273.15);
    // The cabin HVAC makes the accessory load ambient-dependent [2]:
    // heating in the cold, A/C in the heat.
    if (!cfg.has("vehicle.accessory_power")) {
      ac.acfg.set("vehicle.accessory_power",
                  vehicle::VehicleParams{}.accessory_power_w +
                      hvac.steady_load_w(ambient_c + 273.15));
    }
    ac.spec = core::SystemSpec::from_config(ac.acfg);
    ac.power = bench::cycle_power(ac.spec, vehicle::CycleName::kUs06,
                                  repeats);
    cases.push_back(std::move(ac));
  }

  const auto& names = bench::methodology_names();
  const size_t cells = cases.size() * names.size();
  std::vector<sim::RunResult> results(cells);
  exec::parallel_for(
      cells,
      [&](size_t i) {
        const AmbientCase& ac = cases[i / names.size()];
        const std::string& name = names[i % names.size()];
        const sim::Simulator sim(ac.spec);
        auto m = bench::make_methodology(name, ac.spec, ac.acfg);
        sim::RunOptions opt;
        opt.record_trace = false;
        // A parked car soaks to ambient before the mission.
        opt.initial.t_battery_k = ac.spec.ambient_k;
        opt.initial.t_coolant_k = ac.spec.ambient_k;
        results[i] = sim.run(*m, ac.power, opt);
      },
      threads);

  for (size_t i = 0; i < cells; ++i) {
    const AmbientCase& ac = cases[i / names.size()];
    const std::string& name = names[i % names.size()];
    const sim::RunResult& r = results[i];
    bench::print_row({bench::fmt(ac.ambient_c, 0), name,
                      bench::fmt(r.qloss_percent, 5),
                      bench::fmt(r.average_power_w, 0),
                      bench::fmt(r.max_t_battery_k - 273.15, 1),
                      bench::fmt(r.thermal_violation_s, 0)},
                     w);
    csv.add_row({bench::fmt(ac.ambient_c, 1), name,
                 bench::fmt(r.qloss_percent, 6),
                 bench::fmt(r.average_power_w, 1),
                 bench::fmt(r.max_t_battery_k - 273.15, 2),
                 bench::fmt(r.thermal_violation_s, 1)});
  }
  bench::maybe_write_csv(cfg, "sweep_ambient", csv);
  return 0;
}
