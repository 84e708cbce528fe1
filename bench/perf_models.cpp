// perf_models — google-benchmark microbenchmarks of the physical model
// evaluations (the per-step primitives every simulation and MPC rollout
// is built from). Not a paper experiment; establishes the performance
// budget that lets the MPC run thousands of rollouts per plant step.
#include <benchmark/benchmark.h>

#include "battery/aging.h"
#include "battery/battery_model.h"
#include "core/system_spec.h"
#include "hees/hybrid_arch.h"
#include "hees/parallel_arch.h"
#include "thermal/cooling_system.h"
#include "ultracap/ultracap_model.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace {

using namespace otem;

const core::SystemSpec& spec() {
  static const core::SystemSpec s = core::SystemSpec::from_config(Config());
  return s;
}

void BM_BatteryVoc(benchmark::State& state) {
  const battery::PackModel pack = spec().make_battery();
  double soc = 20.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack.open_circuit_voltage(soc));
    soc = soc >= 99.0 ? 20.0 : soc + 0.1;
  }
}
BENCHMARK(BM_BatteryVoc);

void BM_BatteryCurrentForPower(benchmark::State& state) {
  const battery::PackModel pack = spec().make_battery();
  double p = -30000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack.current_for_power(70.0, 300.0, p));
    p = p > 60000.0 ? -30000.0 : p + 97.0;
  }
}
BENCHMARK(BM_BatteryCurrentForPower);

void BM_CapacityFadeRate(benchmark::State& state) {
  const battery::CapacityFadeModel fade(spec().battery.cell);
  double i = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fade.loss_rate_percent_per_s(i, 305.0));
    i = i > 9.0 ? 0.0 : i + 0.01;
  }
}
BENCHMARK(BM_CapacityFadeRate);

void BM_UltracapStep(benchmark::State& state) {
  const ultracap::BankModel bank = spec().make_ultracap();
  double soe = 100.0;
  for (auto _ : state) {
    soe = bank.step_soe(soe, 5000.0, 1.0);
    if (soe < 25.0) soe = 100.0;
    benchmark::DoNotOptimize(soe);
  }
}
BENCHMARK(BM_UltracapStep);

void BM_ThermalStep(benchmark::State& state) {
  thermal::CoolingSystem sys = spec().make_cooling();
  thermal::ThermalState s{305.0, 300.0};
  for (auto _ : state) {
    s = sys.step(s, 2000.0, 295.0, 1.0);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ThermalStep);

void BM_ThermalStepMatrix(benchmark::State& state) {
  const thermal::CoolingSystem sys = spec().make_cooling();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.step_matrix(1.0));
  }
}
BENCHMARK(BM_ThermalStepMatrix);

void BM_ParallelArchStep(benchmark::State& state) {
  const hees::ParallelArchitecture arch = spec().make_parallel_arch();
  double soc = 90.0, soe = 90.0;
  for (auto _ : state) {
    const hees::ArchStep s = arch.step(soc, soe, 300.0, 30000.0, 1.0);
    soc = s.soc_next > 25.0 ? s.soc_next : 90.0;
    soe = s.soe_next > 25.0 ? s.soe_next : 90.0;
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ParallelArchStep);

void BM_HybridArchStep(benchmark::State& state) {
  const hees::HybridArchitecture arch = spec().make_hybrid_arch();
  double soc = 90.0, soe = 90.0;
  for (auto _ : state) {
    const hees::ArchStep s =
        arch.step(soc, soe, 300.0, 20000.0, 10000.0, 1.0);
    soc = s.soc_next > 25.0 ? s.soc_next : 90.0;
    soe = s.soe_next > 25.0 ? s.soe_next : 90.0;
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_HybridArchStep);

void BM_GenerateCycle(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(vehicle::generate(vehicle::CycleName::kUs06));
  }
}
BENCHMARK(BM_GenerateCycle);

void BM_PowerTrace(benchmark::State& state) {
  const vehicle::Powertrain pt(spec().vehicle);
  const TimeSeries speed = vehicle::generate(vehicle::CycleName::kUs06);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.power_trace(speed));
  }
}
BENCHMARK(BM_PowerTrace);

}  // namespace

int main(int argc, char** argv) {
  // Same stamp as perf_solver/perf_fleet: how THIS repo was compiled,
  // which the bench/check_*.py gates require to be "release" (the stock
  // library_build_type key only describes the benchmark library).
#ifdef NDEBUG
  benchmark::AddCustomContext("repo_build_type", "release");
#else
  benchmark::AddCustomContext("repo_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
