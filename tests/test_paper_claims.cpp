// The paper's headline claims, pinned as regression tests on reduced
// workloads (US06 x2 instead of the benches' x3-x5 — same shape,
// smaller runtime). If a refactor or recalibration breaks the
// reproduction, this suite fails before the benches are ever run.
//
// The OTEM claims run on both transcriptions of the controller: the
// paper's shooting formulation ("otem") and the LTV-QP one the serve
// daemon streams ("otem-ltv", at its shipped full-SQP settings), so the
// controller we optimize and serve is held to the same claims.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/methodology_registry.h"
#include "sim/simulator.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace otem {
namespace {

const core::SystemSpec& paper_spec() {
  static const core::SystemSpec spec = core::SystemSpec::from_config(Config());
  return spec;
}

/// `name` on US06 x2 under `spec`, through the registry every front-end
/// uses.
sim::RunResult run_us06(const std::string& name, const core::SystemSpec& spec) {
  const TimeSeries power =
      vehicle::Powertrain(spec.vehicle)
          .power_trace(vehicle::generate(vehicle::CycleName::kUs06))
          .repeated(2);
  auto m = core::make_methodology(name, spec, Config());
  sim::RunOptions opt;
  opt.record_trace = false;
  return sim::Simulator(spec).run(*m, power, opt);
}

/// Every methodology at the paper's 25 C / 25 kF configuration, each
/// computed once, on first use, for the whole binary.
const sim::RunResult& at(const std::string& name) {
  static std::map<std::string, sim::RunResult> results;
  auto it = results.find(name);
  if (it == results.end())
    it = results.emplace(name, run_us06(name, paper_spec())).first;
  return it->second;
}

// --- baseline claims -------------------------------------------------------

TEST(PaperClaims, ActiveCoolingIsTheMostPowerHungry) {
  // Fig. 9: "methodologies which use active battery cooling system have
  // consumed more energy compared to others" — and the blunt fixed-
  // inlet baseline tops the list.
  EXPECT_GT(at("active_cooling").average_power_w,
            at("parallel").average_power_w);
  EXPECT_GT(at("active_cooling").average_power_w,
            at("dual").average_power_w);
}

TEST(PaperClaims, UnmanagedArchitecturesViolateThermalLimits) {
  // Figs. 1/6: without active cooling the aggressive cycle drives the
  // pack past the safe threshold.
  EXPECT_GT(at("parallel").max_t_battery_k,
            paper_spec().thermal.max_battery_temp_k);
  EXPECT_GT(at("dual").max_t_battery_k,
            paper_spec().thermal.max_battery_temp_k);
}

TEST(PaperClaims, ParallelDegradesWithSmallerBank) {
  // Table I, parallel column: qloss grows as the bank shrinks.
  const sim::RunResult r =
      run_us06("parallel", paper_spec().with_ultracap_size(5000.0));
  EXPECT_GT(r.qloss_percent, at("parallel").qloss_percent);
}

// --- OTEM claims, per controller -------------------------------------------

class OtemClaims : public ::testing::TestWithParam<std::string> {
 protected:
  const sim::RunResult& otem() const { return at(GetParam()); }
};

TEST_P(OtemClaims, OtemHasLowestCapacityLoss) {
  // Fig. 8 / Table I: OTEM's BLT improvement over every baseline.
  EXPECT_LT(otem().qloss_percent, at("parallel").qloss_percent);
  EXPECT_LT(otem().qloss_percent, at("dual").qloss_percent);
  EXPECT_LT(otem().qloss_percent, at("active_cooling").qloss_percent);
}

TEST_P(OtemClaims, OtemReductionVsParallelIsSubstantial) {
  // Paper: 16.38 % average reduction, 57 % on US06 (Table I). Demand at
  // least 20 % here.
  EXPECT_LT(otem().qloss_percent, 0.8 * at("parallel").qloss_percent);
}

TEST_P(OtemClaims, OtemConsumesLessThanPureActiveCooling) {
  // Fig. 9: 12.1 % average power reduction vs cooling-only. Demand a
  // positive margin here.
  EXPECT_LT(otem().average_power_w,
            0.99 * at("active_cooling").average_power_w);
}

TEST_P(OtemClaims, OtemStaysInTheSafeZone) {
  // The paper's C1 promise.
  EXPECT_LE(otem().thermal_violation_s, 5.0);
  EXPECT_LT(otem().max_t_battery_k,
            paper_spec().thermal.max_battery_temp_k + 0.5);
}

TEST_P(OtemClaims, OtemServesTheFullLoad) {
  // Floating-point boundary grazing accumulates nanojoules; anything a
  // driver could feel would be kilojoules.
  EXPECT_LT(otem().unserved_energy_j, 1.0);
}

TEST_P(OtemClaims, OtemIsNearlyBankSizeIndependent) {
  // Table I: "the OTEM ... is not much dependent on the ultracapacitor
  // size" — a 5 kF OTEM still beats the 25 kF parallel baseline.
  const sim::RunResult r =
      run_us06(GetParam(), paper_spec().with_ultracap_size(5000.0));
  EXPECT_LT(r.qloss_percent, at("parallel").qloss_percent);
  EXPECT_LE(r.thermal_violation_s, 5.0);
}

std::string controller_name(const ::testing::TestParamInfo<std::string>& p) {
  return p.param == "otem" ? "shooting" : "ltv";
}

INSTANTIATE_TEST_SUITE_P(Controllers, OtemClaims,
                         ::testing::Values("otem", "otem-ltv"),
                         controller_name);

}  // namespace
}  // namespace otem
