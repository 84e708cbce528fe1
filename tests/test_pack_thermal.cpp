// Tests for the cell-resolved pack thermal model.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "thermal/pack_thermal.h"

namespace otem::thermal {
namespace {

CoolingParams params() { return CoolingParams{}; }

TEST(PackThermal, SingleSegmentMatchesLumpedModel) {
  CoolingSystem lumped(params());
  const PackThermalModel pack(params(), 1);
  ThermalState ls{305.0, 300.0};
  PackThermalModel::State ps;
  ps.t_cell_k = {305.0};
  ps.t_coolant_k = {300.0};
  for (int k = 0; k < 300; ++k) {
    ls = lumped.step(ls, 2000.0, 295.0, 1.0);
    ps = pack.step(ps, 2000.0, 295.0, 1.0);
  }
  // One segment with upstream-midpoint inlet is exactly the lumped
  // scheme fed the true inlet.
  EXPECT_NEAR(ps.t_cell_k[0], ls.t_battery_k, 1e-9);
  EXPECT_NEAR(ps.t_coolant_k[0], ls.t_coolant_k, 1e-9);
}

TEST(PackThermal, DownstreamCellsRunHotter) {
  const PackThermalModel pack(params(), 8);
  auto s = pack.uniform(298.15);
  for (int k = 0; k < 4000; ++k) s = pack.step(s, 3000.0, 295.0, 1.0);
  for (int i = 1; i < 8; ++i)
    EXPECT_GT(s.t_cell_k[i], s.t_cell_k[i - 1]) << "segment " << i;
  EXPECT_GT(pack.hotspot_margin(s), 0.5);
}

TEST(PackThermal, EquilibriumIsSteadyState) {
  const PackThermalModel pack(params(), 6);
  const auto eq = pack.equilibrium(2400.0, 296.0);
  auto s = eq;
  for (int k = 0; k < 50; ++k) s = pack.step(s, 2400.0, 296.0, 1.0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(s.t_cell_k[i], eq.t_cell_k[i], 0.02);
    EXPECT_NEAR(s.t_coolant_k[i], eq.t_coolant_k[i], 0.02);
  }
}

TEST(PackThermal, StepConvergesToEquilibrium) {
  const PackThermalModel pack(params(), 6);
  auto s = pack.uniform(320.0);
  for (int k = 0; k < 30000; ++k) s = pack.step(s, 2400.0, 296.0, 1.0);
  const auto eq = pack.equilibrium(2400.0, 296.0);
  for (int i = 0; i < 6; ++i)
    EXPECT_NEAR(s.t_cell_k[i], eq.t_cell_k[i], 0.05);
}

TEST(PackThermal, OutletMatchesLumpedAtSteadyState) {
  // Both models must conserve energy: the stream leaves carrying all
  // the heat, so the outlet temperature is inlet + Q/Cdot either way.
  const CoolingParams p = params();
  const PackThermalModel pack(p, 10);
  const auto eq = pack.equilibrium(2000.0, 295.0);
  EXPECT_NEAR(pack.outlet(eq), 295.0 + 2000.0 / p.flow_heat_capacity_rate,
              1e-9);
}

TEST(PackThermal, MeanTracksLumpedUnderTransient) {
  // The distributed mean cell temperature stays within ~2 K of the
  // lumped prediction through a heating transient (the lumped coolant
  // is fully mixed at outlet temperature, so it runs slightly hotter
  // than the distributed mean).
  CoolingSystem lumped(params());
  const PackThermalModel pack(params(), 10);
  ThermalState ls{298.15, 298.15};
  auto ps = pack.uniform(298.15);
  for (int k = 0; k < 1200; ++k) {
    const double q = (k / 100) % 2 == 0 ? 3500.0 : 500.0;  // pulsing
    ls = lumped.step(ls, q, 294.0, 1.0);
    ps = pack.step(ps, q, 294.0, 1.0);
    EXPECT_NEAR(pack.mean_cell(ps), ls.t_battery_k, 2.0) << "k=" << k;
  }
}

TEST(PackThermal, HotspotGrowsWithHeat) {
  const PackThermalModel pack(params(), 8);
  auto low = pack.equilibrium(1000.0, 295.0);
  auto high = pack.equilibrium(4000.0, 295.0);
  EXPECT_GT(pack.hotspot_margin(high), pack.hotspot_margin(low));
}

TEST(PackThermal, DistributedHeatShiftsHotSpot) {
  const PackThermalModel pack(params(), 4);
  auto s = pack.uniform(298.15);
  // All heat in the FIRST segment: it must become the hottest even
  // though it sits at the coolest end of the stream.
  const std::vector<double> q = {3000.0, 0.0, 0.0, 0.0};
  for (int k = 0; k < 4000; ++k)
    s = pack.step_distributed(s, q, 295.0, 1.0);
  EXPECT_GT(s.t_cell_k[0], s.t_cell_k[1]);
  EXPECT_GT(s.t_cell_k[0], s.t_cell_k[3]);
}

TEST(PackThermal, SegmentCountConverges) {
  // Refining the discretisation changes the hottest cell by little
  // beyond ~10 segments.
  const PackThermalModel coarse(params(), 10);
  const PackThermalModel fine(params(), 40);
  const double hot_coarse =
      coarse.hottest_cell(coarse.equilibrium(3000.0, 295.0));
  const double hot_fine = fine.hottest_cell(fine.equilibrium(3000.0, 295.0));
  EXPECT_NEAR(hot_coarse, hot_fine, 0.4);
}

TEST(PackThermal, InvalidInputsThrow) {
  EXPECT_THROW(PackThermalModel(params(), 0), SimError);
  const PackThermalModel pack(params(), 3);
  auto s = pack.uniform(298.0);
  EXPECT_THROW(pack.step_distributed(s, {1.0, 2.0}, 295.0, 1.0), SimError);
}

}  // namespace
}  // namespace otem::thermal
