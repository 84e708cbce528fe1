// Property-based sweeps over the thermal substrate: the trapezoidal
// scheme's invariants across the parameter grid, cooler economics, and
// interactions the pointwise tests in test_thermal.cpp do not cover.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "thermal/cooling_system.h"

namespace otem::thermal {
namespace {

// ---------------------------------------------------------------------------
// Parameter grid: (heat transfer, flow rate).

class ThermalParamGrid
    : public ::testing::TestWithParam<std::tuple<double, double>> {
 protected:
  CoolingParams params() const {
    CoolingParams p;
    p.heat_transfer_w_k = std::get<0>(GetParam());
    p.flow_heat_capacity_rate = std::get<1>(GetParam());
    return p;
  }
};

TEST_P(ThermalParamGrid, TrapezoidalMatchesEquilibriumEverywhere) {
  CoolingSystem sys(params());
  ThermalState s{330.0, 320.0};
  for (int k = 0; k < 60000; ++k) s = sys.step(s, 1800.0, 293.0, 1.0);
  const ThermalState eq = sys.equilibrium(1800.0, 293.0);
  EXPECT_NEAR(s.t_battery_k, eq.t_battery_k, 1e-3);
  EXPECT_NEAR(s.t_coolant_k, eq.t_coolant_k, 1e-3);
}

TEST_P(ThermalParamGrid, StepMatrixRowsArePhysical) {
  // All update coefficients must be non-negative (a hotter input never
  // produces a cooler output) and each temperature row's coefficients
  // must sum to 1 for the homogeneous part (temperature offsets are
  // preserved when q = 0 and all inputs shift together).
  const CoolingSystem sys(params());
  const StepMatrix m = sys.step_matrix(1.0);
  EXPECT_GE(m.m00, 0.0);
  EXPECT_GE(m.m01, 0.0);
  EXPECT_GE(m.m10, 0.0);
  EXPECT_GE(m.m11, 0.0);
  EXPECT_GE(m.bi0, 0.0);
  EXPECT_GE(m.bi1, 0.0);
  EXPECT_GE(m.bq0, 0.0);
  EXPECT_GE(m.bq1, 0.0);
  EXPECT_NEAR(m.m00 + m.m01 + m.bi0, 1.0, 1e-12);
  EXPECT_NEAR(m.m10 + m.m11 + m.bi1, 1.0, 1e-12);
}

TEST_P(ThermalParamGrid, MonotoneInHeatAndInlet) {
  CoolingSystem sys(params());
  const ThermalState s{305.0, 301.0};
  const ThermalState low_q = sys.step(s, 500.0, 295.0, 5.0);
  const ThermalState high_q = sys.step(s, 2500.0, 295.0, 5.0);
  EXPECT_GT(high_q.t_battery_k, low_q.t_battery_k);
  const ThermalState warm_in = sys.step(s, 1000.0, 299.0, 5.0);
  const ThermalState cold_in = sys.step(s, 1000.0, 285.0, 5.0);
  EXPECT_LT(cold_in.t_coolant_k, warm_in.t_coolant_k);
  EXPECT_LT(cold_in.t_battery_k, warm_in.t_battery_k);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ThermalParamGrid,
    ::testing::Combine(::testing::Values(150.0, 400.0, 600.0, 1200.0),
                       ::testing::Values(300.0, 700.0, 1500.0)));

// ---------------------------------------------------------------------------
// Randomised invariants.

TEST(ThermalProperty, TemperaturesStayOrderedUnderRandomDriving) {
  // With heat always entering at the battery, the battery can approach
  // but never durably fall below the coolant by more than the
  // transient overshoot of one step.
  CoolingSystem sys((CoolingParams()));
  Rng rng(8);
  ThermalState s{298.15, 298.15};
  for (int k = 0; k < 5000; ++k) {
    const double q = rng.uniform(0.0, 4000.0);
    const double ti = rng.uniform(275.0, 300.0);
    s = sys.step(s, q, ti, 1.0);
    EXPECT_GT(s.t_battery_k, s.t_coolant_k - 0.5) << "k=" << k;
    EXPECT_GT(s.t_coolant_k, 270.0);
    EXPECT_LT(s.t_battery_k, 400.0);
  }
}

TEST(ThermalProperty, SuperpositionOfLinearDynamics) {
  // The update is affine: step(a) + step(b) - step(0) == step(a + b)
  // for the heat input at fixed state and inlet.
  CoolingSystem sys((CoolingParams()));
  const ThermalState s{306.0, 303.0};
  const double ti = 296.0;
  const ThermalState qa = sys.step(s, 700.0, ti, 1.0);
  const ThermalState qb = sys.step(s, 1900.0, ti, 1.0);
  const ThermalState q0 = sys.step(s, 0.0, ti, 1.0);
  const ThermalState qab = sys.step(s, 2600.0, ti, 1.0);
  EXPECT_NEAR(qa.t_battery_k + qb.t_battery_k - q0.t_battery_k,
              qab.t_battery_k, 1e-9);
  EXPECT_NEAR(qa.t_coolant_k + qb.t_coolant_k - q0.t_coolant_k,
              qab.t_coolant_k, 1e-9);
}

TEST(ThermalProperty, CoolerPowerMonotoneInPullDepth) {
  const CoolingSystem sys((CoolingParams()));
  double prev = -1.0;
  for (double ti = 300.0; ti >= 280.0; ti -= 2.0) {
    const double p = sys.cooler_power(302.0, 298.15, ti);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(ThermalProperty, PassiveInletConvexCombination) {
  // The passive inlet is a fixed blend of outlet and ambient, so it is
  // always between them.
  const CoolingSystem sys((CoolingParams()));
  Rng rng(9);
  for (int k = 0; k < 500; ++k) {
    const double tc = rng.uniform(280.0, 330.0);
    const double amb = rng.uniform(263.0, 318.0);
    const double ti = sys.passive_inlet(tc, amb);
    EXPECT_GE(ti, std::min(tc, amb) - 1e-12);
    EXPECT_LE(ti, std::max(tc, amb) + 1e-12);
  }
}

TEST(ThermalProperty, RefrigerantFloorBindsEventually) {
  const CoolingSystem sys((CoolingParams()));
  const double floor = CoolingParams{}.min_inlet_temp_k;
  EXPECT_DOUBLE_EQ(sys.inlet_for_power(275.0, 274.0, 1e9), floor);
}

TEST(ThermalProperty, EnergyConservationLongHorizon) {
  // Integrate stored + advected energy over a random mission; totals
  // must match the injected heat to numerical precision.
  const CoolingParams p;
  CoolingSystem sys(p);
  Rng rng(10);
  ThermalState s{298.15, 298.15};
  double injected = 0.0;
  double advected = 0.0;
  const double t_in = 294.0;
  for (int k = 0; k < 3000; ++k) {
    const double q = rng.uniform(0.0, 3000.0);
    const ThermalState n = sys.step(s, q, t_in, 1.0);
    injected += q;
    advected += p.flow_heat_capacity_rate *
                (0.5 * (s.t_coolant_k + n.t_coolant_k) - t_in);
    s = n;
  }
  const double stored =
      p.battery_heat_capacity * (s.t_battery_k - 298.15) +
      p.coolant_heat_capacity * (s.t_coolant_k - 298.15);
  EXPECT_NEAR(stored + advected, injected, std::abs(injected) * 1e-10);
}

}  // namespace
}  // namespace otem::thermal
