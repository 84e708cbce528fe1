// Tests for the active battery cooling system model (Eqs. 14-17).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "thermal/cooling_system.h"

namespace otem::thermal {
namespace {

CoolingSystem default_system() { return CoolingSystem(CoolingParams{}); }

constexpr double kAmbient = 298.15;

TEST(Thermal, EquilibriumSatisfiesSteadyState) {
  const CoolingSystem sys = default_system();
  const double q = 2000.0;
  const double ti = 295.0;
  const ThermalState eq = sys.equilibrium(q, ti);
  double dtb = 1.0, dtc = 1.0;
  sys.derivatives(eq, q, ti, dtb, dtc);
  EXPECT_NEAR(dtb, 0.0, 1e-10);
  EXPECT_NEAR(dtc, 0.0, 1e-10);
  EXPECT_GT(eq.t_battery_k, eq.t_coolant_k);  // heat flows battery->coolant
  EXPECT_GT(eq.t_coolant_k, ti);              // and coolant->inlet flow
}

TEST(Thermal, TrapezoidalStepConvergesToEquilibrium) {
  CoolingSystem sys = default_system();
  const double q = 1500.0;
  const double ti = 290.0;
  ThermalState s{320.0, 315.0};
  for (int k = 0; k < 20000; ++k) s = sys.step(s, q, ti, 1.0);
  const ThermalState eq = sys.equilibrium(q, ti);
  EXPECT_NEAR(s.t_battery_k, eq.t_battery_k, 1e-6);
  EXPECT_NEAR(s.t_coolant_k, eq.t_coolant_k, 1e-6);
}

TEST(Thermal, TrapezoidalMatchesRk4SmallSteps) {
  CoolingSystem sys = default_system();
  ThermalState trap{305.0, 300.0};
  ThermalState rk = trap;
  const double q = 3000.0;
  const double ti = 285.0;
  for (int k = 0; k < 600; ++k) {
    trap = sys.step(trap, q, ti, 1.0);
    rk = sys.step_rk4(rk, q, ti, 1.0);
  }
  EXPECT_NEAR(trap.t_battery_k, rk.t_battery_k, 0.05);
  EXPECT_NEAR(trap.t_coolant_k, rk.t_coolant_k, 0.05);
}

TEST(Thermal, StepMatrixReproducesStep) {
  CoolingSystem sys = default_system();
  const StepMatrix m = sys.step_matrix(1.0);
  const ThermalState s{310.0, 304.0};
  const double q = 2500.0, ti = 292.0;
  const ThermalState next = sys.step(s, q, ti, 1.0);
  EXPECT_NEAR(next.t_battery_k,
              m.m00 * s.t_battery_k + m.m01 * s.t_coolant_k + m.bi0 * ti +
                  m.bq0 * q,
              1e-12);
  EXPECT_NEAR(next.t_coolant_k,
              m.m10 * s.t_battery_k + m.m11 * s.t_coolant_k + m.bi1 * ti +
                  m.bq1 * q,
              1e-12);
}

TEST(Thermal, StepRebuildsItsMatrixExactlyWhenDtChanges) {
  // step() keeps the matrix of the previous dt; a changed dt must
  // rebuild it, so every step equals the step matrix of its own dt
  // applied by hand, bit for bit.
  CoolingSystem sys = default_system();
  const CoolingSystem reference = default_system();
  ThermalState s{306.0, 301.0};
  for (const double dt : {1.0, 1.0, 0.5, 0.5, 1.0, 2.0, 1e-3, 1.0}) {
    double tb = s.t_battery_k, tc = s.t_coolant_k;
    apply_step(reference.step_matrix(dt), tb, tc, 2200.0, 291.0);
    s = sys.step(s, 2200.0, 291.0, dt);
    EXPECT_EQ(s.t_battery_k, tb) << dt;
    EXPECT_EQ(s.t_coolant_k, tc) << dt;
  }
  // A matrix in hand never lets an invalid dt through.
  EXPECT_THROW(sys.step(s, 0.0, 291.0, 0.0), SimError);
  EXPECT_THROW(sys.step(s, 0.0, 291.0, std::nan("")), SimError);
}

TEST(Thermal, HeatRaisesBatteryTemperature) {
  CoolingSystem sys = default_system();
  const ThermalState s{298.0, 298.0};
  const ThermalState hot = sys.step(s, 5000.0, 298.0, 10.0);
  EXPECT_GT(hot.t_battery_k, 298.0);
  const ThermalState idle = sys.step(s, 0.0, 298.0, 10.0);
  EXPECT_NEAR(idle.t_battery_k, 298.0, 1e-9);
}

TEST(Thermal, ColdInletCoolsBattery) {
  CoolingSystem sys = default_system();
  ThermalState s{310.0, 308.0};
  const ThermalState cooled = sys.step(s, 0.0, 280.0, 30.0);
  const ThermalState idle = sys.step(s, 0.0, 308.0, 30.0);
  EXPECT_LT(cooled.t_battery_k, idle.t_battery_k);
}

TEST(Thermal, EnergyBalanceOverStep) {
  // Battery + coolant lump energy change equals heat in minus heat
  // advected out by the flow (midpoint convention of Eq. 17).
  const CoolingParams p;
  CoolingSystem sys(p);
  const ThermalState s{305.0, 300.0};
  const double q = 2000.0, ti = 290.0, dt = 1.0;
  const ThermalState n = sys.step(s, q, ti, dt);
  const double stored = p.battery_heat_capacity * (n.t_battery_k - s.t_battery_k) +
                        p.coolant_heat_capacity * (n.t_coolant_k - s.t_coolant_k);
  const double tc_mid = 0.5 * (s.t_coolant_k + n.t_coolant_k);
  const double advected = p.flow_heat_capacity_rate * (tc_mid - ti) * dt;
  EXPECT_NEAR(stored, q * dt - advected, 1e-6);
}

TEST(Thermal, PassiveInletBetweenCoolantAndAmbient) {
  const CoolingSystem sys = default_system();
  const double ti = sys.passive_inlet(320.0, kAmbient);
  EXPECT_LT(ti, 320.0);
  EXPECT_GT(ti, kAmbient);
  // At ambient coolant, passive does nothing.
  EXPECT_NEAR(sys.passive_inlet(kAmbient, kAmbient), kAmbient, 1e-12);
}

TEST(Thermal, CoolerPowerInverseRoundtrip) {
  const CoolingSystem sys = default_system();
  for (double pc : {0.0, 500.0, 2000.0, 5000.0}) {
    const double ti = sys.inlet_for_power(315.0, kAmbient, pc);
    if (ti > sys.params().min_inlet_temp_k + 1e-9) {
      EXPECT_NEAR(sys.cooler_power(315.0, kAmbient, ti), pc, 1e-9);
    }
  }
}

TEST(Thermal, CoolerPowerZeroAbovePassiveInlet) {
  const CoolingSystem sys = default_system();
  const double passive = sys.passive_inlet(315.0, kAmbient);
  EXPECT_DOUBLE_EQ(sys.cooler_power(315.0, kAmbient, passive + 1.0), 0.0);
}

TEST(Thermal, MinFeasibleInletRespectsRefrigerantFloor) {
  CoolingParams p;
  p.max_cooler_power_w = 1e9;  // unconstrained by power
  const CoolingSystem sys(p);
  EXPECT_DOUBLE_EQ(sys.min_feasible_inlet(310.0, kAmbient),
                   p.min_inlet_temp_k);
}

TEST(Thermal, PulldownPerWattMatchesParams) {
  const CoolingParams p;
  const CoolingSystem sys(p);
  EXPECT_DOUBLE_EQ(sys.pulldown_per_watt(),
                   p.cooler_efficiency / p.flow_heat_capacity_rate);
}

TEST(Thermal, InvalidParamsThrow) {
  Config cfg;
  cfg.set_pair("thermal.cooler_efficiency=0");
  EXPECT_THROW(CoolingParams::from_config(cfg), SimError);
  Config cfg2;
  cfg2.set_pair("thermal.passive_effectiveness=1.5");
  EXPECT_THROW(CoolingParams::from_config(cfg2), SimError);
}

TEST(Thermal, StepMatrixStableForLargeSteps) {
  // Crank-Nicolson is A-stable: even dt = 100 s must not blow up.
  CoolingSystem sys = default_system();
  ThermalState s{400.0, 300.0};
  for (int k = 0; k < 100; ++k) s = sys.step(s, 0.0, 298.0, 100.0);
  EXPECT_NEAR(s.t_battery_k, 298.0, 0.5);
}

class ThermalHeatSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThermalHeatSweep, EquilibriumTemperatureScalesWithHeat) {
  const CoolingParams p;
  const CoolingSystem sys(p);
  const double q = GetParam();
  const ThermalState eq = sys.equilibrium(q, 298.0);
  EXPECT_NEAR(eq.t_battery_k - 298.0,
              q / p.flow_heat_capacity_rate + q / p.heat_transfer_w_k,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(HeatLevels, ThermalHeatSweep,
                         ::testing::Values(0.0, 500.0, 1000.0, 2000.0,
                                           4000.0, 8000.0));

}  // namespace
}  // namespace otem::thermal
