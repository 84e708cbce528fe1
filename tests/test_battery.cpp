// Tests for the battery electrical model (Eqs. 1-4) and the
// capacity-fade model (Eq. 5).
#include <gtest/gtest.h>

#include <cmath>

#include "battery/aging.h"
#include "battery/battery_model.h"
#include "common/constants.h"
#include "common/error.h"

namespace otem::battery {
namespace {

PackModel default_pack() { return PackModel(PackParams{}); }

constexpr double kRoom = 298.15;

TEST(BatteryCell, VocIncreasesWithSoc) {
  const PackModel pack = default_pack();
  double prev = pack.cell_open_circuit_voltage(5.0);
  for (double soc = 10.0; soc <= 100.0; soc += 5.0) {
    const double v = pack.cell_open_circuit_voltage(soc);
    EXPECT_GT(v, prev) << "at soc " << soc;
    prev = v;
  }
}

TEST(BatteryCell, VocInLiIonRange) {
  const PackModel pack = default_pack();
  EXPECT_NEAR(pack.cell_open_circuit_voltage(100.0), 4.1, 0.15);
  EXPECT_NEAR(pack.cell_open_circuit_voltage(0.0), 3.0, 0.15);
  EXPECT_GT(pack.cell_open_circuit_voltage(50.0), 3.4);
  EXPECT_LT(pack.cell_open_circuit_voltage(50.0), 3.9);
}

TEST(BatteryCell, ResistanceRisesAtLowSoc) {
  const PackModel pack = default_pack();
  EXPECT_GT(pack.cell_internal_resistance(2.0, kRoom),
            pack.cell_internal_resistance(50.0, kRoom) * 1.5);
}

TEST(BatteryCell, HotterCellHasLowerResistance) {
  // Section II-A: elevated temperature speeds up the chemistry.
  const PackModel pack = default_pack();
  const double r_cold = pack.cell_internal_resistance(50.0, 273.15);
  const double r_room = pack.cell_internal_resistance(50.0, kRoom);
  const double r_hot = pack.cell_internal_resistance(50.0, 313.15);
  EXPECT_GT(r_cold, r_room);
  EXPECT_GT(r_room, r_hot);
}

TEST(BatteryCell, KelvinGuardThrows) {
  const PackModel pack = default_pack();
  EXPECT_THROW(pack.cell_internal_resistance(50.0, 25.0), SimError);
}

TEST(BatteryPack, AggregatesSeriesParallel) {
  PackParams p;
  p.series = 10;
  p.parallel = 4;
  const PackModel pack(p);
  EXPECT_NEAR(pack.open_circuit_voltage(80.0),
              10.0 * pack.cell_open_circuit_voltage(80.0), 1e-12);
  EXPECT_NEAR(pack.internal_resistance(80.0, kRoom),
              10.0 / 4.0 * pack.cell_internal_resistance(80.0, kRoom),
              1e-12);
  EXPECT_DOUBLE_EQ(pack.capacity_ah(), 4.0 * p.cell.capacity_ah);
}

TEST(BatteryPack, DefaultPackIsMidSizeEv) {
  const PackModel pack = default_pack();
  // ~345-395 V nominal, ~15-20 kWh — a city-EV pack (see PackParams).
  EXPECT_GT(pack.open_circuit_voltage(50.0), 300.0);
  EXPECT_LT(pack.open_circuit_voltage(100.0), 420.0);
  const double kwh = pack.nominal_energy_j() / 3.6e6;
  EXPECT_GT(kwh, 12.0);
  EXPECT_LT(kwh, 22.0);
}

TEST(BatteryPack, CurrentForPowerRoundtrips) {
  const PackModel pack = default_pack();
  for (double p_w : {1000.0, 10000.0, 40000.0, -15000.0}) {
    const PowerSolve s = pack.current_for_power(70.0, kRoom, p_w);
    ASSERT_TRUE(s.feasible);
    const double v = pack.terminal_voltage(70.0, kRoom, s.current_a);
    EXPECT_NEAR(v * s.current_a, p_w, std::abs(p_w) * 1e-9 + 1e-6);
    EXPECT_NEAR(s.terminal_voltage, v, 1e-9);
  }
}

TEST(BatteryPack, DischargeTakesHighVoltageBranch) {
  // The physical operating point is the smaller-current root.
  const PackModel pack = default_pack();
  const PowerSolve s = pack.current_for_power(70.0, kRoom, 20000.0);
  const double voc = pack.open_circuit_voltage(70.0);
  EXPECT_LT(s.current_a, voc / (2.0 * pack.internal_resistance(70.0, kRoom)));
  EXPECT_GT(s.terminal_voltage, voc / 2.0);
}

TEST(BatteryPack, InfeasiblePowerClampsAtPeak) {
  const PackModel pack = default_pack();
  const double pmax = pack.max_discharge_power(70.0, kRoom);
  const PowerSolve s = pack.current_for_power(70.0, kRoom, pmax * 1.5);
  EXPECT_FALSE(s.feasible);
  const double v = pack.terminal_voltage(70.0, kRoom, s.current_a);
  EXPECT_NEAR(v * s.current_a, pmax, pmax * 1e-9);
}

TEST(BatteryPack, ChargingCurrentIsNegative) {
  const PackModel pack = default_pack();
  const PowerSolve s = pack.current_for_power(70.0, kRoom, -20000.0);
  EXPECT_LT(s.current_a, 0.0);
  EXPECT_GT(s.terminal_voltage, pack.open_circuit_voltage(70.0));
}

TEST(BatteryPack, SocStepMatchesCoulombCounting) {
  const PackModel pack = default_pack();
  // 77.5 Ah pack: 77.5 A for 1 h = 100 % -> for 36 s = 1 %.
  const double i = pack.capacity_ah();
  EXPECT_NEAR(pack.step_soc(50.0, i, 36.0), 49.0, 1e-9);
  EXPECT_NEAR(pack.step_soc(50.0, -i, 36.0), 51.0, 1e-9);
}

TEST(BatteryPack, SocStepClampsAtBounds) {
  const PackModel pack = default_pack();
  EXPECT_DOUBLE_EQ(pack.step_soc(0.5, 1e6, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(pack.step_soc(99.5, -1e6, 10.0), 100.0);
}

TEST(BatteryPack, HeatIsJoulePlusEntropic) {
  const PackModel pack = default_pack();
  const double i = 50.0;
  const double r = pack.internal_resistance(60.0, kRoom);
  const double expected =
      i * i * r + i * kRoom * pack.params().cell.dvoc_dtemp *
                      pack.params().series;
  EXPECT_NEAR(pack.heat_generation(60.0, kRoom, i), expected, 1e-9);
}

TEST(BatteryPack, HeatPositiveForBothDirectionsAtHighCurrent) {
  const PackModel pack = default_pack();
  EXPECT_GT(pack.heat_generation(60.0, kRoom, 100.0), 0.0);
  // Charging: Joule term dominates the (negative) entropic term.
  EXPECT_GT(pack.heat_generation(60.0, kRoom, -100.0), 0.0);
}

TEST(BatteryPack, EnergySplitConsistent) {
  const PackModel pack = default_pack();
  const double i = 60.0;
  const auto split = pack.energy_for_step(70.0, kRoom, i, 2.0);
  const double voc = pack.open_circuit_voltage(70.0);
  // Chemistry energy = terminal + internal loss.
  EXPECT_NEAR(voc * i * 2.0, split.terminal_j + split.loss_j, 1e-6);
  EXPECT_GT(split.loss_j, 0.0);
}

TEST(BatteryPack, OneEvaluationGivesTheSameBitsAsEachQuery) {
  // A plant step and the MPC rollout evaluate Voc and R (and the
  // partials) once per (SoC, T) and read every quantity from there; each
  // value must equal the bits of its own query.
  const PackModel pack = default_pack();
  for (double soc : {-3.0, 0.0, 0.5, 17.0, 55.5, 99.9, 100.0, 104.0}) {
    for (double t : {253.15, 298.15, 301.7, 333.15}) {
      const PackPoint at = pack.evaluate(soc, t);
      EXPECT_EQ(at.voc, pack.open_circuit_voltage(soc));
      EXPECT_EQ(at.r, pack.internal_resistance(soc, t));
      EXPECT_EQ(at.temp_k, t);
      const PackPartials d = pack.partials(soc, t);
      EXPECT_EQ(d.voc, at.voc) << soc << " " << t;
      EXPECT_EQ(d.r, at.r) << soc << " " << t;
    }
  }
  EXPECT_THROW(pack.partials(50.0, 25.0), SimError);
  EXPECT_THROW(pack.evaluate(50.0, 25.0), SimError);
}

TEST(BatteryPack, DerivativesMatchFiniteDifferences) {
  const PackModel pack = default_pack();
  const double h = 1e-5;
  for (double soc : {30.0, 55.0, 80.0}) {
    const double dv_fd = (pack.open_circuit_voltage(soc + h) -
                          pack.open_circuit_voltage(soc - h)) /
                         (2.0 * h);
    EXPECT_NEAR(pack.partials(soc, kRoom).dvoc_dsoc, dv_fd, 1e-6);

    const double dr_fd = (pack.internal_resistance(soc + h, kRoom) -
                          pack.internal_resistance(soc - h, kRoom)) /
                         (2.0 * h);
    EXPECT_NEAR(pack.partials(soc, kRoom).dr_dsoc, dr_fd, 1e-8);

    const double ht = 1e-3;
    const double drt_fd = (pack.internal_resistance(soc, kRoom + ht) -
                           pack.internal_resistance(soc, kRoom - ht)) /
                          (2.0 * ht);
    EXPECT_NEAR(pack.partials(soc, kRoom).dr_dtemp, drt_fd, 1e-9);
  }
}

// --- capacity fade ------------------------------------------------------

TEST(CapacityFade, ZeroCurrentZeroLoss) {
  const CapacityFadeModel fade((CellParams()));
  EXPECT_DOUBLE_EQ(fade.loss_rate_percent_per_s(0.0, kRoom), 0.0);
}

TEST(CapacityFade, HotterAgesFaster) {
  // The Arrhenius factor in Eq. 5 — the mechanism OTEM exploits.
  const CapacityFadeModel fade((CellParams()));
  const double cold = fade.loss_rate_percent_per_s(3.0, 288.15);
  const double room = fade.loss_rate_percent_per_s(3.0, kRoom);
  const double hot = fade.loss_rate_percent_per_s(3.0, 318.15);
  EXPECT_GT(room, cold);
  EXPECT_GT(hot, room);
  // 50 kJ/mol: roughly x3.6 from 25 C to 45 C.
  EXPECT_NEAR(hot / room, 3.55, 0.4);
}

TEST(CapacityFade, SuperlinearInCurrent) {
  const CellParams cell;
  const CapacityFadeModel fade(cell);
  const double one = fade.loss_rate_percent_per_s(cell.capacity_ah, kRoom);
  const double two =
      fade.loss_rate_percent_per_s(2.0 * cell.capacity_ah, kRoom);
  EXPECT_NEAR(two / one, std::pow(2.0, cell.l3), 1e-9);
}

TEST(CapacityFade, PackCurrentDividesAcrossStrings) {
  const CapacityFadeModel fade((CellParams()));
  const double from_pack = fade.loss_rate_from_pack_current(100.0, 25, kRoom);
  const double from_cell = fade.loss_rate_percent_per_s(4.0, kRoom);
  EXPECT_NEAR(from_pack, from_cell, 1e-15);
}

TEST(CapacityFade, MissionsToEndOfLife) {
  const CapacityFadeModel fade((CellParams()));
  EXPECT_NEAR(fade.missions_to_end_of_life(0.002), 10000.0, 1e-9);
  EXPECT_TRUE(std::isinf(fade.missions_to_end_of_life(0.0)));
}

TEST(CapacityFade, LossForStepScalesWithDt) {
  const CapacityFadeModel fade((CellParams()));
  const double one = fade.loss_for_step(3.0, kRoom, 1.0);
  EXPECT_NEAR(fade.loss_for_step(3.0, kRoom, 10.0), 10.0 * one, 1e-15);
}

TEST(Params, ConfigOverridesApply) {
  Config cfg;
  cfg.set_pair("battery.series=50");
  cfg.set_pair("battery.parallel=10");
  cfg.set_pair("battery.cell.capacity_ah=2.9");
  const PackParams p = PackParams::from_config(cfg);
  EXPECT_EQ(p.series, 50);
  EXPECT_EQ(p.parallel, 10);
  EXPECT_DOUBLE_EQ(p.cell.capacity_ah, 2.9);
  EXPECT_DOUBLE_EQ(p.capacity_ah(), 29.0);
}

TEST(Params, InvalidConfigThrows) {
  Config cfg;
  cfg.set_pair("battery.series=0");
  EXPECT_THROW(PackParams::from_config(cfg), SimError);
}

}  // namespace
}  // namespace otem::battery
