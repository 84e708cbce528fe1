// Tests for the HEES layer: DC/DC converter, parallel, dual and hybrid
// architectures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bit_hash.h"
#include "common/error.h"
#include "common/rng.h"
#include "hees/converter.h"
#include "hees/dual_arch.h"
#include "hees/hybrid_arch.h"
#include "hees/parallel_arch.h"

namespace otem::hees {
namespace {

battery::PackModel default_battery() {
  return battery::PackModel(battery::PackParams{});
}

ultracap::BankModel default_cap() {
  return ultracap::BankModel(ultracap::BankParams{});
}

constexpr double kRoom = 298.15;

// --- converter ----------------------------------------------------------

TEST(Converter, PeakEfficiencyAtNominalVoltage) {
  ConverterParams p;
  p.nominal_voltage = 16.0;
  const Converter c(p);
  EXPECT_DOUBLE_EQ(c.efficiency(16.0), p.eta_max);
  EXPECT_LT(c.efficiency(8.0), p.eta_max);
  EXPECT_LT(c.efficiency(24.0), p.eta_max);
}

TEST(Converter, EfficiencyClampedAtFloor) {
  ConverterParams p;
  p.nominal_voltage = 16.0;
  p.droop = 2.0;  // aggressive droop to hit the floor
  const Converter c(p);
  EXPECT_DOUBLE_EQ(c.efficiency(0.0), p.eta_min);
  EXPECT_DOUBLE_EQ(c.efficiency_dv(0.0), 0.0);
}

TEST(Converter, EfficiencyDerivativeMatchesFiniteDifference) {
  ConverterParams p;
  p.nominal_voltage = 16.0;
  const Converter c(p);
  for (double v : {4.0, 10.0, 14.0, 15.9}) {
    const double h = 1e-6;
    const double fd = (c.efficiency(v + h) - c.efficiency(v - h)) / (2 * h);
    EXPECT_NEAR(c.efficiency_dv(v), fd, 1e-6) << "at v=" << v;
  }
}

TEST(Converter, DischargeDrawsMoreFromStorage) {
  ConverterParams p;
  p.nominal_voltage = 16.0;
  const Converter c(p);
  const double p_bus = 10000.0;
  EXPECT_GT(c.storage_power_for_bus(p_bus, 12.0), p_bus);
}

TEST(Converter, ChargeDeliversLessToStorage) {
  ConverterParams p;
  p.nominal_voltage = 16.0;
  const Converter c(p);
  const double p_bus = -10000.0;
  const double p_storage = c.storage_power_for_bus(p_bus, 12.0);
  EXPECT_LT(p_storage, 0.0);
  EXPECT_GT(p_storage, p_bus);  // smaller magnitude reaches the storage
}

TEST(Converter, BusStorageRoundtrip) {
  ConverterParams p;
  p.nominal_voltage = 16.0;
  const Converter c(p);
  for (double p_bus : {-5000.0, 0.0, 7000.0}) {
    const double ps = c.storage_power_for_bus(p_bus, 13.0);
    EXPECT_NEAR(c.bus_power_for_storage(ps, 13.0), p_bus, 1e-9);
  }
}

TEST(Converter, PartialsMatchFiniteDifferences) {
  ConverterParams p;
  p.nominal_voltage = 16.0;
  const Converter c(p);
  for (double p_bus : {-8000.0, 6000.0}) {
    for (double v : {9.0, 13.0, 15.0}) {
      double dp = 0, dv = 0;
      c.storage_power_partials(p_bus, v, dp, dv);
      const double h = 1e-4;
      const double fd_p = (c.storage_power_for_bus(p_bus + h, v) -
                           c.storage_power_for_bus(p_bus - h, v)) /
                          (2 * h);
      const double fd_v = (c.storage_power_for_bus(p_bus, v + h) -
                           c.storage_power_for_bus(p_bus, v - h)) /
                          (2 * h);
      EXPECT_NEAR(dp, fd_p, 1e-6);
      EXPECT_NEAR(dv, fd_v, std::abs(fd_v) * 1e-4 + 1e-6);
    }
  }
}

TEST(Converter, InvalidParamsThrow) {
  Config cfg;
  cfg.set_pair("x.eta_max=1.5");
  EXPECT_THROW(ConverterParams::from_config(cfg, "x.", ConverterParams{}),
               SimError);
}

// --- parallel architecture -----------------------------------------------

TEST(ParallelArch, ReflectedCapacitancePreservesEnergy) {
  const ParallelArchitecture arch(default_battery(), default_cap());
  const double c_eff = arch.effective_capacitance();
  const double v_ref = arch.reference_voltage();
  EXPECT_NEAR(0.5 * c_eff * v_ref * v_ref,
              default_cap().energy_capacity_j(), 1e-6);
}

TEST(ParallelArch, IdleLoadRelaxesTowardVoltageEquilibrium) {
  const ParallelArchitecture arch(default_battery(), default_cap());
  double soc = 80.0, soe = 30.0;
  // With no load, the battery charges the bank until V_c ~ Voc(soc).
  // The relaxation constant is (R_b + R_c) C_eff — give it several.
  for (int k = 0; k < 3000; ++k) {
    const ArchStep s = arch.step(soc, soe, kRoom, 0.0, 1.0);
    soc = s.soc_next;
    soe = s.soe_next;
  }
  const double vb = default_battery().open_circuit_voltage(soc);
  EXPECT_NEAR(arch.cap_bus_voltage(soe), vb, 2.0);
}

TEST(ParallelArch, LoadSplitsBetweenBatteryAndCap) {
  const ParallelArchitecture arch(default_battery(), default_cap());
  // From equilibrium, a load pulse initially comes mostly from the bank.
  const ArchStep s = arch.step(100.0, 100.0, kRoom, 40000.0, 1.0);
  EXPECT_GT(s.i_cap_a, 0.0);
  EXPECT_LT(s.soe_next, 100.0);
  EXPECT_TRUE(s.feasible);
}

TEST(ParallelArch, EnergyBookkeepingConsistent) {
  const ParallelArchitecture arch(default_battery(), default_cap());
  const double p = 20000.0, dt = 5.0;
  const ArchStep s = arch.step(90.0, 90.0, kRoom, p, dt);
  // Chemistry energy + cap energy = load energy + battery internal loss.
  EXPECT_NEAR(s.e_bat_j + s.e_cap_j, p * dt + s.e_loss_j,
              std::abs(p * dt) * 1e-6);
}

TEST(ParallelArch, RegenChargesBothStorages) {
  const ParallelArchitecture arch(default_battery(), default_cap());
  // Start at the voltage-equilibrium rest point so no internal
  // battery->bank transfer is in flight.
  const double soc = 70.0;
  const double soe = arch.equilibrium_soe(soc);
  const ArchStep s = arch.step(soc, soe, kRoom, -25000.0, 5.0);
  EXPECT_GT(s.soe_next, soe);  // bank absorbs
  // Battery charges (or stays neutral); it never discharges into regen.
  EXPECT_LT(s.i_bat_a, 1.0);
}

TEST(ParallelArch, EquilibriumSoeIsStable) {
  const ParallelArchitecture arch(default_battery(), default_cap());
  const double soc = 85.0;
  const double soe = arch.equilibrium_soe(soc);
  const ArchStep s = arch.step(soc, soe, kRoom, 0.0, 10.0);
  EXPECT_NEAR(s.soe_next, soe, 0.2);
  EXPECT_NEAR(std::abs(s.i_bat_a), 0.0, 1.0);
}

TEST(ParallelArch, SmallerBankStressesBatteryMore) {
  // The Table I "parallel" column mechanism: less filtering, more
  // battery current for the same pulse.
  ultracap::BankParams small;
  small.capacitance_f = 5000.0;
  ultracap::BankParams large;
  large.capacitance_f = 25000.0;
  const ParallelArchitecture arch_small(default_battery(),
                                        ultracap::BankModel(small));
  const ParallelArchitecture arch_large(default_battery(),
                                        ultracap::BankModel(large));
  // Pulse train: on-off load; measure battery loss.
  double loss_small = 0.0, loss_large = 0.0;
  double soc_s = 95.0, soe_s = 95.0, soc_l = 95.0, soe_l = 95.0;
  for (int k = 0; k < 120; ++k) {
    const double p = (k % 10 < 5) ? 45000.0 : 0.0;
    const ArchStep a = arch_small.step(soc_s, soe_s, kRoom, p, 1.0);
    soc_s = a.soc_next;
    soe_s = a.soe_next;
    loss_small += a.e_loss_j;
    const ArchStep b = arch_large.step(soc_l, soe_l, kRoom, p, 1.0);
    soc_l = b.soc_next;
    soe_l = b.soe_next;
    loss_large += b.e_loss_j;
  }
  EXPECT_GT(loss_small, loss_large);
}

// --- dual architecture ----------------------------------------------------

TEST(DualArch, BatteryOnlyLeavesCapUntouched) {
  const DualArchitecture arch(default_battery(), default_cap());
  const ArchStep s =
      arch.step(80.0, 60.0, kRoom, 20000.0, DualMode::kBatteryOnly, 1.0);
  EXPECT_DOUBLE_EQ(s.soe_next, 60.0);
  EXPECT_GT(s.i_bat_a, 0.0);
  EXPECT_DOUBLE_EQ(s.i_cap_a, 0.0);
}

TEST(DualArch, UltracapOnlyRestsBattery) {
  const DualArchitecture arch(default_battery(), default_cap());
  const ArchStep s =
      arch.step(80.0, 90.0, kRoom, 20000.0, DualMode::kUltracapOnly, 1.0);
  EXPECT_DOUBLE_EQ(s.soc_next, 80.0);
  EXPECT_DOUBLE_EQ(s.q_bat_w, 0.0);
  EXPECT_LT(s.soe_next, 90.0);
  EXPECT_TRUE(s.feasible);
}

TEST(DualArch, DepletedCapFallsBackToBattery) {
  const DualArchitecture arch(default_battery(), default_cap());
  // Bank at floor: UC-only mode must pull the load from the battery
  // and flag infeasibility (Fig. 1's failure mode).
  const ArchStep s = arch.step(
      80.0, arch.ultracap().params().min_soe_percent, kRoom, 30000.0,
      DualMode::kUltracapOnly, 1.0);
  EXPECT_FALSE(s.feasible);
  EXPECT_GT(s.i_bat_a, 0.0);
  EXPECT_LT(s.soc_next, 80.0);
}

TEST(DualArch, ParallelModeMatchesParallelArchitecture) {
  const DualArchitecture dual(default_battery(), default_cap());
  const ParallelArchitecture par(default_battery(), default_cap());
  const ArchStep a =
      dual.step(75.0, 80.0, kRoom, 15000.0, DualMode::kParallel, 1.0);
  const ArchStep b = par.step(75.0, 80.0, kRoom, 15000.0, 1.0);
  EXPECT_NEAR(a.i_bat_a, b.i_bat_a, 1e-12);
  EXPECT_NEAR(a.soe_next, b.soe_next, 1e-12);
}

TEST(DualArch, RegenIntoCapOnly) {
  const DualArchitecture arch(default_battery(), default_cap());
  const ArchStep s =
      arch.step(80.0, 50.0, kRoom, -20000.0, DualMode::kUltracapOnly, 1.0);
  EXPECT_GT(s.soe_next, 50.0);
  EXPECT_DOUBLE_EQ(s.soc_next, 80.0);
}

TEST(DualArch, ModeToString) {
  EXPECT_STREQ(to_string(DualMode::kBatteryOnly), "battery_only");
  EXPECT_STREQ(to_string(DualMode::kUltracapOnly), "ultracap_only");
  EXPECT_STREQ(to_string(DualMode::kParallel), "parallel");
}

// --- hybrid architecture -----------------------------------------------------

HybridArchitecture default_hybrid() {
  return HybridArchitecture(
      default_battery(), default_cap(),
      HybridParams::for_storages(default_battery(), default_cap()));
}

TEST(HybridArch, SplitsPowerAsCommanded) {
  const HybridArchitecture arch = default_hybrid();
  const ArchStep s = arch.step(80.0, 80.0, kRoom, 15000.0, 10000.0, 1.0);
  EXPECT_TRUE(s.feasible);
  EXPECT_GT(s.i_bat_a, 0.0);
  EXPECT_GT(s.i_cap_a, 0.0);
  EXPECT_LT(s.soe_next, 80.0);
  EXPECT_LT(s.soc_next, 80.0);
}

TEST(HybridArch, ConversionLossesAccounted) {
  const HybridArchitecture arch = default_hybrid();
  const double dt = 1.0;
  const ArchStep s = arch.step(80.0, 80.0, kRoom, 15000.0, 10000.0, dt);
  // Storage-side energy exceeds bus-side energy by the losses.
  EXPECT_NEAR(s.e_bat_j + s.e_cap_j, 25000.0 * dt + s.e_loss_j,
              25000.0 * dt * 1e-6);
  EXPECT_GT(s.e_loss_j, 0.0);
}

TEST(HybridArch, PreChargeMovesEnergyBatteryToCap) {
  const HybridArchitecture arch = default_hybrid();
  // Zero net load; charge the cap at 10 kW from the battery.
  const ArchStep s = arch.step(80.0, 50.0, kRoom, 10000.0, -10000.0, 1.0);
  EXPECT_GT(s.soe_next, 50.0);
  EXPECT_LT(s.soc_next, 80.0);
  EXPECT_GT(s.i_bat_a, 0.0);
  // Double conversion: energy received by the cap is strictly less
  // than energy drawn from the battery chemistry.
  EXPECT_LT(-s.e_cap_j, s.e_bat_j);
}

TEST(HybridArch, CapLimitShiftsLoadToBattery) {
  const HybridArchitecture arch = default_hybrid();
  // Bank essentially empty (0.02 % SoE ~ a few kJ): commanded 50 kW
  // from the cap cannot happen within the step.
  const ArchStep s = arch.step(80.0, 0.02, kRoom, 0.0, 50000.0, 1.0);
  // Battery covers the shifted request.
  EXPECT_GT(s.i_bat_a, 0.0);
  EXPECT_GE(s.soe_next, 0.0);
}

TEST(HybridArch, FullCapRejectsCharge) {
  const HybridArchitecture arch = default_hybrid();
  const ArchStep s = arch.step(80.0, 100.0, kRoom, 0.0, -20000.0, 1.0);
  EXPECT_DOUBLE_EQ(s.soe_next, 100.0);
}

TEST(HybridArch, BatteryPowerCapFlagsInfeasible) {
  battery::PackParams bp;  // default pack
  ultracap::BankParams cp;
  HybridParams hp = HybridParams::for_storages(
      battery::PackModel(bp), ultracap::BankModel(cp));
  hp.max_battery_power_w = 10000.0;
  const HybridArchitecture arch(battery::PackModel(bp),
                                ultracap::BankModel(cp), hp);
  const ArchStep s = arch.step(80.0, 50.0, kRoom, 50000.0, 0.0, 1.0);
  EXPECT_FALSE(s.feasible);
}

TEST(HybridArch, BusLimitsConsistent) {
  const HybridArchitecture arch = default_hybrid();
  EXPECT_GT(arch.cap_bus_discharge_limit(80.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(
      arch.cap_bus_discharge_limit(arch.ultracap().params().min_soe_percent,
                                   1.0),
      0.0);
  EXPECT_DOUBLE_EQ(arch.cap_bus_charge_limit(100.0, 1.0), 0.0);
  EXPECT_GT(arch.cap_bus_charge_limit(40.0, 1.0), 0.0);
}

// --- bit pins --------------------------------------------------------------

/// Every ArchStep field, bit for bit.
void hash_step(test::BitHash& h, const ArchStep& s) {
  for (const double v : {s.i_bat_a, s.i_cap_a, s.soc_next, s.soe_next,
                         s.q_bat_w, s.qloss_percent, s.e_bat_j, s.e_cap_j,
                         s.e_loss_j, s.unmet_bus_w})
    h.add(v);
  h.add_flag(s.feasible);
}

/// A seeded sweep of plant states and requests: charges across and at
/// the ends of their ranges, cold to hot packs, regen through requests
/// beyond the pack's peak power, two step sizes.
struct SweepPoint {
  double soc, soe, tb, p, p2, dt;
};
std::vector<SweepPoint> arch_sweep() {
  Rng rng(4099);
  std::vector<SweepPoint> points;
  for (int i = 0; i < 3000; ++i) {
    SweepPoint q;
    q.soc = i % 97 == 0 ? 0.0 : i % 89 == 0 ? 100.0 : rng.uniform(0.0, 100.0);
    q.soe = i % 83 == 0 ? 0.0 : i % 79 == 0 ? 100.0 : rng.uniform(0.0, 100.0);
    q.tb = rng.uniform(258.15, 338.15);
    q.p = rng.uniform(-150000.0, 450000.0);
    q.p2 = rng.uniform(-90000.0, 120000.0);
    q.dt = i % 5 == 0 ? 0.5 : 1.0;
    points.push_back(q);
  }
  return points;
}

// Recorded on x86-64 GCC builds (Release and the sanitizer
// RelWithDebInfo builds agree). A plant refactor that claims to keep
// every bit must leave these unchanged.
TEST(ArchBitPin, DualStepInEveryModeOverASeededSweep) {
  DualArchitecture arch(default_battery(), default_cap());
  arch.set_recharge_power_w(12000.0);
  test::BitHash h;
  for (const SweepPoint& q : arch_sweep())
    for (const DualMode mode : {DualMode::kBatteryOnly, DualMode::kUltracapOnly,
                                DualMode::kParallel, DualMode::kRecharge})
      hash_step(h, arch.step(q.soc, q.soe, q.tb, q.p, mode, q.dt));
  EXPECT_EQ(h.value(), 0xabadb461e616a55full) << std::hex << "0x" << h.value();
}

TEST(ArchBitPin, HybridStepOverASeededSweep) {
  const HybridArchitecture arch = default_hybrid();
  test::BitHash h;
  // A fully drained bank is a precondition failure for the hybrid step,
  // so the sweep's empty-bank points sit just above empty.
  for (const SweepPoint& q : arch_sweep())
    hash_step(h, arch.step(q.soc, std::max(q.soe, 0.02), q.tb, q.p - q.p2,
                           q.p2, q.dt));
  EXPECT_EQ(h.value(), 0x29a82a03e2a822f5ull) << std::hex << "0x" << h.value();
}

}  // namespace
}  // namespace otem::hees
