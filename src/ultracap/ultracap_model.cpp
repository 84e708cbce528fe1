#include "ultracap/ultracap_model.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace otem::ultracap {

BankParams BankParams::from_config(const Config& cfg) {
  BankParams p;
  p.capacitance_f = cfg.get_double("ultracap.capacitance_f", p.capacitance_f);
  p.rated_voltage = cfg.get_double("ultracap.rated_voltage", p.rated_voltage);
  p.min_soe_percent =
      cfg.get_double("ultracap.min_soe_percent", p.min_soe_percent);
  p.max_power_w = cfg.get_double("ultracap.max_power_w", p.max_power_w);
  OTEM_REQUIRE(p.capacitance_f > 0.0, "ultracap capacitance must be positive");
  OTEM_REQUIRE(p.rated_voltage > 0.0, "ultracap voltage must be positive");
  OTEM_REQUIRE(p.min_soe_percent >= 0.0 && p.min_soe_percent < 100.0,
               "ultracap minimum SoE must be in [0, 100)");
  return p;
}

BankModel::BankModel(BankParams params) : params_(params) {
  OTEM_REQUIRE(params_.capacitance_f > 0.0,
               "ultracap capacitance must be positive");
}

double BankModel::voltage(double soe_percent) const {
  const double s = std::clamp(soe_percent, 0.0, 100.0);
  return params_.rated_voltage * std::sqrt(s / 100.0);
}

double BankModel::soe_for_voltage(double v) const {
  OTEM_REQUIRE(v >= 0.0, "ultracap voltage must be non-negative");
  const double ratio = v / params_.rated_voltage;
  return std::clamp(100.0 * ratio * ratio, 0.0, 100.0);
}

double BankModel::stored_energy_j(double soe_percent) const {
  return energy_capacity_j() * std::clamp(soe_percent, 0.0, 100.0) / 100.0;
}

double BankModel::current_for_power(double soe_percent,
                                    double power_w) const {
  const double v = voltage(soe_percent);
  OTEM_REQUIRE(v > 1e-9 || power_w == 0.0,
               "ultracap fully depleted — cannot deliver power");
  return v > 1e-9 ? power_w / v : 0.0;
}

double BankModel::soe_rate(double power_w) const {
  // Eqs. (7)+(9): V I = P, so dSoE/dt = -100 P / E_cap.
  return -100.0 * power_w / energy_capacity_j();
}

double BankModel::step_soe(double soe_percent, double power_w,
                           double dt) const {
  return std::clamp(soe_percent + soe_rate(power_w) * dt, 0.0, 100.0);
}

double BankModel::max_discharge_power(double soe_percent, double dt) const {
  OTEM_REQUIRE(dt > 0.0, "dt must be positive");
  const double headroom_j =
      (std::clamp(soe_percent, 0.0, 100.0) - params_.min_soe_percent) /
      100.0 * energy_capacity_j();
  return std::clamp(headroom_j / dt, 0.0, params_.max_power_w);
}

double BankModel::max_charge_power(double soe_percent, double dt) const {
  OTEM_REQUIRE(dt > 0.0, "dt must be positive");
  const double headroom_j =
      (100.0 - std::clamp(soe_percent, 0.0, 100.0)) / 100.0 *
      energy_capacity_j();
  return std::clamp(headroom_j / dt, 0.0, params_.max_power_w);
}

}  // namespace otem::ultracap
