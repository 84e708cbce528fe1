// plant_state.h — the physical state every methodology evolves.
//
// Matches the paper's MPC state vector x = [T_b, T_c, SoE, SoC]
// (Algorithm 1, line 5); initial conditions x^0 = [298, 298, 100, 100].
#pragma once

#include <string>

namespace otem::core {

struct PlantState {
  double t_battery_k = 298.0;   ///< T_b
  double t_coolant_k = 298.0;   ///< T_c
  double soe_percent = 100.0;   ///< ultracapacitor State-of-Energy
  double soc_percent = 100.0;   ///< battery State-of-Charge
};

/// The plant's domain, checked wherever a temperature or a charge
/// enters from outside (spec and scenario config, campaign grids):
/// temperatures within −40…+85 °C, SoE and SoC within 0…100 %.
inline constexpr double kMinTemperatureK = 233.15;
inline constexpr double kMaxTemperatureK = 358.15;

/// Throws otem::SimError naming `key` unless `kelvin` lies within
/// [kMinTemperatureK, kMaxTemperatureK] (NaN never does).
void require_temperature_k(const std::string& key, double kelvin);

/// Throws otem::SimError naming `key` unless `percent` lies within
/// [0, 100] (NaN never does).
void require_percent(const std::string& key, double percent);

}  // namespace otem::core
