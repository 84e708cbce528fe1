#include "core/cooling_methodology.h"

#include <algorithm>

#include "core/methodology_registry.h"
#include "hees/dual_arch.h"

namespace otem::core {

CoolingPolicyParams CoolingPolicyParams::from_config(const Config& cfg) {
  CoolingPolicyParams p;
  p.inlet_target_k = cfg.get_double("cooling.inlet_target_k", p.inlet_target_k);
  p.engage_above_k = cfg.get_double("cooling.engage_above_k", p.engage_above_k);
  return p;
}

CoolingMethodology::CoolingMethodology(const SystemSpec& spec,
                                       CoolingPolicyParams policy)
    : battery_(spec.make_battery()),
      fade_(spec.battery.cell),
      cooling_(spec.make_cooling()),
      policy_(policy),
      ambient_k_(spec.ambient_k),
      pump_w_(spec.thermal.pump_power_w) {}

void CoolingMethodology::reset(const PlantState&, const TimeSeries&) {}

StepRecord CoolingMethodology::step(PlantState& state, double p_e_w,
                                    size_t /*k*/, double dt) {
  StepRecord rec;
  rec.p_load_w = p_e_w;

  // Fixed-inlet policy: whenever the pack is warm, spend whatever it
  // takes (up to the C3 cap) to hold the inlet at the target.
  const bool engaged = state.t_battery_k > policy_.engage_above_k;
  double p_cool = 0.0;
  if (engaged) {
    p_cool = std::min(
        cooling_.cooler_power(state.t_coolant_k, ambient_k_,
                              policy_.inlet_target_k),
        cooling_.params().max_cooler_power_w);
  }
  const double p_pump = engaged ? pump_w_ : 0.0;

  // The cooler and pump draw from the same battery as the traction load.
  // No ultracapacitor in this architecture; SoE untouched.
  const double p_total = p_e_w + p_cool + p_pump;
  const hees::ArchStep bat =
      hees::battery_only_step(battery_, fade_, state.soc_percent,
                              state.soe_percent, state.t_battery_k, p_total,
                              dt);

  const double t_inlet =
      cooling_.inlet_for_power(state.t_coolant_k, ambient_k_, p_cool);
  const thermal::ThermalState th = cooling_.step(
      {state.t_battery_k, state.t_coolant_k}, bat.q_bat_w, t_inlet, dt);

  state.t_battery_k = th.t_battery_k;
  state.t_coolant_k = th.t_coolant_k;
  state.soc_percent = bat.soc_next;

  rec.p_cooler_w = p_cool;
  rec.p_pump_w = p_pump;
  rec.t_inlet_k = t_inlet;
  rec.i_bat_a = bat.i_bat_a;
  rec.q_bat_w = bat.q_bat_w;
  rec.e_bat_j = bat.e_bat_j;
  rec.e_cooling_j = (p_cool + p_pump) * dt;
  rec.e_loss_j = bat.e_loss_j;
  rec.qloss_percent = bat.qloss_percent;
  rec.feasible = bat.feasible;
  rec.state_after = state;
  return rec;
}

namespace detail {
void register_cooling_methodology(MethodologyRegistry& registry) {
  registry.add("active_cooling",
               [](const SystemSpec& spec, const Config& cfg) {
                 return std::make_unique<CoolingMethodology>(
                     spec, CoolingPolicyParams::from_config(cfg));
               });
}
}  // namespace detail

}  // namespace otem::core
