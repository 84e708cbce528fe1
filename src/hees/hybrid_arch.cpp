#include "hees/hybrid_arch.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace otem::hees {

HybridParams HybridParams::for_storages(const battery::PackModel& battery,
                                        const ultracap::BankModel& ultracap,
                                        const Config& cfg) {
  HybridParams p;
  p.battery_converter.nominal_voltage = battery.open_circuit_voltage(100.0);
  // The battery's voltage swing is small and its converter is a
  // high-voltage full-power stage: near-flat ~98.5 % efficiency.
  // Droop mostly matters for the UC branch, whose voltage halves over
  // the usable SoE window (Eq. 8).
  p.battery_converter.eta_max = 0.985;
  p.battery_converter.droop = 0.03;
  p.cap_converter.nominal_voltage = ultracap.params().rated_voltage;
  p.cap_converter.droop = 0.25;

  p.battery_converter = ConverterParams::from_config(
      cfg, "hees.bat_conv.", p.battery_converter);
  p.cap_converter =
      ConverterParams::from_config(cfg, "hees.cap_conv.", p.cap_converter);
  p.max_battery_power_w =
      cfg.get_double("hees.max_battery_power", p.max_battery_power_w);
  OTEM_REQUIRE(p.max_battery_power_w > 0.0,
               "battery power restriction must be positive");
  return p;
}

HybridArchitecture::HybridArchitecture(battery::PackModel battery,
                                       ultracap::BankModel ultracap,
                                       HybridParams params)
    : battery_(std::move(battery)),
      ultracap_(std::move(ultracap)),
      fade_(battery_.params().cell),
      params_(params),
      bat_conv_(params.battery_converter),
      cap_conv_(params.cap_converter) {}

double HybridArchitecture::cap_bus_discharge_limit(double soe_percent,
                                                   double dt) const {
  const double storage_limit = ultracap_.max_discharge_power(soe_percent, dt);
  return cap_conv_.bus_power_for_storage(storage_limit,
                                         ultracap_.voltage(soe_percent));
}

double HybridArchitecture::cap_bus_charge_limit(double soe_percent,
                                                double dt) const {
  const double storage_limit = ultracap_.max_charge_power(soe_percent, dt);
  // Charging: storage receives p_bus * eta, so the bus-side limit is
  // storage_limit / eta.
  const double eta = cap_conv_.efficiency(ultracap_.voltage(soe_percent));
  return storage_limit / eta;
}

ArchStep HybridArchitecture::step(double soc_percent, double soe_percent,
                                  double t_battery_k, double p_bat_bus_w,
                                  double p_cap_bus_w, double dt) const {
  OTEM_REQUIRE(dt > 0.0, "step duration must be positive");
  ArchStep out;

  // --- ultracapacitor branch --------------------------------------------
  const double v_cap = ultracap_.voltage(soe_percent);
  double p_cap_bus = p_cap_bus_w;

  // Clamp the request to what the bank can deliver/absorb this step
  // (energy window between 0 and 100 % SoE plus the power rating). The
  // MPC keeps SoE above the 20 % policy floor by constraint; the plant
  // enforces only physics here.
  if (p_cap_bus > 0.0) {
    const double storage_limit =
        std::clamp(ultracap_.stored_energy_j(soe_percent) / dt, 0.0,
                   ultracap_.params().max_power_w);
    const double bus_limit =
        cap_conv_.bus_power_for_storage(storage_limit, v_cap);
    p_cap_bus = std::min(p_cap_bus, bus_limit);
  } else if (p_cap_bus < 0.0) {
    p_cap_bus = -std::min(-p_cap_bus, cap_bus_charge_limit(soe_percent, dt));
  }

  const double p_cap_storage =
      cap_conv_.storage_power_for_bus(p_cap_bus, v_cap);
  out.soe_next = ultracap_.step_soe(soe_percent, p_cap_storage, dt);
  out.i_cap_a = ultracap_.current_for_power(soe_percent, p_cap_storage);
  out.e_cap_j = p_cap_storage * dt;
  out.e_loss_j += (p_cap_storage - p_cap_bus) * dt;

  // Any clamped-away UC power shifts to the battery branch so the bus
  // still receives the commanded total.
  const double p_bat_bus = p_bat_bus_w + (p_cap_bus_w - p_cap_bus);

  // --- battery branch ------------------------------------------------------
  // Pack Voc and R once; the converter, the current solve, the heat and
  // the bookkeeping below all read them.
  const battery::PackPoint at = battery_.evaluate(soc_percent, t_battery_k);
  const double p_bat_storage_requested =
      bat_conv_.storage_power_for_bus(p_bat_bus, at.voc);
  double p_bat_storage = p_bat_storage_requested;
  if (std::abs(p_bat_storage) > params_.max_battery_power_w) {
    // An optimiser legitimately rides the C6 boundary; only flag a
    // reliability violation when the request meaningfully exceeds it.
    if (std::abs(p_bat_storage) > 1.005 * params_.max_battery_power_w)
      out.feasible = false;
    p_bat_storage = std::copysign(params_.max_battery_power_w, p_bat_storage);
  }

  const battery::PowerSolve solve =
      battery::PackModel::current_for_power(at, p_bat_storage);
  out.feasible = out.feasible && solve.feasible;
  const double i_b = solve.current_a;

  // Discharge shortfall, reflected to the bus: what the load asked of
  // the battery branch minus what it actually gets.
  if (p_bat_storage_requested > 0.0) {
    const double delivered_terminal = solve.terminal_voltage * i_b;
    const double delivered_bus =
        bat_conv_.bus_power_for_storage(std::max(delivered_terminal, 0.0),
                                        at.voc);
    out.unmet_bus_w = std::max(0.0, p_bat_bus - delivered_bus);
  }

  out.i_bat_a = i_b;
  out.soc_next = battery_.step_soc(soc_percent, i_b, dt);
  out.q_bat_w = battery_.heat_generation(at, i_b);
  out.e_bat_j = at.voc * i_b * dt;
  out.e_loss_j += i_b * i_b * at.r * dt;
  out.e_loss_j += (p_bat_storage - p_bat_bus) * dt;
  out.qloss_percent = fade_.loss_for_step(
      std::max(i_b, 0.0) / battery_.params().parallel, t_battery_k, dt);
  return out;
}

}  // namespace otem::hees
