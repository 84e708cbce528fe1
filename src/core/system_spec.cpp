#include "core/system_spec.h"

#include "common/error.h"
#include "core/plant_state.h"

namespace otem::core {

SystemSpec SystemSpec::from_config(const Config& cfg) {
  SystemSpec s;
  s.battery = battery::PackParams::from_config(cfg);
  s.ultracap = ultracap::BankParams::from_config(cfg);

  // The thermal lump's battery-side heat capacity is the pack's, unless
  // explicitly overridden.
  thermal::CoolingParams th;
  th.battery_heat_capacity = s.battery.heat_capacity_j_k();
  Config th_cfg = cfg;
  if (!cfg.has("thermal.battery_heat_capacity"))
    th_cfg.set("thermal.battery_heat_capacity", th.battery_heat_capacity);
  s.thermal = thermal::CoolingParams::from_config(th_cfg);

  s.hybrid = hees::HybridParams::for_storages(
      battery::PackModel(s.battery), ultracap::BankModel(s.ultracap), cfg);
  s.vehicle = vehicle::VehicleParams::from_config(cfg);
  s.ambient_k = cfg.get_double("ambient_k", s.ambient_k);
  require_temperature_k("ambient_k", s.ambient_k);
  s.dt = cfg.get_double("dt", s.dt);
  OTEM_REQUIRE(s.dt > 0.0, "plant step must be positive");
  return s;
}

SystemSpec SystemSpec::with_ultracap_size(double capacitance_f) const {
  OTEM_REQUIRE(capacitance_f > 0.0, "ultracap size must be positive");
  SystemSpec s = *this;
  s.ultracap.capacitance_f = capacitance_f;
  // Converter nominal voltage tracks the bank's rated voltage, which is
  // size-independent here, so hybrid params stay valid.
  return s;
}

battery::PackModel SystemSpec::make_battery() const {
  return battery::PackModel(battery);
}

ultracap::BankModel SystemSpec::make_ultracap() const {
  return ultracap::BankModel(ultracap);
}

thermal::CoolingSystem SystemSpec::make_cooling() const {
  return thermal::CoolingSystem(thermal);
}

vehicle::Powertrain SystemSpec::make_powertrain() const {
  return vehicle::Powertrain(vehicle);
}

hees::ParallelArchitecture SystemSpec::make_parallel_arch() const {
  return hees::ParallelArchitecture(make_battery(), make_ultracap());
}

hees::DualArchitecture SystemSpec::make_dual_arch() const {
  return hees::DualArchitecture(make_battery(), make_ultracap());
}

hees::HybridArchitecture SystemSpec::make_hybrid_arch() const {
  return hees::HybridArchitecture(make_battery(), make_ultracap(), hybrid);
}

}  // namespace otem::core
