#include "battery/rc_model.h"

#include <cmath>

#include "battery/cell_math.h"
#include "common/error.h"

namespace otem::battery {

RcParams RcParams::from_config(const Config& cfg) {
  RcParams p;
  p.r1_cell = cfg.get_double("battery.rc.r1", p.r1_cell);
  p.c1_cell = cfg.get_double("battery.rc.c1", p.c1_cell);
  OTEM_REQUIRE(p.r1_cell > 0.0 && p.c1_cell > 0.0,
               "RC branch parameters must be positive");
  return p;
}

TransientPackModel::TransientPackModel(PackParams pack, RcParams rc)
    : base_(std::move(pack)), rc_(rc) {
  OTEM_REQUIRE(rc_.r1_cell > 0.0 && rc_.c1_cell > 0.0,
               "RC branch parameters must be positive");
}

double TransientPackModel::r1_pack() const {
  return rc_.r1_cell * base_.params().series / base_.params().parallel;
}

double TransientPackModel::c1_pack() const {
  return rc_.c1_cell * base_.params().parallel / base_.params().series;
}

double TransientPackModel::terminal_voltage(double soc_percent,
                                            double temp_k, double i,
                                            double v1) const {
  return base_.terminal_voltage(soc_percent, temp_k, i) - v1;
}

double TransientPackModel::step_v1(double v1, double i, double dt) const {
  OTEM_REQUIRE(dt >= 0.0, "dt must be non-negative");
  const double tau = r1_pack() * c1_pack();  // == rc_.tau_s()
  const double decay = std::exp(-dt / tau);
  return v1 * decay + r1_pack() * i * (1.0 - decay);
}

PowerSolve TransientPackModel::current_for_power(double soc_percent,
                                                 double temp_k, double v1,
                                                 double power_w) const {
  // Terminal power P = (Voc - v1 - R0 i) i: the base solver's quadratic
  // with an effective open-circuit voltage Voc' = Voc - v1.
  PackPoint at = base_.evaluate(soc_percent, temp_k);
  at.voc -= v1;
  return PackModel::current_for_power(at, power_w);
}

double TransientPackModel::heat_generation(double soc_percent, double temp_k,
                                           double i, double v1) const {
  const double r0 = base_.internal_resistance(soc_percent, temp_k);
  const double ohmic = i * i * r0;
  const double polarisation = v1 * v1 / r1_pack();
  const double entropic = cellmath::entropic_heat(
      base_.params().cell, base_.params().series, i, temp_k);
  return ohmic + polarisation + entropic;
}

}  // namespace otem::battery
