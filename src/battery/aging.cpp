#include "battery/aging.h"

#include <limits>

#include "battery/cell_math.h"
#include "common/error.h"

namespace otem::battery {

CapacityFadeModel::CapacityFadeModel(CellParams cell) : cell_(cell) {
  OTEM_REQUIRE(cell_.capacity_ah > 0.0, "fade model needs positive capacity");
}

double CapacityFadeModel::loss_rate_percent_per_s(
    double cell_discharge_current_a, double temp_k) const {
  OTEM_REQUIRE(temp_k > 100.0, "temperature must be in kelvin");
  if (cell_discharge_current_a <= 0.0) return 0.0;
  const double c_rate = cell_discharge_current_a / cell_.capacity_ah;
  const double arrhenius = cellmath::fade_arrhenius(cell_, temp_k);
  return cell_.l1 * arrhenius * cellmath::fade_power(cell_, c_rate);
}

double CapacityFadeModel::loss_rate_from_pack_current(double pack_current_a,
                                                      int parallel,
                                                      double temp_k) const {
  OTEM_REQUIRE(parallel > 0, "parallel string count must be positive");
  return loss_rate_percent_per_s(std::max(pack_current_a, 0.0) / parallel,
                                 temp_k);
}

double CapacityFadeModel::loss_for_step(double cell_discharge_current_a,
                                        double temp_k, double dt) const {
  return loss_rate_percent_per_s(cell_discharge_current_a, temp_k) * dt;
}

double CapacityFadeModel::missions_to_end_of_life(
    double loss_per_mission_percent) const {
  if (loss_per_mission_percent <= 0.0)
    return std::numeric_limits<double>::infinity();
  return cell_.end_of_life_loss_percent / loss_per_mission_percent;
}

}  // namespace otem::battery
