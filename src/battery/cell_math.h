// cell_math.h — inline per-cell electrical/ageing kernels shared by the
// model entry points (PackModel, CapacityFadeModel) and the
// permanently-parallel substep (hees/parallel_arch.cpp).
//
// Every caller evaluates the same expressions in the same association
// order, so a model query and a plant step agree to the bit. That is
// why these live in one header instead of being re-derived at each
// call site, and why they use fastmath::exp (see common/fast_math.h):
// the plant's reactive reports are compared bit for bit against
// recorded references.
#pragma once

#include <algorithm>

#include "battery/params.h"
#include "common/constants.h"
#include "common/fast_math.h"

namespace otem::battery::cellmath {

/// Open-circuit voltage of one cell [V] (paper Eq. 2 fit).
inline double voc(const CellParams& c, double soc_percent) {
  const double s = std::clamp(soc_percent, 0.0, 100.0) / 100.0;
  const double s2 = s * s;
  return c.v1 * fastmath::exp(c.v2 * s) + c.v3 * s2 * s2 + c.v4 * s2 * s +
         c.v5 * s2 + c.v6 * s + c.v7;
}

/// Internal resistance of one cell at the 25 C reference [ohm].
inline double r25(const CellParams& c, double soc_percent) {
  const double s = std::clamp(soc_percent, 0.0, 100.0) / 100.0;
  return c.r1 * fastmath::exp(c.r2 * s) + c.r3;
}

/// Arrhenius resistance factor vs the reference temperature
/// (dimensionless; cell resistance = r25 * r_arrhenius).
inline double r_arrhenius(const CellParams& c, double temp_k) {
  return fastmath::exp(c.resistance_activation_j_mol /
                       constants::kGasConstant *
                       (1.0 / temp_k - 1.0 / c.ref_temp_k));
}

/// Arrhenius capacity-fade factor (paper Eq. 5's exp(-l2 / RT)).
inline double fade_arrhenius(const CellParams& c, double temp_k) {
  return fastmath::exp(-c.l2 / (constants::kGasConstant * temp_k));
}

}  // namespace otem::battery::cellmath
