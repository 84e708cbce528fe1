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
//
// The SoC fits take their exp as an argument (the *_fit forms), so a
// caller that needs a fit and its slope at one SoC evaluates each exp
// once; the one-argument forms evaluate it themselves.
#pragma once

#include <algorithm>
#include <cmath>

#include "battery/params.h"
#include "common/constants.h"
#include "common/fast_math.h"

namespace otem::battery::cellmath {

/// The fits' SoC argument: percent clamped to [0, 100], as a fraction.
inline double soc_fraction(double soc_percent) {
  return std::clamp(soc_percent, 0.0, 100.0) / 100.0;
}

/// Open-circuit voltage of one cell [V] (paper Eq. 2 fit) at SoC
/// fraction s, given ev = fastmath::exp(c.v2 * s).
inline double voc_fit(const CellParams& c, double s, double ev) {
  const double s2 = s * s;
  return c.v1 * ev + c.v3 * s2 * s2 + c.v4 * s2 * s + c.v5 * s2 + c.v6 * s +
         c.v7;
}

/// Open-circuit voltage of one cell [V].
inline double voc(const CellParams& c, double soc_percent) {
  const double s = soc_fraction(soc_percent);
  return voc_fit(c, s, fastmath::exp(c.v2 * s));
}

/// Internal resistance of one cell at the 25 C reference [ohm], given
/// er = fastmath::exp(c.r2 * s).
inline double r25_fit(const CellParams& c, double er) {
  return c.r1 * er + c.r3;
}

/// Internal resistance of one cell at the 25 C reference [ohm].
inline double r25(const CellParams& c, double soc_percent) {
  return r25_fit(c, fastmath::exp(c.r2 * soc_fraction(soc_percent)));
}

/// Arrhenius resistance factor vs the reference temperature
/// (dimensionless; cell resistance = r25 * r_arrhenius).
inline double r_arrhenius(const CellParams& c, double temp_k) {
  return fastmath::exp(c.resistance_activation_j_mol /
                       constants::kGasConstant *
                       (1.0 / temp_k - 1.0 / c.ref_temp_k));
}

/// Entropic heat of a pack of `series` cells carrying current i [W]:
/// paper Eq. (4)'s I T dVoc/dT summed over the series cells.
inline double entropic_heat(const CellParams& c, double series, double i,
                            double temp_k) {
  return i * temp_k * c.dvoc_dtemp * series;
}

/// Pack heat generation [W], paper Eq. (4): the Joule loss i^2 r at
/// pack resistance r plus the entropic heat.
inline double heat(const CellParams& c, double series, double r, double i,
                   double temp_k) {
  const double joule = i * i * r;
  return joule + entropic_heat(c, series, i, temp_k);
}

/// Arrhenius capacity-fade factor (paper Eq. 5's exp(-l2 / RT)).
inline double fade_arrhenius(const CellParams& c, double temp_k) {
  return fastmath::exp(-c.l2 / (constants::kGasConstant * temp_k));
}

/// Eq. 5's C-rate^l3. pow(x, 1) == x exactly (IEEE 754), so the
/// l3 == 1 shortcut is bit-identical and skips the libm call at the
/// default fade exponent.
inline double fade_power(const CellParams& c, double c_rate) {
  return c.l3 == 1.0 ? c_rate : std::pow(c_rate, c.l3);
}

}  // namespace otem::battery::cellmath
