// battery_model.h — Li-ion battery pack electrical model (paper Eqs. 1-4).
//
// The model is STATELESS: every query takes the battery state (SoC in
// percent, temperature in kelvin) explicitly. This lets the plant
// simulator and the MPC predictor share one implementation — the MPC
// rolls the same equations forward over hypothetical trajectories
// without touching plant state.
//
// Sign convention: current and power are positive on DISCHARGE (energy
// leaving the pack) and negative on charge/regen.
#pragma once

#include "battery/params.h"

namespace otem::battery {

/// Pack open-circuit voltage and internal resistance evaluated once at
/// one (SoC, T). A plant step evaluates its point once and passes it to
/// the current solve and the heat formula, which would otherwise each
/// re-evaluate the same exp-bound fits.
struct PackPoint {
  double voc = 0.0;     ///< pack open-circuit voltage [V]
  double r = 0.0;       ///< pack internal resistance [ohm]
  double temp_k = 0.0;  ///< pack temperature [K] (the entropic heat term)
};

/// PackPoint's values with their partial derivatives (for the MPC
/// adjoint and linearization), every exp evaluated once.
struct PackPartials {
  double voc = 0.0;        ///< pack open-circuit voltage [V]
  double dvoc_dsoc = 0.0;  ///< d(pack Voc)/d(SoC percent) [V/%]
  double r = 0.0;          ///< pack internal resistance [ohm]
  double dr_dsoc = 0.0;    ///< d(pack R)/d(SoC percent) [ohm/%]
  double dr_dtemp = 0.0;   ///< d(pack R)/d(T) [ohm/K]
};

/// Result of resolving a terminal power request into a pack current.
struct PowerSolve {
  double current_a = 0.0;        ///< pack current [A], discharge positive
  double terminal_voltage = 0.0; ///< pack terminal voltage under load [V]
  bool feasible = true;          ///< false when |P| exceeds deliverable max
};

class PackModel {
 public:
  explicit PackModel(PackParams params);

  const PackParams& params() const { return params_; }

  // --- per-cell quantities ----------------------------------------------
  /// Cell open-circuit voltage [V], Eq. (2); soc in percent.
  double cell_open_circuit_voltage(double soc_percent) const;

  /// Cell internal resistance [ohm], Eq. (3) with Arrhenius temperature
  /// sensitivity (hotter cell -> lower resistance).
  double cell_internal_resistance(double soc_percent, double temp_k) const;

  // --- pack-level quantities ----------------------------------------------
  /// Pack open-circuit voltage [V] (series * cell Voc).
  double open_circuit_voltage(double soc_percent) const;

  /// Pack internal resistance [ohm] (series/parallel aggregation).
  double internal_resistance(double soc_percent, double temp_k) const;

  /// Pack Voc and R at (soc, T): three exps, once.
  PackPoint evaluate(double soc_percent, double temp_k) const;

  // --- analytic partial derivatives (for the MPC adjoint) -----------------
  /// Pack Voc and R with their SoC and temperature partials at (soc, T),
  /// each of the three exps evaluated once.
  PackPartials partials(double soc_percent, double temp_k) const;

  /// Pack capacity [Ah].
  double capacity_ah() const { return params_.capacity_ah(); }

  /// Approximate stored energy at 100 % SoC [J] (capacity * nominal Voc
  /// integral approximated at the mid-SoC voltage).
  double nominal_energy_j() const;

  /// Maximum instantaneous discharge power [W] at (soc, T): Voc^2 / (4 R).
  double max_discharge_power(double soc_percent, double temp_k) const;

  /// Terminal voltage under current i [V]: V = Voc - R i.
  double terminal_voltage(double soc_percent, double temp_k, double i) const;

  /// Solve pack current for a requested terminal power [W] at an
  /// evaluated point (P = (Voc - R i) i, smaller root for discharge).
  /// For charging (P < 0) solves the matching negative-current branch.
  /// When the request exceeds max deliverable power the result is
  /// clamped to the maximum-power current and `feasible` is false.
  static PowerSolve current_for_power(const PackPoint& at, double power_w);
  PowerSolve current_for_power(double soc_percent, double temp_k,
                               double power_w) const {
    return current_for_power(evaluate(soc_percent, temp_k), power_w);
  }

  /// Total pack heat generation [W] at an evaluated point, Eq. (4):
  /// Joule loss plus entropic term, summed over cells.
  double heat_generation(const PackPoint& at, double i) const;
  double heat_generation(double soc_percent, double temp_k, double i) const {
    return heat_generation(evaluate(soc_percent, temp_k), i);
  }

  /// New SoC [percent] after drawing pack current i for dt seconds,
  /// Eq. (1); clamps to [0, 100].
  double step_soc(double soc_percent, double i, double dt) const;

  /// SoC delta [percent] corresponding to pack current i over dt (no
  /// clamping) — used by the MPC predictor where clamping is handled by
  /// constraints instead.
  double soc_rate(double i) const;

  /// Electrical energy delivered (or absorbed, negative) at the terminal
  /// over dt [J], plus the resistive loss inside the pack [J].
  struct EnergySplit {
    double terminal_j = 0.0;
    double loss_j = 0.0;
  };
  EnergySplit energy_for_step(double soc_percent, double temp_k, double i,
                              double dt) const;

 private:
  PackParams params_;
};

}  // namespace otem::battery
