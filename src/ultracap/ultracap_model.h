// ultracap_model.h — ultracapacitor bank model (paper Eqs. 6-9).
//
// The bank is characterised by its rated capacitance C_cap [F] — the
// quantity the paper sweeps in Table I — and rated voltage V_r. Energy
// capacity E_cap = 1/2 C V_r^2 (Eq. 6); terminal voltage follows
// V = V_r sqrt(SoE/100) (Eq. 8). Following the paper, the internal
// resistance (~2.2 mOhm) and self-heating are neglected, so power maps
// to SoE directly: dSoE/dt = -100 P / E_cap (Eqs. 7+9 combined, since
// V I = P at the terminal).
//
// Stateless like battery::PackModel; SoE is carried by the caller.
// Sign convention: positive power/current = discharge.
#pragma once

#include "common/config.h"

namespace otem::ultracap {

struct BankParams {
  /// Rated capacitance [F] — the paper's sweep variable (5,000-25,000 F).
  double capacitance_f = 25000.0;

  /// Rated (maximum) terminal voltage [V]. The bank is built from
  /// Maxwell BC-class 2.7 V cells [19]; the module-level equivalent
  /// here is chosen so a 25,000 F bank stores ~2 kWh — the energy scale
  /// at which the dual architecture's thermal venting is sustainable
  /// over a US06 run, as the paper's Figs. 1/7 SoE swings imply.
  double rated_voltage = 32.0;

  /// Minimum usable SoE [percent] — paper constraint C5.
  double min_soe_percent = 20.0;

  /// Power rating of the bank/converter path [W] — paper constraint C7.
  double max_power_w = 90000.0;

  /// E_cap [J], Eq. (6).
  double energy_capacity_j() const {
    return 0.5 * capacitance_f * rated_voltage * rated_voltage;
  }

  /// Load overrides with prefix "ultracap." from cfg.
  static BankParams from_config(const Config& cfg);
};

class BankModel {
 public:
  explicit BankModel(BankParams params);

  const BankParams& params() const { return params_; }

  double energy_capacity_j() const { return params_.energy_capacity_j(); }

  /// Terminal voltage [V] at SoE [percent], Eq. (8).
  double voltage(double soe_percent) const;

  /// SoE as a function of terminal voltage (inverse of Eq. 8) [percent].
  double soe_for_voltage(double v) const;

  /// Stored energy [J] at SoE.
  double stored_energy_j(double soe_percent) const;

  /// Terminal current [A] delivering power p at SoE (I = P / V).
  double current_for_power(double soe_percent, double power_w) const;

  /// dSoE/dt [percent/s] at terminal power p [W] (discharge positive).
  double soe_rate(double power_w) const;

  /// New SoE after drawing power p for dt seconds; clamps to [0, 100].
  double step_soe(double soe_percent, double power_w, double dt) const;

  /// Largest discharge power sustainable for dt without crossing the
  /// minimum-SoE floor (>= 0).
  double max_discharge_power(double soe_percent, double dt) const;

  /// Largest charge power acceptable for dt without exceeding 100 % SoE
  /// (>= 0; caller negates for the sign convention).
  double max_charge_power(double soe_percent, double dt) const;

 private:
  BankParams params_;
};

}  // namespace otem::ultracap
