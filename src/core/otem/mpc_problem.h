// mpc_problem.h — the OTEM optimisation problem (paper Section III-B).
//
// One receding-horizon instance of Eqs. (17)-(19): given the current
// plant state x = [T_b, T_c, SoE, SoC] and the predicted EV power
// requests P_hat_e over the control window of N steps, choose per step
//   * the ultracapacitor bus power  u_cap  (discharge +, pre-charge -)
//   * the cooler electric power    u_pc   (>= 0)
// minimising   F = sum_k  w1 (P_c dt) + w2 Qloss + w3 (dE_bat + dE_cap)
// subject to the discrete system dynamics (single shooting: states are
// rolled out through the exact plant update equations) and constraints
// C1-C7.
//
// Transcription notes:
//  * The paper's controller input is the inlet temperature T_i; we
//    control the equivalent cooler power u_pc = P_c directly, which
//    turns C2 (T_i <= T_o) and C3 (P_c <= max) into simple box bounds.
//    T_i = passive_inlet(T_c) - u_pc * eta_c / Cdot is recovered
//    analytically (thermal/cooling_system.h).
//  * The battery branch balances the bus: P_bat,bus = P_e + pump + u_pc
//    - u_cap, so C6 (battery power) becomes a state-dependent
//    inequality handled, like C1/C4/C5, by the augmented-Lagrangian
//    outer loop.
//  * Decision variables are normalised to [0, 1] so the inner Adam
//    steps are well-scaled across the (W-scale) power inputs.
//
// Gradients are computed by a hand-written reverse-mode (adjoint) sweep
// through the rollout — one backward pass yields d(cost + w . c)/dz for
// the augmented-Lagrangian inner solver. Validated against central
// finite differences in tests/test_mpc_problem.cpp.
#pragma once

#include <vector>

#include "core/plant_state.h"
#include "core/system_spec.h"
#include "optim/problem.h"

namespace otem::core {

struct MpcWeights {
  // Calibrated so the closed-loop reproduction hits the paper's
  // headline trade-off (Fig. 9: ~12 % average power below the pure
  // active-cooling baseline while Fig. 8/Table I capacity loss stays
  // the lowest of all methodologies). bench/ablation_weights sweeps w2.
  double w1 = 1.0;     ///< cooler energy weight [per J]
  double w2 = 1.5e9;   ///< capacity-loss weight [per % Qloss]
  double w3 = 1.0;     ///< HEES energy weight [per J]
};

struct MpcOptions {
  size_t horizon = 30;  ///< N, control window in steps
  double dt = 1.0;      ///< step duration [s]
  MpcWeights weights;
  double soc_min_percent = 20.0;  ///< C4 lower bound
  double soe_min_percent = 20.0;  ///< C5 lower bound
  /// Terminal value of stored UC energy [cost per J missing from a
  /// full bank at the end of the window]. Energy missing from the bank
  /// must eventually be refilled from the battery through two
  /// conversions, so its cost-to-go is roughly the round-trip loss
  /// fraction (~0.15 J/J). This is what makes the controller keep the
  /// bank charged ahead of demand — the TEB preparation of Fig. 7.
  /// 0 reproduces Eq. 19 literally (ablation).
  double terminal_soe_weight = 0.15;

  /// Terminal aging cost-to-go (standard MPC practice for a truncated
  /// horizon): the window's last battery temperature is charged with
  /// the capacity loss a further `terminal_aging_tail_s` seconds of
  /// driving at `terminal_c_rate` would cause at that temperature,
  ///   w2 * l1 * exp(-l2 / (R T_b,N)) * c_ref^{l3} * tail.
  /// Without it the controller never pre-cools: the Arrhenius benefit
  /// of a cooler pack accrues mostly AFTER the 30 s window, so a
  /// literal Eq. 19 spends cooling energy only when C1 binds. This is
  /// the closed-form stand-in for the longer windows the paper's
  /// MATLAB implementation could afford offline. Set to 0 to disable
  /// (ablation `bench/ablation_horizon`).
  double terminal_aging_tail_s = 900.0;

  /// Reference C-rate of the tail. 0 (default) = ADAPTIVE: estimated
  /// from the mean positive power of the installed forecast window, so
  /// gentle routes do not get pre-cooled for stress that never comes.
  /// > 0 pins it (ablation).
  double terminal_c_rate = 0.0;
  /// Smoothing half-width for |I| in the ageing law [A] (keeps the
  /// gradient defined through zero current).
  double current_smoothing_a = 1.0;

  /// Read overrides with prefix "otem." from cfg.
  static MpcOptions from_config(const Config& cfg);
};

/// Number of inequality constraints per horizon step (C1 x2, C4 x2,
/// C5 x2, C6 x2).
inline constexpr size_t kConstraintsPerStep = 8;

class MpcProblem final : public optim::ConstrainedObjective {
 public:
  MpcProblem(const SystemSpec& spec, MpcOptions options);

  const MpcOptions& options() const { return options_; }

  /// Install the window to optimise: initial state and N predicted
  /// power requests (shorter vectors are padded with their last value;
  /// empty pads with zero).
  void set_window(const PlantState& x0, const std::vector<double>& p_e);

  // --- optim::ConstrainedObjective -------------------------------------
  size_t dim() const override { return 2 * options_.horizon; }
  optim::Box bounds() const override;
  size_t num_constraints() const override {
    return kConstraintsPerStep * options_.horizon;
  }
  double evaluate(const optim::Vector& z, optim::Vector& c_out) override;
  void gradient(const optim::Vector& z, const optim::Vector& w,
                optim::Vector& grad_out) override;

  // --- decoding / introspection ---------------------------------------
  /// Physical controls encoded by z at step k.
  struct Controls {
    double p_cap_bus_w = 0.0;
    double p_cooler_w = 0.0;
  };
  Controls decode(const optim::Vector& z, size_t k) const;

  /// Encode physical controls into the normalised decision space.
  void encode(size_t k, const Controls& controls, optim::Vector& z) const;

  /// Predicted state trajectory of the most recent evaluate() call
  /// (length horizon + 1, element 0 = x0).
  const std::vector<PlantState>& predicted_states() const { return states_; }

  /// First-order model of one step of the rollout around the point of
  /// the most recent evaluate(): with state x = [T_b, T_c, SoC, SoE]
  /// and PHYSICAL controls u = [p_cap_bus_w, p_cooler_w],
  ///   x_{k+1} ~= x*_{k+1} + A (x_k - x*_k) + B (u_k - u*_k).
  /// Consumed by the LTV-QP controller (core/otem/ltv_controller.h).
  struct StepJacobian {
    double a[4][4] = {};
    double b[4][2] = {};
    /// d(battery storage-side power)/d(controls) and its value — the
    /// linearised C6 row.
    double p_bs = 0.0;
    double dpbs_du[2] = {};
    double dpbs_dx[4] = {};
  };

  /// Per-step Jacobians at the most recent evaluate() point, written
  /// into a member buffer that every call reuses (no allocation once
  /// sized); the reference stays valid until the next call.
  const std::vector<StepJacobian>& linearize();

  /// Cost of the most recent evaluate() split by term (w1/w2/w3 parts).
  struct CostBreakdown {
    double cooler = 0.0;
    double aging = 0.0;
    double energy = 0.0;
    double terminal = 0.0;
    double total() const { return cooler + aging + energy + terminal; }
  };
  const CostBreakdown& last_cost() const { return cost_; }

 private:
  /// Per-step forward intermediates retained for the adjoint sweep.
  struct StepCache {
    // Inputs at step start.
    double tb = 0, tc = 0, soc = 0, soe = 0;
    double u_cap = 0, u_pc = 0;
    // Ultracap branch.
    double eta_c = 0, deta_c_dv = 0, dv_dsoe = 0;
    double p_cs = 0, dpcs_du = 0, dpcs_deta = 0;
    // Battery branch.
    double v_b = 0, dvb_dsoc = 0;
    double deta_b_dv = 0;
    double p_bs = 0, dpbs_dpbb = 0, dpbs_deta = 0;
    double r = 0, dr_dsoc = 0, dr_dtb = 0;
    double i = 0, di_dvb = 0, di_dr = 0, di_dpbs = 0;
    double qloss = 0, dqloss_dtb = 0, dqloss_di = 0;
    bool ti_clamped = false;
  };

  battery::PackModel battery_;
  ultracap::BankModel ultracap_;
  hees::Converter bat_conv_;
  hees::Converter cap_conv_;
  thermal::CoolingSystem cooling_;
  thermal::StepMatrix tm_;      ///< trapezoidal thermal coefficients @ dt
  MpcOptions options_;

  double ambient_k_;
  double pump_w_;
  double max_battery_power_w_;  ///< C6 bound (storage side)
  double cap_power_scale_;      ///< |u_cap| <= this (C7)
  double pc_max_;               ///< C3 bound
  double beta_soc_;             ///< SoC per (A s): 100 dt / (3600 Ah)
  double beta_soe_;             ///< SoE per (W s): 100 dt / E_cap
  double entropic_k_;           ///< series * dVoc/dT

  PlantState x0_;
  std::vector<double> p_e_;     ///< padded to horizon
  double tail_c_rate_ = 0.0;    ///< resolved terminal C-rate (see options)

  std::vector<StepCache> cache_;
  std::vector<PlantState> states_;
  std::vector<StepJacobian> jac_;  ///< linearize() output buffer
  CostBreakdown cost_;
};

}  // namespace otem::core
