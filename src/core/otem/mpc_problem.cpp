#include "core/otem/mpc_problem.h"

#include <algorithm>
#include <cmath>

#include "common/constants.h"
#include "common/error.h"

namespace otem::core {

namespace {
// Constraint scale factors. These set the "exchange rate" between a
// constraint violation and the J-scale running cost inside the
// augmented Lagrangian: a violation of one scale unit (0.02 K of
// battery temperature, 0.2 % of SoC/SoE, 2 kW of battery power) counts
// as 1.0. Temperature needs the aggressive scale because the control
// authority of the cooler over T_b within one window is small (~mK per
// step) while cooling costs kilojoules — without it the penalty could
// never outbid the w1 energy term.
constexpr double kTempScale = 0.02;
constexpr double kSocScale = 0.2;
constexpr double kPowerScale = 2000.0;
// Floor on the discriminant of the battery power->current solve,
// relative to Voc^2; C6 penalties keep iterates away from this region.
constexpr double kDiscFloorFrac = 1e-4;
}  // namespace

MpcOptions MpcOptions::from_config(const Config& cfg) {
  MpcOptions o;
  o.horizon = static_cast<size_t>(
      cfg.get_long("otem.horizon", static_cast<long>(o.horizon)));
  o.dt = cfg.get_double("otem.dt", o.dt);
  o.weights.w1 = cfg.get_double("otem.w1", o.weights.w1);
  o.weights.w2 = cfg.get_double("otem.w2", o.weights.w2);
  o.weights.w3 = cfg.get_double("otem.w3", o.weights.w3);
  o.soc_min_percent = cfg.get_double("otem.soc_min", o.soc_min_percent);
  o.soe_min_percent = cfg.get_double("otem.soe_min", o.soe_min_percent);
  o.terminal_soe_weight =
      cfg.get_double("otem.terminal_soe_weight", o.terminal_soe_weight);
  o.terminal_aging_tail_s =
      cfg.get_double("otem.terminal_aging_tail_s", o.terminal_aging_tail_s);
  o.terminal_c_rate =
      cfg.get_double("otem.terminal_c_rate", o.terminal_c_rate);
  OTEM_REQUIRE(o.horizon >= 1, "MPC horizon must be at least 1");
  OTEM_REQUIRE(o.dt > 0.0, "MPC step must be positive");
  return o;
}

MpcProblem::MpcProblem(const SystemSpec& spec, MpcOptions options)
    : battery_(spec.make_battery()),
      ultracap_(spec.make_ultracap()),
      bat_conv_(spec.hybrid.battery_converter),
      cap_conv_(spec.hybrid.cap_converter),
      cooling_(spec.make_cooling()),
      tm_(cooling_.step_matrix(options.dt)),
      options_(options),
      ambient_k_(spec.ambient_k),
      pump_w_(spec.thermal.pump_power_w),
      max_battery_power_w_(spec.hybrid.max_battery_power_w),
      cap_power_scale_(spec.ultracap.max_power_w),
      pc_max_(spec.thermal.max_cooler_power_w),
      beta_soc_(100.0 * options.dt /
                (3600.0 * battery_.capacity_ah())),
      beta_soe_(100.0 * options.dt / ultracap_.energy_capacity_j()),
      entropic_k_(spec.battery.series * spec.battery.cell.dvoc_dtemp) {
  cache_.resize(options_.horizon);
  states_.resize(options_.horizon + 1);
  p_e_.assign(options_.horizon, 0.0);
}

void MpcProblem::set_window(const PlantState& x0,
                            const std::vector<double>& p_e) {
  x0_ = x0;
  for (size_t k = 0; k < options_.horizon; ++k) {
    if (k < p_e.size())
      p_e_[k] = p_e[k];
    else
      p_e_[k] = p_e.empty() ? 0.0 : p_e.back();
  }

  if (options_.terminal_c_rate > 0.0) {
    tail_c_rate_ = options_.terminal_c_rate;
  } else {
    // Adaptive tail stress: mean positive (discharge) power of the
    // window, converted to a cell C-rate at the current pack voltage.
    double p_sum = 0.0;
    for (double p : p_e_) p_sum += std::max(p, 0.0);
    const double p_mean = p_sum / static_cast<double>(options_.horizon);
    const double i_est =
        p_mean / std::max(battery_.open_circuit_voltage(x0.soc_percent),
                          1.0);
    tail_c_rate_ = i_est / (battery_.params().parallel *
                            battery_.params().cell.capacity_ah);
  }
}

optim::Box MpcProblem::bounds() const {
  optim::Box box;
  box.lo.assign(dim(), 0.0);
  box.hi.assign(dim(), 1.0);
  return box;
}

MpcProblem::Controls MpcProblem::decode(const optim::Vector& z,
                                        size_t k) const {
  OTEM_REQUIRE(k < options_.horizon, "decode index out of range");
  Controls c;
  c.p_cap_bus_w = (2.0 * z[2 * k] - 1.0) * cap_power_scale_;
  c.p_cooler_w = z[2 * k + 1] * pc_max_;
  return c;
}

void MpcProblem::encode(size_t k, const Controls& controls,
                        optim::Vector& z) const {
  OTEM_REQUIRE(z.size() == dim(), "encode target size mismatch");
  OTEM_REQUIRE(k < options_.horizon, "encode index out of range");
  z[2 * k] = std::clamp(
      (controls.p_cap_bus_w / cap_power_scale_ + 1.0) / 2.0, 0.0, 1.0);
  z[2 * k + 1] = std::clamp(controls.p_cooler_w / pc_max_, 0.0, 1.0);
}

double MpcProblem::evaluate(const optim::Vector& z, optim::Vector& c_out) {
  const size_t n = options_.horizon;
  OTEM_REQUIRE(z.size() == 2 * n, "MPC decision vector size mismatch");
  c_out.assign(num_constraints(), 0.0);

  const double dt = options_.dt;
  const MpcWeights& w = options_.weights;
  const battery::CellParams& cell = battery_.params().cell;
  const double cell_cap = cell.capacity_ah * battery_.params().parallel;
  const double delta2 = options_.current_smoothing_a *
                        options_.current_smoothing_a;
  const double eps_passive = cooling_.params().passive_effectiveness;
  const double gamma = cooling_.pulldown_per_watt();
  const double t_min_inlet = cooling_.params().min_inlet_temp_k;

  cost_ = CostBreakdown{};
  PlantState x = x0_;
  states_[0] = x;

  for (size_t k = 0; k < n; ++k) {
    StepCache& s = cache_[k];
    s.tb = x.t_battery_k;
    s.tc = x.t_coolant_k;
    s.soc = x.soc_percent;
    s.soe = x.soe_percent;
    s.u_cap = (2.0 * z[2 * k] - 1.0) * cap_power_scale_;
    s.u_pc = z[2 * k + 1] * pc_max_;

    // --- ultracapacitor branch ----------------------------------------
    const double soe_eff = std::clamp(s.soe, 0.1, 100.0);
    const double s_sqrt = std::sqrt(soe_eff / 100.0);
    const double v_cap = ultracap_.params().rated_voltage * s_sqrt;
    s.dv_dsoe = (s.soe > 0.1 && s.soe < 100.0)
                    ? ultracap_.params().rated_voltage / (200.0 * s_sqrt)
                    : 0.0;
    s.eta_c = cap_conv_.efficiency(v_cap);
    s.deta_c_dv = cap_conv_.efficiency_dv(v_cap);
    if (s.u_cap >= 0.0) {
      s.p_cs = s.u_cap / s.eta_c;
      s.dpcs_du = 1.0 / s.eta_c;
      s.dpcs_deta = -s.u_cap / (s.eta_c * s.eta_c);
    } else {
      s.p_cs = s.u_cap * s.eta_c;
      s.dpcs_du = s.eta_c;
      s.dpcs_deta = s.u_cap;
    }

    // --- bus balance ------------------------------------------------------
    const double load = p_e_[k] + pump_w_ + s.u_pc;
    const double p_bb = load - s.u_cap;

    // --- battery branch ---------------------------------------------------
    s.v_b = battery_.open_circuit_voltage(s.soc);
    s.dvb_dsoc = battery_.open_circuit_voltage_dsoc(s.soc);
    const double eta_b = bat_conv_.efficiency(s.v_b);
    s.deta_b_dv = bat_conv_.efficiency_dv(s.v_b);
    if (p_bb >= 0.0) {
      s.p_bs = p_bb / eta_b;
      s.dpbs_dpbb = 1.0 / eta_b;
      s.dpbs_deta = -p_bb / (eta_b * eta_b);
    } else {
      s.p_bs = p_bb * eta_b;
      s.dpbs_dpbb = eta_b;
      s.dpbs_deta = p_bb;
    }

    s.r = battery_.internal_resistance(s.soc, s.tb);
    s.dr_dsoc = battery_.internal_resistance_dsoc(s.soc, s.tb);
    s.dr_dtb = battery_.internal_resistance_dtemp(s.soc, s.tb);

    const double disc = s.v_b * s.v_b - 4.0 * s.r * s.p_bs;
    const double disc_floor = kDiscFloorFrac * s.v_b * s.v_b;
    double sq, dsq_ddisc;
    if (disc > disc_floor) {
      sq = std::sqrt(disc);
      dsq_ddisc = 0.5 / sq;
    } else {
      sq = std::sqrt(disc_floor);
      dsq_ddisc = 0.0;  // flat in the clamped (infeasible) region
    }
    s.i = (s.v_b - sq) / (2.0 * s.r);
    s.di_dvb = (1.0 - dsq_ddisc * 2.0 * s.v_b) / (2.0 * s.r);
    s.di_dpbs = 2.0 * dsq_ddisc;
    s.di_dr = 2.0 * s.p_bs * dsq_ddisc / s.r - s.i / s.r;

    // --- heat and ageing ---------------------------------------------------
    const double q = s.i * s.i * s.r + s.i * s.tb * entropic_k_;
    // Eq. 5 counts DISCHARGE current only; i_pos is a smooth positive
    // part, i_pos = (i + sqrt(i^2 + delta^2)) / 2, so the gradient
    // stays defined through zero current.
    const double i_mag = std::sqrt(s.i * s.i + delta2);
    const double i_pos = 0.5 * (s.i + i_mag);
    const double di_pos = 0.5 * (1.0 + s.i / i_mag);
    const double c_rate = i_pos / cell_cap;
    const double arr =
        std::exp(-cell.l2 / (constants::kGasConstant * s.tb));
    s.qloss = cell.l1 * arr * std::pow(c_rate, cell.l3) * dt;
    s.dqloss_dtb =
        s.qloss * cell.l2 / (constants::kGasConstant * s.tb * s.tb);
    s.dqloss_di = s.qloss * cell.l3 * di_pos / i_pos;

    // --- thermal update (Eq. 17) ------------------------------------------
    const double ti_raw =
        (1.0 - eps_passive) * s.tc + eps_passive * ambient_k_ -
        gamma * s.u_pc;
    const double ti = std::max(ti_raw, t_min_inlet);
    s.ti_clamped = ti_raw < t_min_inlet;

    const double tb_next =
        tm_.m00 * s.tb + tm_.m01 * s.tc + tm_.bi0 * ti + tm_.bq0 * q;
    const double tc_next =
        tm_.m10 * s.tb + tm_.m11 * s.tc + tm_.bi1 * ti + tm_.bq1 * q;
    const double soc_next = s.soc - beta_soc_ * s.i;
    const double soe_next = s.soe - beta_soe_ * s.p_cs;

    // --- cost (Eq. 19) -----------------------------------------------------
    cost_.cooler += w.w1 * s.u_pc * dt;
    cost_.aging += w.w2 * s.qloss;
    cost_.energy += w.w3 * (s.v_b * s.i + s.p_cs) * dt;

    // --- constraints C1, C4, C5, C6 -----------------------------------------
    double* c = &c_out[kConstraintsPerStep * k];
    const thermal::CoolingParams& tp = cooling_.params();
    c[0] = (tb_next - tp.max_battery_temp_k) / kTempScale;
    c[1] = (tp.min_battery_temp_k - tb_next) / kTempScale;
    c[2] = (options_.soc_min_percent - soc_next) / kSocScale;
    c[3] = (soc_next - 100.0) / kSocScale;
    c[4] = (options_.soe_min_percent - soe_next) / kSocScale;
    c[5] = (soe_next - 100.0) / kSocScale;
    c[6] = (s.p_bs - max_battery_power_w_) / kPowerScale;
    c[7] = (-s.p_bs - max_battery_power_w_) / kPowerScale;

    x.t_battery_k = tb_next;
    x.t_coolant_k = tc_next;
    x.soc_percent = soc_next;
    x.soe_percent = soe_next;
    states_[k + 1] = x;
  }

  cost_.terminal = 0.0;
  if (options_.terminal_soe_weight > 0.0) {
    cost_.terminal += options_.terminal_soe_weight *
                      (100.0 - x.soe_percent) / 100.0 *
                      ultracap_.energy_capacity_j();
  }
  if (options_.terminal_aging_tail_s > 0.0) {
    // Aging cost-to-go at the terminal temperature (see MpcOptions).
    const double rate =
        cell.l1 *
        std::exp(-cell.l2 / (constants::kGasConstant * x.t_battery_k)) *
        std::pow(std::max(tail_c_rate_, 1e-6), cell.l3);
    cost_.terminal +=
        w.w2 * rate * options_.terminal_aging_tail_s;
  }
  return cost_.total();
}

const std::vector<MpcProblem::StepJacobian>& MpcProblem::linearize() {
  const double eps_passive = cooling_.params().passive_effectiveness;
  const double gamma = cooling_.pulldown_per_watt();
  jac_.resize(options_.horizon);

  for (size_t k = 0; k < options_.horizon; ++k) {
    const StepCache& s = cache_[k];
    StepJacobian& j = jac_[k];
    // Entries this loop never writes (a[0][3], a[3][0], b[3][1],
    // dpbs_dx[0], ...) are structural zeros: reset the reused slot.
    j = StepJacobian{};

    // Battery current partials w.r.t. state and PHYSICAL controls.
    const double dpbs_dsoc =
        s.dpbs_deta * s.deta_b_dv * s.dvb_dsoc;
    const double di_dsoc = s.di_dvb * s.dvb_dsoc + s.di_dr * s.dr_dsoc +
                           s.di_dpbs * dpbs_dsoc;
    const double di_dtb = s.di_dr * s.dr_dtb;
    const double di_ducap = -s.di_dpbs * s.dpbs_dpbb;
    const double di_dupc = s.di_dpbs * s.dpbs_dpbb;

    // Heat partials: Q = I^2 R + I T_b kappa.
    const double common = 2.0 * s.i * s.r + s.tb * entropic_k_;
    const double dq_dtb =
        common * di_dtb + s.i * s.i * s.dr_dtb + s.i * entropic_k_;
    const double dq_dsoc = common * di_dsoc + s.i * s.i * s.dr_dsoc;
    const double dq_ducap = common * di_ducap;
    const double dq_dupc = common * di_dupc;

    // Inlet partials (zero in the refrigerant-floor clamp).
    const double dti_dtc = s.ti_clamped ? 0.0 : 1.0 - eps_passive;
    const double dti_dupc = s.ti_clamped ? 0.0 : -gamma;

    // T_b+ row.
    j.a[0][0] = tm_.m00 + tm_.bq0 * dq_dtb;
    j.a[0][1] = tm_.m01 + tm_.bi0 * dti_dtc;
    j.a[0][2] = tm_.bq0 * dq_dsoc;
    j.b[0][0] = tm_.bq0 * dq_ducap;
    j.b[0][1] = tm_.bi0 * dti_dupc + tm_.bq0 * dq_dupc;
    // T_c+ row.
    j.a[1][0] = tm_.m10 + tm_.bq1 * dq_dtb;
    j.a[1][1] = tm_.m11 + tm_.bi1 * dti_dtc;
    j.a[1][2] = tm_.bq1 * dq_dsoc;
    j.b[1][0] = tm_.bq1 * dq_ducap;
    j.b[1][1] = tm_.bi1 * dti_dupc + tm_.bq1 * dq_dupc;
    // SoC+ row.
    j.a[2][0] = -beta_soc_ * di_dtb;
    j.a[2][2] = 1.0 - beta_soc_ * di_dsoc;
    j.b[2][0] = -beta_soc_ * di_ducap;
    j.b[2][1] = -beta_soc_ * di_dupc;
    // SoE+ row.
    j.a[3][3] =
        1.0 - beta_soe_ * s.dpcs_deta * s.deta_c_dv * s.dv_dsoe;
    j.b[3][0] = -beta_soe_ * s.dpcs_du;

    // C6 row: battery storage-side power.
    j.p_bs = s.p_bs;
    j.dpbs_du[0] = -s.dpbs_dpbb;
    j.dpbs_du[1] = s.dpbs_dpbb;
    j.dpbs_dx[2] = dpbs_dsoc;
  }
  return jac_;
}

void MpcProblem::gradient(const optim::Vector& z, const optim::Vector& w,
                          optim::Vector& grad_out) {
  const size_t n = options_.horizon;
  OTEM_REQUIRE(z.size() == 2 * n, "MPC decision vector size mismatch");
  OTEM_REQUIRE(w.size() == num_constraints(),
               "MPC constraint weight size mismatch");
  grad_out.assign(2 * n, 0.0);

  const double dt = options_.dt;
  const MpcWeights& wt = options_.weights;
  const double eps_passive = cooling_.params().passive_effectiveness;
  const double gamma = cooling_.pulldown_per_watt();

  // Adjoints of the state downstream of the current step.
  double a_tb = 0.0, a_tc = 0.0, a_soc = 0.0, a_soe = 0.0;
  if (options_.terminal_soe_weight > 0.0) {
    a_soe -= options_.terminal_soe_weight * ultracap_.energy_capacity_j() /
             100.0;
  }
  if (options_.terminal_aging_tail_s > 0.0) {
    const battery::CellParams& cell = battery_.params().cell;
    const double tb_n = states_[n].t_battery_k;
    const double rate =
        cell.l1 *
        std::exp(-cell.l2 / (constants::kGasConstant * tb_n)) *
        std::pow(std::max(tail_c_rate_, 1e-6), cell.l3);
    // d/dT exp(-l2/(R T)) = exp(...) * l2 / (R T^2)
    a_tb += wt.w2 * rate * options_.terminal_aging_tail_s * cell.l2 /
            (constants::kGasConstant * tb_n * tb_n);
  }

  for (size_t kk = n; kk-- > 0;) {
    const StepCache& s = cache_[kk];
    const double* cw = &w[kConstraintsPerStep * kk];

    // Constraint contributions on the step's OUTPUT state and p_bs.
    a_tb += (cw[0] - cw[1]) / kTempScale;
    a_soc += (cw[3] - cw[2]) / kSocScale;
    a_soe += (cw[5] - cw[4]) / kSocScale;
    double g_pbs = (cw[6] - cw[7]) / kPowerScale;

    // Dynamics.
    const double g_q = a_tb * tm_.bq0 + a_tc * tm_.bq1;
    const double g_ti = a_tb * tm_.bi0 + a_tc * tm_.bi1;
    double n_tb = a_tb * tm_.m00 + a_tc * tm_.m10;
    double n_tc = a_tb * tm_.m01 + a_tc * tm_.m11;
    double n_soc = a_soc;
    double n_soe = a_soe;
    double g_i = -a_soc * beta_soc_;
    double g_pcs = -a_soe * beta_soe_;

    // Inlet temperature.
    double g_upc = 0.0;
    if (!s.ti_clamped) {
      n_tc += g_ti * (1.0 - eps_passive);
      g_upc -= gamma * g_ti;
    }

    // Running cost at this step.
    g_upc += wt.w1 * dt;
    const double g_qloss = wt.w2;
    g_i += wt.w3 * s.v_b * dt;
    double g_vb = wt.w3 * s.i * dt;
    g_pcs += wt.w3 * dt;

    // Ageing.
    n_tb += g_qloss * s.dqloss_dtb;
    g_i += g_qloss * s.dqloss_di;

    // Heat generation q = i^2 r + i tb kappa.
    g_i += g_q * (2.0 * s.i * s.r + s.tb * entropic_k_);
    double g_r = g_q * s.i * s.i;
    n_tb += g_q * s.i * entropic_k_;

    // Battery current solve.
    g_vb += g_i * s.di_dvb;
    g_r += g_i * s.di_dr;
    g_pbs += g_i * s.di_dpbs;

    // Internal resistance.
    n_soc += g_r * s.dr_dsoc;
    n_tb += g_r * s.dr_dtb;

    // Battery converter p_bs(p_bb, eta_b(v_b)).
    const double g_pbb = g_pbs * s.dpbs_dpbb;
    const double g_etab = g_pbs * s.dpbs_deta;
    g_vb += g_etab * s.deta_b_dv;

    // Bus balance p_bb = P_e + pump + u_pc - u_cap.
    g_upc += g_pbb;
    double g_ucap = -g_pbb;

    // Open-circuit voltage.
    n_soc += g_vb * s.dvb_dsoc;

    // Ultracap converter p_cs(u_cap, eta_c(v_cap(soe))).
    g_ucap += g_pcs * s.dpcs_du;
    const double g_etac = g_pcs * s.dpcs_deta;
    n_soe += g_etac * s.deta_c_dv * s.dv_dsoe;

    // Map to the normalised decision space.
    grad_out[2 * kk] = g_ucap * 2.0 * cap_power_scale_;
    grad_out[2 * kk + 1] = g_upc * pc_max_;

    a_tb = n_tb;
    a_tc = n_tc;
    a_soc = n_soc;
    a_soe = n_soe;
  }
}

}  // namespace otem::core
