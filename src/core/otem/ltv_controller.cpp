#include "core/otem/ltv_controller.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "obs/trace.h"

namespace otem::core {

LtvOtemController::LtvOtemController(const SystemSpec& spec,
                                     MpcOptions mpc_options,
                                     LtvOptions options)
    : problem_(spec, mpc_options),
      options_(options),
      cap_power_max_(spec.ultracap.max_power_w),
      pc_max_(spec.thermal.max_cooler_power_w),
      max_battery_power_w_(spec.hybrid.max_battery_power_w),
      t_max_k_(spec.thermal.max_battery_temp_k),
      t_min_k_(spec.thermal.min_battery_temp_k) {}

void LtvOtemController::reset() {
  have_warm_ = false;
  warm_z_.clear();
  have_qp_warm_ = false;
  qp_warm_ = optim::QpWarmStart{};
  info_ = SolveInfo{};
}

/// Advance the stored QP iterates one control period — the same
/// shift-by-one policy the incumbent plan uses. The primal lives in
/// (du_cap, du_cool) pairs per step; the dual has nu box rows followed
/// by 4 linearised-constraint rows per step. The terminal entries keep
/// the previous horizon-end values.
void LtvOtemController::shift_qp_warm_start(size_t n, size_t nu,
                                            size_t rows) {
  optim::Vector& x = qp_warm_.x;
  optim::Vector& y = qp_warm_.y;
  if (x.size() != nu || y.size() != rows) {
    have_qp_warm_ = false;  // shape changed: honest cold start
    return;
  }
  for (size_t i = 0; i + 2 < nu; ++i) {
    x[i] = x[i + 2];
    y[i] = y[i + 2];
  }
  for (size_t k = 0; k + 1 < n; ++k)
    for (size_t r = 0; r < 4; ++r)
      y[nu + 4 * k + r] = y[nu + 4 * (k + 1) + r];
}

/// Banded twin of shift_qp_warm_start(): iterates live in 6-variable /
/// 11-row stage blocks, so the one-period advance moves whole stages.
/// The terminal stage keeps the previous horizon-end values.
void LtvOtemController::shift_banded_warm_start(size_t n) {
  optim::Vector& x = qp_warm_.x;
  optim::Vector& y = qp_warm_.y;
  if (x.size() != optim::kLtvStageVars * n ||
      y.size() != optim::kLtvStageRows * n) {
    have_qp_warm_ = false;  // shape (or KKT mode) changed: cold start
    return;
  }
  for (size_t k = 0; k + 1 < n; ++k) {
    for (size_t j = 0; j < optim::kLtvStageVars; ++j)
      x[optim::kLtvStageVars * k + j] =
          x[optim::kLtvStageVars * (k + 1) + j];
    for (size_t r = 0; r < optim::kLtvStageRows; ++r)
      y[optim::kLtvStageRows * k + r] =
          y[optim::kLtvStageRows * (k + 1) + r];
  }
}

/// Stage-wise transcription of the round's QP — the same constraint set
/// as the dense assembly in solve() (boxes, linearised state bounds,
/// battery-power rows, identical equilibration scales and infeasibility
/// softening), but keeping the scaled state deviations
///   w_{k+1} = (x_{k+1} - x*_{k+1}) / s_{k+1}
/// as decision variables tied to the controls by per-stage dynamics
/// equality rows. That keeps the KKT matrix block-tridiagonal, which is
/// what LtvQpSolver factorises in O(H). The two transcriptions have the
/// same minimiser in the controls (tests/test_banded_kkt.cpp pins this).
void LtvOtemController::assemble_banded_qp(
    const std::vector<MpcProblem::StepJacobian>& jac) {
  const size_t n = problem_.options().horizon;
  const size_t nu = 2 * n;
  const auto& xs = problem_.predicted_states();
  const double T = options_.trust_region_w;

  ltv_qp_.stages.assign(n, optim::LtvQpStage{});

  // Per-state control-authority scales s_{k,r} = max_col |T S_k(r,col)|
  // — exactly the dense path's row-equilibration factor for the bound
  // row on state r at step k. A vanishing scale means the controls
  // cannot move that state (its bound row is dropped, like the dense
  // degenerate-row case); the w variable then stays in raw units.
  state_scale_.assign(4 * (n + 1), 0.0);
  for (size_t k = 1; k <= n; ++k) {
    const optim::Matrix& s = sens_[k];
    for (size_t r = 0; r < 4; ++r) {
      double m = 0.0;
      for (size_t col = 0; col < nu; ++col)
        m = std::max(m, std::abs(T * s(r, col)));
      state_scale_[4 * k + r] = m;
    }
  }
  auto scale_of = [&](size_t k, size_t r) {
    const double s = state_scale_[4 * k + r];
    return s < 1e-9 ? 1.0 : s;
  };

  // Normalised control boxes, needed up front: the reach-based
  // softening of every row scans all of them.
  box_lo_.resize(nu);
  box_hi_.resize(nu);
  for (size_t i = 0; i < nu; ++i) {
    const bool is_cap = (i % 2 == 0);
    const double lo = is_cap ? -cap_power_max_ : 0.0;
    const double hi = is_cap ? cap_power_max_ : pc_max_;
    box_lo_[i] = std::max((lo - u_[i]) / T, -1.0);
    box_hi_[i] = std::min((hi - u_[i]) / T, 1.0);
    if (box_lo_[i] > box_hi_[i]) box_lo_[i] = box_hi_[i];
  }

  // Soften a row given its condensed (per-column, equilibrated)
  // coefficients: clip the bounds to the best reachable value plus 5 %
  // slack, as in the dense assembly. `coeff(col)` must return the same
  // values the dense path would carry in A's row.
  auto soften = [&](auto&& coeff, double& lo, double& hi) {
    if (lo > hi) lo = hi;
    double reach_min = 0.0, reach_max = 0.0;
    for (size_t col = 0; col < nu; ++col) {
      const double a = coeff(col);
      reach_min += std::min(a * box_lo_[col], a * box_hi_[col]);
      reach_max += std::max(a * box_lo_[col], a * box_hi_[col]);
    }
    const double slack = 0.05 * (reach_max - reach_min);
    if (hi < reach_min + slack) hi = reach_min + slack;
    if (lo > reach_max - slack) lo = reach_max - slack;
    if (lo > hi) lo = hi;
  };

  for (size_t k = 0; k < n; ++k) {
    optim::LtvQpStage& st = ltv_qp_.stages[k];
    const auto& jk = jac[k];

    // Cost + control boxes: same numbers as dense columns 2k, 2k+1.
    for (size_t j = 0; j < 2; ++j) {
      const size_t col = 2 * k + j;
      st.q[j] = g_u_[col] * T;
      st.p[j] = std::max(std::abs(g_u_[col]) * T,
                         options_.regularisation_floor * T * T);
      st.v_lo[j] = box_lo_[col];
      st.v_hi[j] = box_hi_[col];
    }

    // Dynamics equality rows, scaled per target state:
    //   w_{k+1,r} = (A_k diag(s_k) w_k + T B_k v_k)(r) / s_{k+1,r}.
    // Stage 0 has no w_0 (x_0 is the measured state): aw stays zero.
    for (size_t r = 0; r < 4; ++r) {
      const double inv = 1.0 / scale_of(k + 1, r);
      st.ew[r] = 1.0;
      if (k > 0)
        for (size_t m = 0; m < 4; ++m)
          st.aw.m[r][m] = jk.a[r][m] * scale_of(k, m) * inv;
      for (size_t j = 0; j < 2; ++j)
        st.bv.m[r][j] = T * jk.b[r][j] * inv;
    }

    // State bound rows on w_{k+1}: T_b (r=0), SoC (r=2), SoE (r=3);
    // T_c carries no bound. Bounds and softening match the dense rows
    // exactly — the dense equilibration scale IS s_{k+1,r}.
    st.x_lo[1] = -optim::kLtvInf;
    st.x_hi[1] = optim::kLtvInf;
    const double bound_lo[4] = {t_min_k_, 0.0,
                                problem_.options().soc_min_percent,
                                problem_.options().soe_min_percent};
    const double bound_hi[4] = {t_max_k_, 0.0, 100.0, 100.0};
    const double x_star[4] = {xs[k + 1].t_battery_k, 0.0,
                              xs[k + 1].soc_percent, xs[k + 1].soe_percent};
    for (size_t r = 0; r < 4; ++r) {
      if (r == 1) continue;
      const double s = state_scale_[4 * (k + 1) + r];
      if (s < 1e-9) {
        st.x_lo[r] = -optim::kLtvInf;  // no control authority: drop
        st.x_hi[r] = optim::kLtvInf;
        continue;
      }
      st.x_lo[r] = (bound_lo[r] - x_star[r]) / s;
      st.x_hi[r] = (bound_hi[r] - x_star[r]) / s;
      const optim::Matrix& s1 = sens_[k + 1];
      soften([&](size_t col) { return T * s1(r, col) / s; }, st.x_lo[r],
             st.x_hi[r]);
    }

    // Battery-power row (C6) over this stage's variables:
    //   dpbs_dx . diag(s_k) w_k + T dpbs_du . v_k in [-P, P] - p_bs,
    // equilibrated by its own max-abs coefficient (row scaling is
    // feasibility-neutral; softening is scale-invariant).
    double m_b = 0.0;
    for (size_t j = 0; j < 2; ++j)
      m_b = std::max(m_b, std::abs(T * jk.dpbs_du[j]));
    if (k > 0)
      for (size_t m = 0; m < 4; ++m)
        m_b = std::max(m_b, std::abs(jk.dpbs_dx[m] * scale_of(k, m)));
    if (m_b < 1e-9) {
      st.b_lo = -optim::kLtvInf;
      st.b_hi = optim::kLtvInf;
    } else {
      const double inv = 1.0 / m_b;
      for (size_t j = 0; j < 2; ++j) st.cv[j] = T * jk.dpbs_du[j] * inv;
      if (k > 0)
        for (size_t m = 0; m < 4; ++m)
          st.cw[m] = jk.dpbs_dx[m] * scale_of(k, m) * inv;
      st.b_lo = (-max_battery_power_w_ - jk.p_bs) * inv;
      st.b_hi = (max_battery_power_w_ - jk.p_bs) * inv;
      const optim::Matrix& s0 = sens_[k];
      soften(
          [&](size_t col) {
            double v = 0.0;
            for (size_t m = 0; m < 4; ++m) v += jk.dpbs_dx[m] * s0(m, col);
            v *= T;
            if (col == 2 * k) v += T * jk.dpbs_du[0];
            if (col == 2 * k + 1) v += T * jk.dpbs_du[1];
            return v * inv;
          },
          st.b_lo, st.b_hi);
    }
  }
}

MpcProblem::Controls LtvOtemController::solve(
    const PlantState& state, const std::vector<double>& p_e_window) {
  const obs::TraceSpan solve_span("ltv.solve");
  problem_.set_window(state, p_e_window);
  const size_t n = problem_.options().horizon;
  const size_t nu = 2 * n;

  // Incumbent plan: shifted previous solution or "all off" (every
  // entry is written below, so the reused buffer needs no clearing).
  optim::Vector& z = z_;
  z.resize(nu);
  info_ = SolveInfo{};
  info_.fallback = !(have_warm_ && warm_z_.size() == nu);
  if (have_warm_ && warm_z_.size() == nu) {
    for (size_t i = 0; i + 2 < nu; ++i) z[i] = warm_z_[i + 2];
    z[nu - 2] = warm_z_[nu - 2];
    z[nu - 1] = warm_z_[nu - 1];
  } else {
    for (size_t k = 0; k < n; ++k) {
      z[2 * k] = 0.5;  // 0 W ultracap
      z[2 * k + 1] = 0.0;
    }
  }

  c_.assign(problem_.num_constraints(), 0.0);
  w0_.assign(problem_.num_constraints(), 0.0);
  g_z_.assign(nu, 0.0);

  // QP warm start for the first round of this step: the previous
  // step's terminal iterates, advanced one period. Later rounds reuse
  // the immediately preceding round's iterates unshifted (same time
  // alignment).
  const bool banded =
      options_.qp.kkt_mode == optim::KktSolveMode::kBanded;
  const size_t rows = nu + 4 * n;  // boxes + (tb, soc, soe, p_bs) / step
  if (options_.warm_start && have_qp_warm_) {
    if (banded)
      shift_banded_warm_start(n);
    else
      shift_qp_warm_start(n, nu, rows);
  }

  // Size the persistent sensitivity stack once per horizon/width.
  if (sens_.size() != n + 1 || sens_[0].rows() != 4 ||
      sens_[0].cols() != nu) {
    sens_.assign(n + 1, optim::Matrix(4, nu));
  }

  for (size_t round = 0; round < options_.sqp_iterations; ++round) {
    const obs::TraceSpan round_span("ltv.sqp_round");
    info_.cost = problem_.evaluate(z, c_);
    problem_.gradient(z, w0_, g_z_);
    const auto& jac = problem_.linearize();
    const auto& xs = problem_.predicted_states();

    // Physical incumbent controls and cost gradient w.r.t. them.
    u_.assign(nu, 0.0);
    g_u_.assign(nu, 0.0);
    for (size_t k = 0; k < n; ++k) {
      const auto uk = problem_.decode(z, k);
      u_[2 * k] = uk.p_cap_bus_w;
      u_[2 * k + 1] = uk.p_cooler_w;
      g_u_[2 * k] = g_z_[2 * k] / (2.0 * cap_power_max_);
      g_u_[2 * k + 1] = g_z_[2 * k + 1] / pc_max_;
    }

    // Control-to-state sensitivities S_k (4 x nu), built forward:
    // S_{k+1} = A_k S_k + B_k at columns (2k, 2k+1).
    sens_[0].reshape(4, nu);  // zero the base; later stages are overwritten
    for (size_t k = 0; k < n; ++k) {
      const auto& jk = jac[k];
      a_step_.reshape(4, 4);
      for (size_t r = 0; r < 4; ++r)
        for (size_t m = 0; m < 4; ++m) a_step_(r, m) = jk.a[r][m];
      optim::Matrix& next = sens_[k + 1];
      a_step_.multiply_into(sens_[k], next);
      for (size_t r = 0; r < 4; ++r) {
        next(r, 2 * k) += jk.b[r][0];
        next(r, 2 * k + 1) += jk.b[r][1];
      }
    }

    // --- assemble + solve the round's QP ---------------------------------
    // Decision variables are du / T with T = trust_region_w, so every
    // variable lives in [-1, 1] and ADMM sees a well-scaled problem.
    // kBanded uses the stage-wise transcription of the same constraint
    // set; kDense condenses the states away (see header comment).
    optim::QpResult sol;
    if (banded) {
      assemble_banded_qp(jac);
      sol = options_.warm_start && have_qp_warm_
                ? ltv_solver_.solve(ltv_qp_, options_.qp, qp_warm_)
                : ltv_solver_.solve(ltv_qp_, options_.qp);
    } else {
    const double T = options_.trust_region_w;
    optim::QpProblem& qp = qp_;
    qp.q.assign(nu, 0.0);
    qp.p.reshape(nu, nu);
    for (size_t i = 0; i < nu; ++i) {
      qp.q[i] = g_u_[i] * T;
      qp.p(i, i) = std::max(std::abs(g_u_[i]) * T,
                            options_.regularisation_floor * T * T);
    }
    qp.a.reshape(rows, nu);
    qp.l.assign(rows, 0.0);
    qp.u.assign(rows, 0.0);

    // Box + trust-region rows (normalised units).
    for (size_t i = 0; i < nu; ++i) {
      qp.a(i, i) = 1.0;
      const bool is_cap = (i % 2 == 0);
      const double lo = is_cap ? -cap_power_max_ : 0.0;
      const double hi = is_cap ? cap_power_max_ : pc_max_;
      qp.l[i] = std::max((lo - u_[i]) / T, -1.0);
      qp.u[i] = std::min((hi - u_[i]) / T, 1.0);
      if (qp.l[i] > qp.u[i]) qp.l[i] = qp.u[i];  // u outside box: pull in
    }

    // Linearised state and battery-power rows.
    for (size_t k = 0; k < n; ++k) {
      const size_t base = nu + 4 * k;
      const optim::Matrix& s1 = sens_[k + 1];
      // T_b
      for (size_t col = 0; col < nu; ++col) qp.a(base, col) = s1(0, col);
      qp.l[base] = t_min_k_ - xs[k + 1].t_battery_k;
      qp.u[base] = t_max_k_ - xs[k + 1].t_battery_k;
      // SoC
      for (size_t col = 0; col < nu; ++col)
        qp.a(base + 1, col) = s1(2, col);
      qp.l[base + 1] =
          problem_.options().soc_min_percent - xs[k + 1].soc_percent;
      qp.u[base + 1] = 100.0 - xs[k + 1].soc_percent;
      // SoE
      for (size_t col = 0; col < nu; ++col)
        qp.a(base + 2, col) = s1(3, col);
      qp.l[base + 2] =
          problem_.options().soe_min_percent - xs[k + 1].soe_percent;
      qp.u[base + 2] = 100.0 - xs[k + 1].soe_percent;
      // Battery power (C6): p_bs + dpbs_du du_k + dpbs_dx (x_k - x*_k).
      const auto& jk = jac[k];
      const optim::Matrix& s0 = sens_[k];
      for (size_t col = 0; col < nu; ++col) {
        double v = 0.0;
        for (size_t m = 0; m < 4; ++m) v += jk.dpbs_dx[m] * s0(m, col);
        qp.a(base + 3, col) = v;
      }
      qp.a(base + 3, 2 * k) += jk.dpbs_du[0];
      qp.a(base + 3, 2 * k + 1) += jk.dpbs_du[1];
      qp.l[base + 3] = -max_battery_power_w_ - jk.p_bs;
      qp.u[base + 3] = max_battery_power_w_ - jk.p_bs;
      // Guard against an infeasible incumbent: keep l <= u.
      for (size_t r = base; r < base + 4; ++r)
        if (qp.l[r] > qp.u[r]) qp.l[r] = qp.u[r];
    }

    // Convert the state/power rows from per-watt to per-normalised-unit
    // (x T), then equilibrate: kelvin/percent rows carry tiny entries
    // next to unit box rows, and ADMM needs comparable row norms.
    for (size_t r = nu; r < rows; ++r) {
      double m = 0.0;
      for (size_t col = 0; col < nu; ++col) {
        qp.a(r, col) *= T;
        m = std::max(m, std::abs(qp.a(r, col)));
      }
      if (m < 1e-9) {
        // Degenerate row (no control authority): drop it.
        qp.l[r] = -1e30;
        qp.u[r] = 1e30;
        continue;
      }
      for (size_t col = 0; col < nu; ++col) qp.a(r, col) /= m;
      qp.l[r] /= m;
      qp.u[r] /= m;

      // Soften rows the control cannot satisfy this round (e.g. a T_b
      // bound already violated beyond one window's cooling authority):
      // clip the bound to the best reachable value so the QP stays
      // feasible and still pushes as hard as it can, instead of letting
      // an infeasible row destabilise ADMM.
      double reach_min = 0.0, reach_max = 0.0;
      for (size_t col = 0; col < nu; ++col) {
        const double a = qp.a(r, col);
        reach_min += std::min(a * qp.l[col], a * qp.u[col]);
        reach_max += std::max(a * qp.l[col], a * qp.u[col]);
      }
      // 5 % slack off the exact vertex keeps the softened row from
      // pinning every variable at a bound (slow ADMM corner case).
      const double slack = 0.05 * (reach_max - reach_min);
      if (qp.u[r] < reach_min + slack) qp.u[r] = reach_min + slack;
      if (qp.l[r] > reach_max - slack) qp.l[r] = reach_max - slack;
      if (qp.l[r] > qp.u[r]) qp.l[r] = qp.u[r];
    }

    sol = options_.warm_start && have_qp_warm_
              ? qp_solver_.solve(qp, options_.qp, qp_warm_)
              : qp_solver_.solve(qp, options_.qp);
    }
    info_.qp_iterations += sol.iterations;
    info_.qp_rho_updates += sol.rho_updates;
    if (sol.warm_started) ++info_.qp_warm_hits;
    info_.kkt_refactorizations += sol.kkt_refactorizations;
    info_.stage_block_ops += sol.stage_block_ops;
    if (sol.polished) ++info_.qp_polish_hits;
    if (sol.polish_unsettled) ++info_.qp_polish_unsettled;
    info_.qp_converged = sol.converged;
    info_.primal_residual = sol.primal_residual;
    info_.dual_residual = sol.dual_residual;
    ++info_.sqp_rounds;

    if (options_.warm_start) {
      // Terminal iterates seed the next round / next step.
      qp_warm_.x = sol.x;
      qp_warm_.y = sol.y;
      qp_warm_.rho = sol.rho_final;
      have_qp_warm_ = true;
    }

    // Apply the correction (de-normalise). The banded primal is
    // stage-major with the two controls leading each 6-wide block.
    const double T = options_.trust_region_w;
    const size_t stride = banded ? optim::kLtvStageVars : 2;
    for (size_t k = 0; k < n; ++k) {
      MpcProblem::Controls uk;
      uk.p_cap_bus_w = std::clamp(u_[2 * k] + T * sol.x[stride * k],
                                  -cap_power_max_, cap_power_max_);
      uk.p_cooler_w = std::clamp(
          u_[2 * k + 1] + T * sol.x[stride * k + 1], 0.0, pc_max_);
      problem_.encode(k, uk, z);
    }
  }

  // Refresh diagnostics at the final point.
  info_.cost = problem_.evaluate(z, c_);
  warm_z_ = z;
  have_warm_ = true;
  return problem_.decode(z, 0);
}

SolveDiagnostics LtvOtemController::diagnostics() const {
  SolveDiagnostics d;
  d.present = true;
  d.converged = info_.qp_converged;
  d.fallback = info_.fallback;
  d.sqp_rounds = info_.sqp_rounds;
  d.qp_iterations = info_.qp_iterations;
  d.qp_rho_updates = info_.qp_rho_updates;
  d.qp_warm_hits = info_.qp_warm_hits;
  d.kkt_refactorizations = info_.kkt_refactorizations;
  d.stage_block_ops = info_.stage_block_ops;
  d.qp_polish_hits = info_.qp_polish_hits;
  d.qp_polish_unsettled = info_.qp_polish_unsettled;
  d.cost = info_.cost;
  d.primal_residual = info_.primal_residual;
  d.dual_residual = info_.dual_residual;
  return d;
}

}  // namespace otem::core
