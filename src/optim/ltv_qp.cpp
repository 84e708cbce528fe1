#include "optim/ltv_qp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/trace.h"
#include "optim/vector_ops.h"

namespace otem::optim {

namespace {

/// Bitwise equality of the KKT-relevant stage data (dynamics, battery
/// row). Bounds and the linear cost q never enter K, so they are free
/// to change without invalidating the factorisation — exactly the dense
/// solver's A-matrix comparison, stage-structured.
bool same_kkt_rows(const LtvQpStage& a, const LtvQpStage& b) {
  for (size_t r = 0; r < kLtvStates; ++r) {
    if (a.ew[r] != b.ew[r] || a.cw[r] != b.cw[r]) return false;
    for (size_t m = 0; m < kLtvStates; ++m)
      if (a.aw.m[r][m] != b.aw.m[r][m]) return false;
    for (size_t j = 0; j < kLtvControls; ++j)
      if (a.bv.m[r][j] != b.bv.m[r][j]) return false;
  }
  for (size_t j = 0; j < kLtvControls; ++j)
    if (a.cv[j] != b.cv[j]) return false;
  return true;
}

// The per-stage row arithmetic. ax_into / aty_accumulate loop these over
// the horizon; the ADMM iteration and the polish rounds call them one
// stage at a time from inside their factor and substitution sweeps.
// Either way every element sees the same operations in the same order.
// They are declared inline so GCC folds them into the sweeps, where the
// out-of-order core overlaps them with the divide chains (out of line
// they cost ~10 % of a solve).

/// Stage k's kLtvStageRows rows of A x into `o`. `xk` is stage k's
/// [v_k, w_{k+1}], `xp` stage k-1's (null at k = 0, where w_0 = 0).
inline void stage_ax(const LtvQpStage& s, const double* xk,
                     const double* xp, double* o) {
  o[0] = xk[0];
  o[1] = xk[1];
  for (size_t r = 0; r < kLtvStates; ++r) {
    double v = s.ew[r] * xk[2 + r];
    for (size_t j = 0; j < kLtvControls; ++j) v -= s.bv.m[r][j] * xk[j];
    if (xp)
      for (size_t mm = 0; mm < kLtvStates; ++mm)
        v -= s.aw.m[r][mm] * xp[2 + mm];
    o[2 + r] = v;
    o[6 + r] = xk[2 + r];
  }
  double b = s.cv[0] * xk[0] + s.cv[1] * xk[1];
  if (xp)
    for (size_t mm = 0; mm < kLtvStates; ++mm) b += s.cw[mm] * xp[2 + mm];
  o[10] = b;
}

/// Stage k's rows of A^T t added into y: `tk` holds the stage's
/// kLtvStageRows row values, `yk` is block k of y and `yp` block k-1
/// (null at k = 0). The rows reach block k-1's w_k entries only, so
/// block k-1 is complete once stage k's rows are in.
inline void stage_aty(const LtvQpStage& s, const double* tk, double* yk,
                      double* yp) {
  yk[0] += tk[0];
  yk[1] += tk[1];
  for (size_t r = 0; r < kLtvStates; ++r) {
    const double te = tk[2 + r];
    yk[2 + r] += s.ew[r] * te + tk[6 + r];
    for (size_t j = 0; j < kLtvControls; ++j) yk[j] -= s.bv.m[r][j] * te;
    if (yp)
      for (size_t mm = 0; mm < kLtvStates; ++mm)
        yp[2 + mm] -= s.aw.m[r][mm] * te;
  }
  const double tb = tk[10];
  yk[0] += s.cv[0] * tb;
  yk[1] += s.cv[1] * tb;
  if (yp)
    for (size_t mm = 0; mm < kLtvStates; ++mm) yp[2 + mm] += s.cw[mm] * tb;
}

/// Block k of a proximal right-hand side, sigma x_k - [q_k, 0] (states
/// are costless).
inline void stage_prox_rhs(const LtvQpStage& s, double sigma,
                           const double* xk, double* r) {
  for (size_t j = 0; j < kLtvControls; ++j) r[j] = sigma * xk[j] - s.q[j];
  for (size_t rr = 0; rr < kLtvStates; ++rr) r[2 + rr] = sigma * xk[2 + rr];
}

}  // namespace

QpProblem ltv_qp_to_dense(const LtvQpProblem& problem) {
  const size_t h = problem.horizon();
  const size_t n = problem.num_vars();
  const size_t m = problem.num_rows();
  QpProblem dense;
  dense.p = Matrix(n, n);
  dense.q.assign(n, 0.0);
  dense.a = Matrix(m, n);
  dense.l.assign(m, 0.0);
  dense.u.assign(m, 0.0);
  for (size_t k = 0; k < h; ++k) {
    const LtvQpStage& s = problem.stages[k];
    const size_t col = kLtvStageVars * k;  // this stage's [v_k, w_{k+1}]
    const size_t row = kLtvStageRows * k;
    for (size_t j = 0; j < kLtvControls; ++j) {
      dense.p(col + j, col + j) = s.p[j];
      dense.q[col + j] = s.q[j];
      dense.a(row + j, col + j) = 1.0;
      dense.l[row + j] = s.v_lo[j];
      dense.u[row + j] = s.v_hi[j];
    }
    for (size_t r = 0; r < kLtvStates; ++r) {
      dense.a(row + 2 + r, col + 2 + r) = s.ew[r];
      for (size_t j = 0; j < kLtvControls; ++j)
        dense.a(row + 2 + r, col + j) = -s.bv.m[r][j];
      if (k > 0)
        for (size_t mm = 0; mm < kLtvStates; ++mm)
          dense.a(row + 2 + r, col - kLtvStageVars + 2 + mm) = -s.aw.m[r][mm];
      dense.a(row + 6 + r, col + 2 + r) = 1.0;
      dense.l[row + 6 + r] = s.x_lo[r];
      dense.u[row + 6 + r] = s.x_hi[r];
    }
    for (size_t j = 0; j < kLtvControls; ++j)
      dense.a(row + 10, col + j) = s.cv[j];
    if (k > 0)
      for (size_t mm = 0; mm < kLtvStates; ++mm)
        dense.a(row + 10, col - kLtvStageVars + 2 + mm) = s.cw[mm];
    dense.l[row + 10] = s.b_lo;
    dense.u[row + 10] = s.b_hi;
  }
  return dense;
}

void LtvQpSolver::assemble_kkt(const LtvQpProblem& problem, double sigma,
                               double rho) {
  const size_t h = problem.horizon();
  using Block = SmallMat<kLtvStageVars, kLtvStageVars>;
  kkt_diag_.assign(h, Block{});
  kkt_sub_.assign(h > 0 ? h - 1 : 0, Block{});
  const double rho_eq = kLtvEqRhoScale * rho;
  for (size_t k = 0; k < h; ++k) {
    const LtvQpStage& s = problem.stages[k];
    Block& d = kkt_diag_[k];
    // Cost curvature, sigma regularisation, and the unit-coefficient
    // rows (control boxes on v_k, state bounds on w_{k+1}) plus this
    // stage's ew^2 equality diagonal.
    for (size_t j = 0; j < kLtvControls; ++j)
      d.m[j][j] += s.p[j] + sigma + rho;
    for (size_t r = 0; r < kLtvStates; ++r)
      d.m[2 + r][2 + r] += sigma + rho + rho_eq * s.ew[r] * s.ew[r];
    // This stage's dynamics rows: rho_eq bv^T bv on the v block and the
    // v <-> w_{k+1} cross terms against the ew coefficients (the -bv and
    // +ew signs cancel into a single minus).
    SmallMat<kLtvControls, kLtvControls> gvv = {};
    transpose_multiply_add(s.bv, s.bv, rho_eq, gvv);
    for (size_t j1 = 0; j1 < kLtvControls; ++j1)
      for (size_t j2 = 0; j2 < kLtvControls; ++j2)
        d.m[j1][j2] += gvv.m[j1][j2];
    for (size_t r = 0; r < kLtvStates; ++r)
      for (size_t j = 0; j < kLtvControls; ++j) {
        const double cross = -rho_eq * s.bv.m[r][j] * s.ew[r];
        d.m[j][2 + r] += cross;
        d.m[2 + r][j] += cross;
      }
    // This stage's battery row on the v block (rho cv cv^T).
    for (size_t j1 = 0; j1 < kLtvControls; ++j1)
      for (size_t j2 = 0; j2 < kLtvControls; ++j2)
        d.m[j1][j2] += rho * s.cv[j1] * s.cv[j2];
    // Stage k+1's rows also touch w_{k+1}: its dynamics rows contribute
    // rho_eq aw^T aw to this diagonal block and its battery row
    // rho cw cw^T; the couplings with stage k+1's own variables land in
    // the sub-diagonal block (stage k+1 rows x stage k columns).
    if (k + 1 < h) {
      const LtvQpStage& nx = problem.stages[k + 1];
      SmallMat<kLtvStates, kLtvStates> gww = {};
      transpose_multiply_add(nx.aw, nx.aw, rho_eq, gww);
      for (size_t m1 = 0; m1 < kLtvStates; ++m1)
        for (size_t m2 = 0; m2 < kLtvStates; ++m2)
          d.m[2 + m1][2 + m2] +=
              gww.m[m1][m2] + rho * nx.cw[m1] * nx.cw[m2];
      Block& l = kkt_sub_[k];
      // (-bv)^T (-aw) = +bv^T aw on [v_{k+1}][w_{k+1}] ...
      SmallMat<kLtvControls, kLtvStates> gva = {};
      transpose_multiply_add(nx.bv, nx.aw, rho_eq, gva);
      for (size_t j = 0; j < kLtvControls; ++j)
        for (size_t mm = 0; mm < kLtvStates; ++mm)
          l.m[j][2 + mm] +=
              gva.m[j][mm] + rho * nx.cv[j] * nx.cw[mm];
      // ... and ew * (-aw) on [w_{k+2}][w_{k+1}].
      for (size_t r = 0; r < kLtvStates; ++r)
        for (size_t mm = 0; mm < kLtvStates; ++mm)
          l.m[2 + r][2 + mm] -= rho_eq * nx.ew[r] * nx.aw.m[r][mm];
    }
  }
}

void LtvQpSolver::assemble_kkt_weighted(const LtvQpProblem& problem,
                                        double sigma, const Vector& w,
                                        size_t k) {
  using Block = SmallMat<kLtvStageVars, kLtvStageVars>;
  // Same contributions as assemble_kkt, but every row brings its own
  // weight, so each product is formed per row rather than by the
  // uniform-scale block kernels. The block is built from zero, so a
  // polish round that re-assembles only blocks >= its first edited
  // block gets the bits a full assembly would.
  const size_t h = problem.horizon();
  const LtvQpStage& s = problem.stages[k];
  const double* wk = w.data() + kLtvStageRows * k;
  Block& d = pol_diag_[k];
  d = Block{};
  for (size_t j = 0; j < kLtvControls; ++j)
    d.m[j][j] += s.p[j] + sigma + wk[j];
  for (size_t r = 0; r < kLtvStates; ++r) {
    const double we = wk[2 + r];
    d.m[2 + r][2 + r] += sigma + wk[6 + r] + we * s.ew[r] * s.ew[r];
    for (size_t j1 = 0; j1 < kLtvControls; ++j1) {
      const double cross = -we * s.bv.m[r][j1] * s.ew[r];
      d.m[j1][2 + r] += cross;
      d.m[2 + r][j1] += cross;
      for (size_t j2 = 0; j2 < kLtvControls; ++j2)
        d.m[j1][j2] += we * s.bv.m[r][j1] * s.bv.m[r][j2];
    }
  }
  for (size_t j1 = 0; j1 < kLtvControls; ++j1)
    for (size_t j2 = 0; j2 < kLtvControls; ++j2)
      d.m[j1][j2] += wk[10] * s.cv[j1] * s.cv[j2];
  if (k + 1 < h) {
    const LtvQpStage& nx = problem.stages[k + 1];
    const double* wn = w.data() + kLtvStageRows * (k + 1);
    Block& l = pol_sub_[k];
    l = Block{};
    for (size_t r = 0; r < kLtvStates; ++r) {
      const double we = wn[2 + r];
      for (size_t m1 = 0; m1 < kLtvStates; ++m1) {
        for (size_t m2 = 0; m2 < kLtvStates; ++m2)
          d.m[2 + m1][2 + m2] += we * nx.aw.m[r][m1] * nx.aw.m[r][m2];
        l.m[2 + r][2 + m1] -= we * nx.ew[r] * nx.aw.m[r][m1];
      }
      for (size_t j = 0; j < kLtvControls; ++j)
        for (size_t mm = 0; mm < kLtvStates; ++mm)
          l.m[j][2 + mm] += we * nx.bv.m[r][j] * nx.aw.m[r][mm];
    }
    for (size_t m1 = 0; m1 < kLtvStates; ++m1) {
      for (size_t m2 = 0; m2 < kLtvStates; ++m2)
        d.m[2 + m1][2 + m2] += wn[10] * nx.cw[m1] * nx.cw[m2];
      for (size_t j = 0; j < kLtvControls; ++j)
        l.m[j][2 + m1] += wn[10] * nx.cv[j] * nx.cw[m1];
    }
  }
}

void LtvQpSolver::ax_into(const LtvQpProblem& problem, const Vector& x,
                          Vector& out) {
  const size_t h = problem.horizon();
  out.resize(problem.num_rows());
  for (size_t k = 0; k < h; ++k) {
    const double* xk = x.data() + kLtvStageVars * k;
    stage_ax(problem.stages[k], xk, k > 0 ? xk - kLtvStageVars : nullptr,
             out.data() + kLtvStageRows * k);
  }
}

void LtvQpSolver::aty_accumulate(const LtvQpProblem& problem, const Vector& t,
                                 Vector& y_out) {
  const size_t h = problem.horizon();
  for (size_t k = 0; k < h; ++k) {
    double* yk = y_out.data() + kLtvStageVars * k;
    stage_aty(problem.stages[k], t.data() + kLtvStageRows * k, yk,
              k > 0 ? yk - kLtvStageVars : nullptr);
  }
}

void LtvQpSolver::gather_bounds(const LtvQpProblem& problem) {
  const size_t h = problem.horizon();
  l_.resize(problem.num_rows());
  u_.resize(problem.num_rows());
  for (size_t k = 0; k < h; ++k) {
    const LtvQpStage& s = problem.stages[k];
    double* l = l_.data() + kLtvStageRows * k;
    double* u = u_.data() + kLtvStageRows * k;
    for (size_t j = 0; j < kLtvControls; ++j) {
      l[j] = s.v_lo[j];
      u[j] = s.v_hi[j];
      OTEM_REQUIRE(l[j] <= u[j], "LTV QP: v_lo > v_hi in some stage");
    }
    for (size_t r = 0; r < kLtvStates; ++r) {
      l[2 + r] = 0.0;
      u[2 + r] = 0.0;
      l[6 + r] = s.x_lo[r];
      u[6 + r] = s.x_hi[r];
      OTEM_REQUIRE(l[6 + r] <= u[6 + r],
                   "LTV QP: x_lo > x_hi in some stage");
    }
    l[10] = s.b_lo;
    u[10] = s.b_hi;
    OTEM_REQUIRE(l[10] <= u[10], "LTV QP: b_lo > b_hi in some stage");
  }
}

double LtvQpSolver::dual_residual(const LtvQpProblem& problem,
                                  const Vector& x, const Vector& y,
                                  double& scale) {
  const size_t h = problem.horizon();
  const size_t n = problem.num_vars();
  // P x: curvature lives on the v slots only.
  px_.resize(n);
  double q_norm = 0.0;
  for (size_t k = 0; k < h; ++k) {
    const LtvQpStage& s = problem.stages[k];
    double* p = px_.data() + kLtvStageVars * k;
    const double* xk = x.data() + kLtvStageVars * k;
    for (size_t j = 0; j < kLtvControls; ++j) {
      p[j] = s.p[j] * xk[j];
      q_norm = std::max(q_norm, std::abs(s.q[j]));
    }
    for (size_t r = 0; r < kLtvStates; ++r) p[2 + r] = 0.0;
  }
  aty_.assign(n, 0.0);
  aty_accumulate(problem, y, aty_);
  dres_.resize(n);
  for (size_t k = 0; k < h; ++k) {
    const LtvQpStage& s = problem.stages[k];
    const size_t base = kLtvStageVars * k;
    for (size_t j = 0; j < kLtvControls; ++j)
      dres_[base + j] = px_[base + j] + s.q[j] + aty_[base + j];
    for (size_t r = 0; r < kLtvStates; ++r)
      dres_[base + 2 + r] = aty_[base + 2 + r];
  }
  scale = std::max({norm_inf(px_), q_norm, norm_inf(aty_)});
  return norm_inf(dres_);
}

bool LtvQpSolver::polish(const LtvQpProblem& problem,
                         const QpOptions& options, QpResult& result,
                         size_t& stage_ops) {
  const obs::TraceSpan polish_span("ltv_qp.polish");
  const size_t h = problem.horizon();
  const size_t n = problem.num_vars();
  const size_t m = problem.num_rows();

  // Initial working-set guess from the terminal iterates. The dual's
  // sign (OSQP's rule) names the bound a row pushes against; at a
  // loose eps a truly active row can also still sit slightly inside
  // its bound with an exactly-zero dual, so bound proximity (at the
  // accuracy the iterate actually has) marks a row active too.
  // Equality rows are always active. The guess only has to be close:
  // the refinement rounds below repair it.
  w_row_.resize(m);
  b_act_.resize(m);
  const double act_tol =
      10.0 * (options.eps_abs + result.primal_residual);
  for (size_t i = 0; i < m; ++i) {
    double b = 0.0;
    bool active = false;
    const bool lo_ok = l_[i] > -kLtvInf, hi_ok = u_[i] < kLtvInf;
    if (l_[i] == u_[i]) {
      active = true;
      b = l_[i];
    } else if (y_[i] < 0.0 && lo_ok) {
      active = true;
      b = l_[i];
    } else if (y_[i] > 0.0 && hi_ok) {
      active = true;
      b = u_[i];
    } else if (lo_ok && z_[i] - l_[i] <= act_tol &&
               (!hi_ok || z_[i] - l_[i] <= u_[i] - z_[i])) {
      active = true;
      b = l_[i];
    } else if (hi_ok && u_[i] - z_[i] <= act_tol) {
      active = true;
      b = u_[i];
    }
    w_row_[i] = active ? kLtvPolishWeight : 0.0;
    b_act_[i] = b;
  }

  // A full-strength proximal term would bias controls whose curvature
  // is near the regularisation floor (p ~ sigma): the polish point
  // would land at p/(p + sigma) of the true minimiser. P's floor keeps
  // the system PD on its own, so polish runs with a vanishing sigma.
  const double psig = options.sigma * 1e-6;

  // Working-set refinement, the textbook repair loop: solve the set,
  // then add rows the solution pushes past a bound and drop rows whose
  // multiplier estimate W (a x - b) points into the feasible set. Each
  // round is one O(H) factorisation + solve — a handful of ADMM
  // iterations' work. Duals are NOT carried across rounds: an
  // inconsistent intermediate set would accumulate W * violation per
  // round into them and diverge.
  //
  // A round solves the set under the pure penalty, from xp_:
  //   (P + psig I + A_act^T W A_act) x = psig xp - q + A_act^T W b
  // Without a dual seed this is bounded by construction (the W-penalty
  // itself caps how far any active row strays), so working-set
  // mistakes can never blow the iterate up — the price is a violation
  // of |y*| / W on a consistent set, which the dual-seeded passes below
  // remove.
  //
  // Round 0 assembles and factors everything. A later round's KKT
  // differs from the previous one only in the blocks the edited rows
  // touch, so it re-assembles and re-factors from `first`, the lowest
  // such block over ALL rows the repair step edited (ltv_kkt_first_block;
  // the result is bitwise the full refactor).
  //
  // A round is two stage sweeps, so each stage's bookkeeping runs right
  // behind the factor and substitution chains it does not depend on.
  // Forward, k = 0..H-1: assemble block k+1 and build its right-hand
  // side (stage k+1's rows complete block k), factor stage k, forward-
  // substitute block k. Backward, k = H-1..0: back-substitute block k,
  // then stage k+1's rows of A x (x_{k+1} and x_k are final), their
  // multiplier estimates and the add / worst-wrong-sign scan. The scan
  // edits only the rows it is on, so it sees what one pass over all
  // rows would. The drop pass needs the round's `worst`, so it runs
  // after the sweep.
  pol_diag_.resize(h);
  pol_sub_.resize(h - 1);
  rhs_.resize(n);
  ax_.resize(m);
  yp_.resize(m);
  size_t first = 0;
  auto round_rhs_block = [&](size_t k) {
    if (k >= first) assemble_kkt_weighted(problem, psig, w_row_, k);
    const LtvQpStage& s = problem.stages[k];
    const size_t row = kLtvStageRows * k;
    double t[kLtvStageRows];
    for (size_t r = 0; r < kLtvStageRows; ++r)
      t[r] = w_row_[row + r] * b_act_[row + r];
    double* rk = rhs_.data() + kLtvStageVars * k;
    stage_prox_rhs(s, psig, xp_.data() + kLtvStageVars * k, rk);
    stage_aty(s, t, rk, k > 0 ? rk - kLtvStageVars : nullptr);
  };
  size_t nadd = 0, next_first = h;
  double worst = 0.0;
  auto round_scan = [&](size_t k) {
    const double* xk = rhs_.data() + kLtvStageVars * k;
    const size_t row = kLtvStageRows * k;
    stage_ax(problem.stages[k], xk, k > 0 ? xk - kLtvStageVars : nullptr,
             ax_.data() + row);
    for (size_t i = row; i < row + kLtvStageRows; ++i) {
      yp_[i] = w_row_[i] != 0.0 ? kLtvPolishWeight * (ax_[i] - b_act_[i])
                                : 0.0;
      // Repair, part one: add every violated row; track the worst
      // wrong-sign multiplier for the drop pass.
      if (w_row_[i] == 0.0) {
        if (l_[i] > -kLtvInf && ax_[i] < l_[i]) {
          w_row_[i] = kLtvPolishWeight;
          b_act_[i] = l_[i];
          ++nadd;
          next_first = std::min(next_first, ltv_kkt_first_block(i));
        } else if (u_[i] < kLtvInf && ax_[i] > u_[i]) {
          w_row_[i] = kLtvPolishWeight;
          b_act_[i] = u_[i];
          ++nadd;
          next_first = std::min(next_first, ltv_kkt_first_block(i));
        }
      } else if (l_[i] != u_[i]) {
        const double wrong = b_act_[i] == l_[i] ? yp_[i] : -yp_[i];
        worst = std::max(worst, wrong);
      }
    }
  };

  xp_ = x_;
  bool settled = false;
  for (size_t round = 0; round < kLtvPolishRounds && !settled; ++round) {
    polish_chol_.begin_factor(pol_diag_, pol_sub_, first);
    round_rhs_block(0);
    for (size_t k = 0; k < h; ++k) {
      if (k + 1 < h) round_rhs_block(k + 1);
      if (k >= first) polish_chol_.factor_stage(k);
      polish_chol_.forward_stage(k, rhs_.data());
    }
    stage_ops += (h - first) + h;  // assembly, A^T t
    nadd = 0;
    next_first = h;
    worst = 0.0;
    for (size_t k = h; k-- > 0;) {
      polish_chol_.backward_stage(k, rhs_.data());
      if (k + 1 < h) round_scan(k + 1);
    }
    round_scan(0);
    stage_ops += h;  // A x
    std::swap(xp_, rhs_);
    // Repair, part two: drop the wrong-sign rows that are confidently
    // wrong — at least kLtvPolishDropFrac of the worst offender this
    // round (peels tiers of comparably-wrong rows together instead of
    // one per round) and above an absolute noise floor. The floor
    // matters: a degenerate row (true multiplier 0) estimates W *
    // O(machine eps), whose sign is coin-flip noise — dropping it
    // creates a noise-sized violation, the add step pulls it back, and
    // the set cycles at the finish line forever.
    size_t ndrop = 0;
    if (worst > kLtvPolishDropFloor) {
      const double cut =
          std::max(kLtvPolishDropFrac * worst, kLtvPolishDropFloor);
      for (size_t i = 0; i < m; ++i) {
        if (w_row_[i] == 0.0 || l_[i] == u_[i]) continue;
        const double y_est = kLtvPolishWeight * (ax_[i] - b_act_[i]);
        const double wrong = b_act_[i] == l_[i] ? y_est : -y_est;
        if (wrong >= cut) {
          w_row_[i] = 0.0;
          ++ndrop;
          next_first = std::min(next_first, ltv_kkt_first_block(i));
        }
      }
    }
    settled = nadd == 0 && ndrop == 0;
    first = next_first;
  }
  result.polish_unsettled = !settled;

  // Multiplier estimates of the final set AS SOLVED (the repair step
  // may have edited w_row_ after the last solve — estimates against
  // the edited set would not be stationarity-consistent), then (on a
  // settled set) guarded augmented-Lagrangian passes on the
  // already-current factorisation: each shrinks the active-row
  // violation by ~kappa/W towards machine zero, and a pass that fails
  // to shrink it (the set was inconsistent after all) is discarded
  // before it can diverge. A pass solves the round's system seeded
  // with the multiplier estimates,
  //   (P + psig I + A_act^T W A_act) x = psig xp - q + A_act^T (W b - yp),
  // on the factor the last round left.
  auto seeded_penalty_solve = [&]() {
    for (size_t k = 0; k < h; ++k)
      stage_prox_rhs(problem.stages[k], psig,
                     xp_.data() + kLtvStageVars * k,
                     rhs_.data() + kLtvStageVars * k);
    t_.resize(m);
    for (size_t i = 0; i < m; ++i) t_[i] = w_row_[i] * b_act_[i] - yp_[i];
    aty_accumulate(problem, t_, rhs_);
    stage_ops += h;
    polish_chol_.solve_in_place(rhs_);
  };
  auto active_violation = [&]() {
    double v = 0.0;
    for (size_t i = 0; i < m; ++i)
      if (w_row_[i] != 0.0)
        v = std::max(v, std::abs(ax_[i] - b_act_[i]));
    return v;
  };
  if (settled) {
    double prev_viol = active_violation();
    for (size_t pass = 0; pass < kLtvPolishPasses; ++pass) {
      seeded_penalty_solve();
      ax_into(problem, rhs_, ax_);
      stage_ops += h;
      const double viol = active_violation();
      if (!(viol < prev_viol)) break;
      prev_viol = viol;
      std::swap(xp_, rhs_);
      for (size_t i = 0; i < m; ++i)
        if (w_row_[i] != 0.0)
          yp_[i] += kLtvPolishWeight * (ax_[i] - b_act_[i]);
    }
  }
  ax_into(problem, xp_, ax_);
  stage_ops += h;

  // Accept only when the polished triple beats the ADMM iterates on
  // BOTH residuals (it loses only when the working set failed to
  // settle — then the ADMM answer stands and nothing was harmed).
  double r_prim = 0.0;
  z_new_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    z_new_[i] = std::clamp(ax_[i], l_[i], u_[i]);
    r_prim = std::max(r_prim, std::abs(ax_[i] - z_new_[i]));
  }
  double dscale = 0.0;
  const double r_dual = dual_residual(problem, xp_, yp_, dscale);
  stage_ops += h;
  if (r_prim > result.primal_residual || r_dual > result.dual_residual)
    return false;
  std::swap(x_, xp_);
  std::swap(y_, yp_);
  std::swap(z_, z_new_);
  result.primal_residual = r_prim;
  result.dual_residual = r_dual;
  result.polished = true;
  return true;
}

QpResult LtvQpSolver::solve(const LtvQpProblem& problem,
                            const QpOptions& options) {
  return solve(problem, options, QpWarmStart{});
}

QpResult LtvQpSolver::solve(const LtvQpProblem& problem,
                            const QpOptions& options,
                            const QpWarmStart& warm) {
  const obs::TraceSpan solve_span("ltv_qp.solve");
  const size_t h = problem.horizon();
  OTEM_REQUIRE(h > 0, "LTV QP: empty horizon");
  const size_t n = problem.num_vars();
  const size_t m = problem.num_rows();

  QpResult result;
  const size_t chol_ops_before = chol_.block_ops();
  const size_t pol_ops_before = polish_chol_.block_ops();
  size_t stage_ops = 0;  // non-factorisation block work (stage matvecs)

  // Warm rho policy (banded refinement): seed the penalty at a
  // geometric blend rho_warm^0.8 * rho_base^0.2, not at the carried
  // terminal value itself. The structured problem's equilibrium rho is
  // ~4 orders of magnitude above the base, and the upward walk acts as
  // a continuation schedule that does real work; re-entering directly
  // at a terminal (often overshot) rho measurably stalls — the
  // deadband of the adaptation keeps rho pinned while the dual creeps.
  // The blend keeps most of the head start without skipping the
  // schedule (0.8 measured best over the sweep 0.5..1.0 on the
  // receding-horizon probes; the even 0.5 mean gives up ~15% of the
  // warm-start iteration win).
  constexpr double kWarmRhoBlend = 0.8;
  // Exact-equality short-circuit: pow(r, 0.8) * pow(r, 0.2) is not
  // bitwise r, and a 1-ulp rho difference would needlessly void the
  // cached factorisation on an identical resolve.
  double rho = options.rho;
  if (warm.rho > 0.0 && warm.rho != options.rho)
    rho = std::clamp(
        std::pow(warm.rho, kWarmRhoBlend) *
            std::pow(options.rho, 1.0 - kWarmRhoBlend),
        1e-6, 1e6);

  gather_bounds(problem);

  // Flat per-row penalty vector, refreshed on every rho move: the two
  // O(m) loops per iteration then index an array instead of paying a
  // modulo + branch per element.
  auto set_rho_rows = [&](double rho_now) {
    rho_row_.resize(m);
    for (size_t i = 0; i < m; ++i)
      rho_row_[i] = rho_now * row_rho_scale(i % kLtvStageRows);
  };

  // KKT factorisation reuse, with the same contract as QpSolver: an
  // exact match of the KKT-relevant stage data + sigma + rho and a cost
  // curvature within kkt_refactor_tol of what is baked into the cached
  // factor reuses it outright. Anything else reassembles — at O(H)
  // block cost the dense solver's in-place-update distinction buys
  // nothing here, but the kkt_refactorizations accounting is identical.
  auto refactor = [&](double rho_now) {
    const obs::TraceSpan factor_span("ltv_qp.factorize");
    assemble_kkt(problem, options.sigma, rho_now);
    stage_ops += h;
    chol_.factor(kkt_diag_, kkt_sub_);
    cached_ = problem.stages;
    sigma_cached_ = options.sigma;
    rho_cached_ = rho_now;
    factored_ = true;
    ++result.kkt_refactorizations;
  };
  bool structure_same = factored_ && cached_.size() == h &&
                        sigma_cached_ == options.sigma;
  double p_drift = 0.0;
  if (structure_same) {
    for (size_t k = 0; k < h && structure_same; ++k) {
      if (!same_kkt_rows(cached_[k], problem.stages[k]))
        structure_same = false;
      for (size_t j = 0; j < kLtvControls; ++j)
        p_drift = std::max(
            p_drift, std::abs(cached_[k].p[j] - problem.stages[k].p[j]));
    }
  }
  if (!(structure_same && rho == rho_cached_ &&
        p_drift <= options.kkt_refactor_tol)) {
    refactor(rho);
  }
  // Else: full reuse. Termination below tests residuals of the true
  // problem data, so a tolerated P drift only affects convergence
  // speed, never the answer; cached_ keeps the stage data baked into
  // the factor, so drift cannot accumulate across solves.
  set_rho_rows(rho);

  result.warm_started = warm.x.size() == n && warm.y.size() == m;
  if (result.warm_started) {
    x_ = warm.x;
    y_ = warm.y;
    // Re-propagate the state part of the seed through THIS problem's
    // dynamics recursion: the warm w came from the previous problem's
    // (re-linearised, re-scaled) dynamics, so it violates the new
    // equality rows — and the stiff equality penalty would turn that
    // seed inconsistency into a large initial kick. The controls are
    // the meaningful part of the warm start; the states they imply are
    // recomputed in O(H). A cold start (x = 0) is equality-consistent
    // for free, so this keeps warm seeds at least as good.
    for (size_t k = 0; k < h; ++k) {
      const LtvQpStage& s = problem.stages[k];
      double* xk = x_.data() + kLtvStageVars * k;
      const double* xp =
          k > 0 ? x_.data() + kLtvStageVars * (k - 1) : nullptr;
      for (size_t r = 0; r < kLtvStates; ++r) {
        double w = s.bv.m[r][0] * xk[0] + s.bv.m[r][1] * xk[1];
        if (xp)
          for (size_t mm = 0; mm < kLtvStates; ++mm)
            w += s.aw.m[r][mm] * xp[2 + mm];
        xk[2 + r] = w / s.ew[r];
      }
    }
    stage_ops += h;
    ax_into(problem, x_, z_);
    stage_ops += h;
    for (size_t i = 0; i < m; ++i) z_[i] = std::clamp(z_[i], l_[i], u_[i]);
  } else {
    x_.assign(n, 0.0);
    z_.assign(m, 0.0);
    y_.assign(m, 0.0);
  }

  // One ADMM iteration is two stage sweeps over the cached factor, so
  // each stage's bookkeeping runs right behind the substitution chains
  // it does not depend on.
  //   Forward, k = 0..H-1: right-hand-side block k+1 of the x-update
  //     K x = sigma x - q + A^T (R z - y), R = diag(rho * row_rho_scale),
  //     whose stage k+1 rows complete block k; then forward-substitute
  //     block k.
  //   Backward, k = H-1..0: back-substitute block k; x_{k+1} and x_k are
  //     then final, so stage k+1's rows of A x get their over-relaxed
  //     z-update with projection onto [l, u], the dual update and the
  //     residual maxima. Stage 0's rows come last.
  // Every element sees the operations of separate whole-vector passes
  // in the same order, and the maxima do not depend on row order.
  rhs_.resize(n);
  z_new_.resize(m);
  auto admm_rhs_block = [&](size_t k) {
    const LtvQpStage& s = problem.stages[k];
    const size_t row = kLtvStageRows * k;
    double t[kLtvStageRows];
    for (size_t r = 0; r < kLtvStageRows; ++r)
      t[r] = rho_row_[row + r] * z_[row + r] - y_[row + r];
    double* rk = rhs_.data() + kLtvStageVars * k;
    stage_prox_rhs(s, options.sigma, x_.data() + kLtvStageVars * k, rk);
    stage_aty(s, t, rk, k > 0 ? rk - kLtvStageVars : nullptr);
  };
  double r_prim = 0.0, ax_norm = 0.0, z_norm = 0.0;
  auto admm_z_update = [&](size_t k) {
    const double* xk = rhs_.data() + kLtvStageVars * k;
    double ax[kLtvStageRows];
    stage_ax(problem.stages[k], xk, k > 0 ? xk - kLtvStageVars : nullptr,
             ax);
    const size_t row = kLtvStageRows * k;
    for (size_t r = 0; r < kLtvStageRows; ++r) {
      const size_t i = row + r;
      const double ri = rho_row_[i];
      const double axi = ax[r];
      const double axr = options.alpha * axi + (1.0 - options.alpha) * z_[i];
      const double zi = std::clamp(axr + y_[i] / ri, l_[i], u_[i]);
      z_new_[i] = zi;
      y_[i] += ri * (axr - zi);
      r_prim = std::max(r_prim, std::abs(axi - zi));
      ax_norm = std::max(ax_norm, std::abs(axi));
      z_norm = std::max(z_norm, std::abs(zi));
    }
  };

  {  // ADMM iterations, rho updates included
    const obs::TraceSpan admm_span("ltv_qp.admm");
    for (size_t it = 0; it < options.max_iterations; ++it) {
      admm_rhs_block(0);
      for (size_t k = 0; k < h; ++k) {
        if (k + 1 < h) admm_rhs_block(k + 1);
        chol_.forward_stage(k, rhs_.data());
      }
      stage_ops += h;  // A^T t
      r_prim = ax_norm = z_norm = 0.0;
      for (size_t k = h; k-- > 0;) {
        chol_.backward_stage(k, rhs_.data());
        if (k + 1 < h) admm_z_update(k + 1);
      }
      admm_z_update(0);
      stage_ops += h;  // A x

      std::swap(x_, rhs_);
      std::swap(z_, z_new_);
      result.iterations = it + 1;
      result.primal_residual = r_prim;

      const double eps_p =
          options.eps_abs + options.eps_rel * std::max(ax_norm, z_norm);

      // Lazy dual residual, same policy as the dense solver: only when it
      // can gate termination, feed the rho rebalance, or be reported.
      const bool rho_due = options.rho_update_interval != 0 &&
                           (it + 1) % options.rho_update_interval == 0;
      const bool need_dual =
          r_prim <= eps_p || rho_due || it + 1 == options.max_iterations;
      double r_dual = result.dual_residual;
      double eps_d = 0.0;
      if (need_dual) {
        double dual_scale = 0.0;
        r_dual = dual_residual(problem, x_, y_, dual_scale);
        stage_ops += h;
        eps_d = options.eps_abs + options.eps_rel * dual_scale;
        result.dual_residual = r_dual;
      }

      if (r_prim <= eps_p && r_dual <= eps_d) {
        result.converged = true;
        break;
      }

      if (rho_due) {
        const double rel_p = r_prim / std::max(eps_p, 1e-30);
        const double rel_d = r_dual / std::max(eps_d, 1e-30);
        const double ratio = std::sqrt(rel_p / std::max(rel_d, 1e-30));
        if (ratio > 3.16 || ratio < 0.316) {
          // Banded refinement: bound each rebalance to one order of
          // magnitude. The unbounded sqrt-ratio step can jump rho x20+
          // past the equilibrium in one update, where the deadband then
          // pins it (too-high rho = vanishing primal residual = no
          // downward pressure) and the dual converges at a crawl.
          const double step_ratio =
              std::clamp(ratio, 1.0 / kLtvRhoStepCap, kLtvRhoStepCap);
          const double rho_new = std::clamp(rho * step_ratio, 1e-6, 1e6);
          if (rho_new != rho) {
            rho = rho_new;
            refactor(rho);
            set_rho_rows(rho);
            ++result.rho_updates;
          }
        }
      }
    }
  }

  // Optional active-set polish: snaps a converged-at-loose-eps iterate
  // to the active-set-exact optimum (its factorisation is kept separate
  // from chol_, so the ADMM factor cache survives and
  // kkt_refactorizations keeps measuring ADMM KKT reuse only).
  if (options.polish && result.converged)
    polish(problem, options, result, stage_ops);

  result.x = x_;
  result.y = y_;
  result.rho_final = rho;
  result.stage_block_ops = stage_ops +
                           (chol_.block_ops() - chol_ops_before) +
                           (polish_chol_.block_ops() - pol_ops_before);
  return result;
}

}  // namespace otem::optim
