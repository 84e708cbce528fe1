// ltv_qp.h — structure-exploiting ADMM QP solver for the stage-wise
// (sparse) LTV-MPC transcription.
//
// The receding-horizon QP of the LTV controller is block-banded by
// construction: each horizon step k contributes two control corrections
// v_k, four (scaled) state deviations w_{k+1}, linearised dynamics
// coupling only neighbouring stages, and stage-local bounds. Condensing
// the states away (optim/qp.h path) destroys that structure and makes
// the ADMM KKT matrix dense; this solver keeps the states as decision
// variables, so the KKT matrix
//
//     K = P + sigma I + A^T diag(rho_i) A
//
// is block-tridiagonal with 6x6 stage blocks and factorises in O(H)
// fixed-size block operations (optim/block_tridiag.h) instead of
// O((6H)^3). Matrix-vector products against A are stage-local too, so
// every ADMM iteration is O(H).
//
// Algorithm and semantics deliberately mirror QpSolver (same
// over-relaxed two-block ADMM, same termination tests on the true
// problem data, same QpOptions / QpWarmStart / QpResult types, same
// factorisation-reuse contract including kkt_refactor_tol and
// kkt_refactorizations accounting), with one structured refinement:
// the dynamics equality rows carry a stiffer penalty
// (kLtvEqRhoScale * rho, OSQP's equality handling), which the dense
// solver cannot express but which only changes the iteration path,
// never the fixed point. tests/test_banded_kkt.cpp pins the two
// solvers to the same solution on randomised stage problems via
// ltv_qp_to_dense().
#pragma once

#include <vector>

#include "optim/block_tridiag.h"
#include "optim/qp.h"
#include "optim/small_mat.h"

namespace otem::optim {

inline constexpr size_t kLtvControls = 2;  ///< v_k width (du_cap, du_cool)
inline constexpr size_t kLtvStates = 4;    ///< w_k width (Tb, Tc, SoC, SoE)
/// Decision variables per stage: [v_k, w_{k+1}].
inline constexpr size_t kLtvStageVars = kLtvControls + kLtvStates;
/// Constraint rows per stage: 2 control boxes, 4 dynamics equalities,
/// 4 state bounds, 1 battery-power row.
inline constexpr size_t kLtvStageRows = 11;
/// rho multiplier on the dynamics equality rows: equalities want a much
/// stiffer penalty than ranged inequalities (OSQP's equality handling
/// uses 1e3; 1e2 measures slightly better on the OTEM stage problems).
inline constexpr double kLtvEqRhoScale = 1e2;
/// Largest factor one adaptive-rho rebalance may move rho by (the dense
/// solver's unbounded sqrt-ratio step overshoots on the structured
/// problem — see the solve() implementation).
inline constexpr double kLtvRhoStepCap = 10.0;
/// Penalty weight on active rows during solution polish (the 1/delta of
/// OSQP's delta-regularised polish KKT, realised here as stiff-penalty
/// solves inside a working-set refinement loop, finished off by a few
/// dual-seeded augmented-Lagrangian passes).
inline constexpr double kLtvPolishWeight = 1e6;
/// Working-set refinement rounds per polish: each solves the set under
/// a stiff penalty, then adds violated rows / drops wrong-sign
/// multipliers until the set stabilises (or the round budget runs out
/// and the accept test keeps the ADMM iterates).
inline constexpr size_t kLtvPolishRounds = 30;
/// Wrong-sign multiplier drop rule during refinement: drop every row at
/// least this fraction of the round's worst offender (tiers of
/// comparably-wrong rows leave together) ...
inline constexpr double kLtvPolishDropFrac = 0.3;
/// ... but never below this absolute magnitude: a degenerate row's
/// multiplier estimate is W * O(machine eps) with a coin-flip sign, and
/// dropping it just cycles the set at noise level.
inline constexpr double kLtvPolishDropFloor = 1e-3;
/// Guarded augmented-Lagrangian passes on the settled working set:
/// each reuses its factorisation and shrinks the remaining active-row
/// violation by ~1/kLtvPolishWeight, down to machine level.
inline constexpr size_t kLtvPolishPasses = 3;
/// Bound magnitude treated as "unconstrained" (mirrors the dense path's
/// dropped-row convention).
inline constexpr double kLtvInf = 1e30;

/// One horizon stage of the structured QP, in the solver's scaled
/// decision space. The caller (core::LtvOtemController) folds all
/// variable and row equilibration into these coefficients.
struct LtvQpStage {
  /// Dynamics equality rows r = 0..3:
  ///   ew[r] w_{k+1}[r] - aw[r][.] . w_k - bv[r][.] . v_k = 0.
  /// aw must be zero at stage 0 (w_0 == 0 by definition).
  SmallMat<4, 4> aw = {};
  SmallMat<4, 2> bv = {};
  double ew[4] = {1.0, 1.0, 1.0, 1.0};
  /// Control box rows: v_lo <= v_k <= v_hi.
  double v_lo[2] = {}, v_hi[2] = {};
  /// State bound rows (unit coefficient on w_{k+1}[r]); +-kLtvInf
  /// disables a row.
  double x_lo[4] = {}, x_hi[4] = {};
  /// Battery-power row: b_lo <= cw . w_k + cv . v_k <= b_hi (cw zero at
  /// stage 0).
  double cw[4] = {};
  double cv[2] = {};
  double b_lo = 0.0, b_hi = 0.0;
  /// Stage cost 1/2 v^T diag(p) v + q . v (states are costless — the
  /// objective lives on the controls, exactly as in the condensed QP).
  double p[2] = {}, q[2] = {};
};

/// Lowest KKT stage block that row `row` (global index, stage-major)
/// contributes to. Rows with coefficients on the previous stage's states
/// — the dynamics equalities and the battery row — reach block k-1 and
/// sub-block k-1; boxes and state bounds touch only their own block k.
/// A working-set change in a set of rows therefore leaves every block
/// below the minimum of this over the set unchanged.
inline size_t ltv_kkt_first_block(size_t row) {
  const size_t k = row / kLtvStageRows, r = row % kLtvStageRows;
  const bool couples_back = r == 10 || (r >= 2 && r < 6);
  return k > 0 && couples_back ? k - 1 : k;
}

struct LtvQpProblem {
  std::vector<LtvQpStage> stages;

  size_t horizon() const { return stages.size(); }
  size_t num_vars() const { return kLtvStageVars * stages.size(); }
  size_t num_rows() const { return kLtvStageRows * stages.size(); }
};

/// Expand the stage-wise problem into the equivalent dense QpProblem —
/// the correctness oracle for tests and a debugging aid. Variable order
/// is [v_0, w_1, v_1, w_2, ...]; row order matches the structured
/// solver (per stage: boxes, dynamics, state bounds, battery).
QpProblem ltv_qp_to_dense(const LtvQpProblem& problem);

/// Reusable structured ADMM solver; keep one alive per controller, like
/// QpSolver. Workspace (stage blocks, factorisation, iterates) persists
/// across solve() calls; the factorisation is reused whenever
/// consecutive problems share their KKT-relevant data (dynamics,
/// battery rows, cost curvature within kkt_refactor_tol, sigma, rho).
class LtvQpSolver {
 public:
  QpResult solve(const LtvQpProblem& problem, const QpOptions& options = {});
  QpResult solve(const LtvQpProblem& problem, const QpOptions& options,
                 const QpWarmStart& warm);

 private:
  /// Per-row penalty: rho for inequality rows, kLtvEqRhoScale * rho for
  /// the dynamics equalities. `row` is the index within a stage.
  static double row_rho_scale(size_t row) {
    return row >= 2 && row < 6 ? kLtvEqRhoScale : 1.0;
  }

  void assemble_kkt(const LtvQpProblem& problem, double sigma, double rho);
  /// Polish variant: block k (pol_diag_[k] and, below the last stage,
  /// pol_sub_[k]) of K = P + sigma I + A^T diag(w) A for an arbitrary
  /// per-row weight vector, leaving the cached ADMM factorisation
  /// untouched. A polish round calls it for its blocks >= `first` from
  /// inside its factor sweep; lower blocks keep what the previous
  /// round's factor left there.
  void assemble_kkt_weighted(const LtvQpProblem& problem, double sigma,
                             const Vector& w, size_t k);
  void ax_into(const LtvQpProblem& problem, const Vector& x, Vector& out);
  void aty_accumulate(const LtvQpProblem& problem, const Vector& t,
                      Vector& y_out);
  void gather_bounds(const LtvQpProblem& problem);
  /// Dual residual ||P x + q + A^T y||_inf of an arbitrary iterate pair
  /// (px_/aty_/dres_ scratch); `scale` returns the eps_rel reference.
  double dual_residual(const LtvQpProblem& problem, const Vector& x,
                       const Vector& y, double& scale);
  /// Active-set polish (see QpOptions::polish): returns true and swaps
  /// the polished iterates into x_/y_/z_ when both residuals improved.
  bool polish(const LtvQpProblem& problem, const QpOptions& options,
              QpResult& result, size_t& stage_ops);

  // KKT stage blocks + factorisation (factored in place).
  std::vector<SmallMat<kLtvStageVars, kLtvStageVars>> kkt_diag_, kkt_sub_;
  BlockTridiagCholesky<kLtvStageVars> chol_;
  // Polish twin: separate storage + factorisation so a polish never
  // invalidates the cached (reusable) ADMM factor above.
  std::vector<SmallMat<kLtvStageVars, kLtvStageVars>> pol_diag_, pol_sub_;
  BlockTridiagCholesky<kLtvStageVars> polish_chol_;
  // Stage data baked into the factor, for the reuse decision (compare
  // KKT-relevant fields only; bounds and q never enter K).
  std::vector<LtvQpStage> cached_;
  double sigma_cached_ = 0.0;
  double rho_cached_ = 0.0;
  bool factored_ = false;
  // Row bounds flattened once per solve (stage-major, kLtvStageRows per
  // stage) so the ADMM loop indexes plain arrays.
  Vector l_, u_;
  // ADMM iterates + scratch, persisted across calls. The ADMM iteration
  // builds its right-hand side in rhs_ and solves it there; t_ and ax_
  // are the polish's whole-vector scratch.
  Vector x_, z_, y_;
  Vector rhs_, t_, ax_, z_new_;
  Vector px_, aty_, dres_;
  // Per-row penalty rho * row_rho_scale, materialised whenever rho
  // changes so the two O(m) loops per iteration index a flat array
  // instead of computing a modulo + branch per element.
  Vector rho_row_;
  // Polish scratch: candidate iterates, per-row weights, active bounds.
  Vector xp_, yp_, w_row_, b_act_;
};

}  // namespace otem::optim
