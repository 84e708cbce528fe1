// qp.h — dense convex quadratic programming via ADMM (OSQP-style).
//
// Solves
//     min  1/2 x^T P x + q^T x
//     s.t. l <= A x <= u
// with P symmetric positive semidefinite. Used by the linear-time-varying
// MPC ablation (`bench/ablation_solver`) and as a reference solver in
// tests; the production OTEM controller uses the shooting NLP path.
//
// Algorithm: standard two-block ADMM with over-relaxation. Each iteration
// solves the cached KKT-regularised system
//     (P + sigma I + rho A^T A) x = sigma x_prev - q + A^T (rho z - y)
// via a Cholesky factorisation computed once.
//
// The hot path is allocation-free AND incremental: QpSolver owns a
// workspace (iterate, residual and KKT buffers) that is sized on first
// use and reused across iterations AND across solve() calls, so an MPC
// controller that keeps a QpSolver alive pays no heap traffic per step
// once warm. Across calls the solver additionally reuses work the new
// problem shares with the previous one:
//   - A^T A is rebuilt only when A changed (receding-horizon MPC
//     re-solves with fresh bounds but often identical rows);
//   - the KKT matrix is updated in place (K += dP + drho A^T A) and
//     refactorised only when P, sigma or rho actually changed — and a
//     P drift below QpOptions::kkt_refactor_tol reuses the cached
//     Cholesky outright (termination always tests the true problem
//     data, so a tolerated stale factor costs iterations, not accuracy);
//   - a QpWarmStart seeds the ADMM iterates from a previous solution
//     (z is derived as the projection of A x), which is the textbook
//     receding-horizon warm start.
#pragma once

#include "optim/decomposition.h"
#include "optim/matrix.h"

namespace otem::optim {

struct QpProblem {
  Matrix p;   ///< n x n, symmetric PSD
  Vector q;   ///< n
  Matrix a;   ///< m x n
  Vector l;   ///< m (may contain -inf)
  Vector u;   ///< m (may contain +inf)
};

/// Backend for the ADMM x-update linear system.
///  * kDense — condensed KKT, dense Cholesky (O(n^3) factor, O(n^2)
///    solve). What QpSolver always does; the correctness oracle.
///  * kBanded — stage-structured block-tridiagonal KKT factored in O(H)
///    fixed-size block operations (optim/ltv_qp.h). Consumed by callers
///    that own a stage-wise transcription (core::LtvOtemController);
///    QpSolver itself ignores it, since a dense QpProblem carries no
///    stage structure to exploit.
enum class KktSolveMode { kDense, kBanded };

struct QpOptions {
  size_t max_iterations = 4000;
  double rho = 0.1;
  double sigma = 1e-6;
  double alpha = 1.6;       ///< over-relaxation
  double eps_abs = 1e-6;
  double eps_rel = 1e-6;
  /// Adaptive rho (OSQP-style): every `rho_update_interval` iterations
  /// rho is rebalanced by the primal/dual residual ratio (requires one
  /// re-factorisation per update). 0 disables adaptation.
  size_t rho_update_interval = 100;
  /// Factorisation reuse: when a solve sees the same A, sigma and rho
  /// as the cached KKT factorisation and P differs elementwise by at
  /// most this tolerance, the cached Cholesky is reused without
  /// refactorising. Residual tests always use the true problem data, so
  /// this trades (bounded) convergence speed, never accuracy. 0 demands
  /// an exact P match.
  double kkt_refactor_tol = 0.0;
  /// KKT backend selector (see KktSolveMode). Structure-aware callers
  /// route their solves through LtvQpSolver when set to kBanded.
  KktSolveMode kkt_mode = KktSolveMode::kDense;
  /// Solution polish (banded path only; QpSolver ignores it). After
  /// ADMM converges, one stiff equality solve on the active set the
  /// terminal duals identify snaps the iterates to the active-set-exact
  /// optimum — a few O(H) block operations that buy orders of magnitude
  /// in solution accuracy, so callers can run ADMM at a loose eps
  /// without the solution noise. The polished iterates are accepted
  /// only when BOTH residuals improve; otherwise the ADMM iterates
  /// stand (so polish can only help). See LtvQpSolver::polish().
  bool polish = false;
};

/// Initial iterates for solve() — typically the previous solution of a
/// receding-horizon sequence (shifted by one period by the caller).
/// Sizes that do not match the problem are not an error: the solve
/// silently cold-starts (QpResult::warm_started == false), which is the
/// natural fallback on a horizon change.
struct QpWarmStart {
  Vector x;          ///< primal seed (size n, empty = cold)
  Vector y;          ///< dual seed for the l <= Ax <= u rows (size m)
  double rho = 0.0;  ///< initial penalty; 0 uses QpOptions::rho
};

struct QpResult {
  Vector x;   ///< terminal primal iterate (feed back as QpWarmStart::x)
  Vector y;   ///< terminal dual for the l <= Ax <= u rows
  size_t iterations = 0;
  bool converged = false;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  size_t rho_updates = 0;  ///< adaptive-rho rebalances performed
  double rho_final = 0.0;  ///< penalty at termination (QpWarmStart::rho)
  bool warm_started = false;     ///< iterates were seeded from a warm start
  /// Cholesky factorisations this solve paid for (initial + adaptive
  /// rho). 0 means the cached factorisation was reused outright.
  size_t kkt_refactorizations = 0;
  /// Fixed-size stage-block kernel applications (banded path only;
  /// always 0 from the dense QpSolver). Exact and machine-independent —
  /// bench/check_banded.py gates on this growing linearly in horizon.
  size_t stage_block_ops = 0;
  /// QpOptions::polish ran and the polished iterates were accepted
  /// (both residuals improved). The polish factorisation is NOT counted
  /// in kkt_refactorizations — that field measures ADMM KKT reuse — but
  /// its block work is included in stage_block_ops.
  bool polished = false;
  /// QpOptions::polish ran but its working set did not settle within
  /// kLtvPolishRounds. The polished iterates may still be accepted, but
  /// they are then not active-set-exact.
  bool polish_unsettled = false;
};

/// Reusable ADMM solver. Keep one alive per controller: the workspace
/// (KKT matrix, factorisation, iterates) persists across solve() calls
/// and is only reallocated when the problem dimensions change, and the
/// factorisation itself is reused whenever consecutive problems share
/// A / P / sigma / rho (see the header comment).
class QpSolver {
 public:
  /// Solve the QP; throws otem::SimError on malformed shapes.
  QpResult solve(const QpProblem& problem, const QpOptions& options = {});

  /// Warm-started solve: seeds x/y from `warm` (z = clamp(A x, l, u))
  /// and starts the adaptive-rho schedule at warm.rho. Mismatched warm
  /// sizes fall back to a cold start.
  QpResult solve(const QpProblem& problem, const QpOptions& options,
                 const QpWarmStart& warm);

 private:
  // Workspace — see solve() for roles. Sized lazily, reused forever.
  Matrix ata_;   ///< cached A^T A for the cached A
  Matrix kkt_;   ///< P + sigma I + rho A^T A, updated in place on changes
  Cholesky chol_;
  // Problem data baked into kkt_ / chol_, used to decide what can be
  // reused on the next solve. The comparisons are O(mn) / O(n^2) —
  // cheap next to the O(m n^2) Gram rebuild and O(n^3) factorisation
  // they avoid.
  Matrix a_cached_, p_cached_;
  double sigma_cached_ = 0.0;
  double rho_cached_ = 0.0;
  bool factored_ = false;
  Vector x_, z_, y_;          ///< ADMM iterates
  Vector rhs_, t_, ax_, z_new_;
  Vector px_, aty_, dres_;    ///< dual-residual scratch
};

/// One-shot convenience wrapper around QpSolver (fresh workspace per
/// call); prefer a persistent QpSolver on hot paths.
QpResult solve_qp(const QpProblem& problem, const QpOptions& options = {});

}  // namespace otem::optim
