// ltv_controller.h — linear-time-varying SQP transcription of the OTEM
// problem (the alternative to the shooting/augmented-Lagrangian path).
//
// Per solve:
//   1. roll the nonlinear model out along the incumbent plan (the
//      shifted previous solution),
//   2. linearise the dynamics around that trajectory
//      (MpcProblem::linearize()) and take the exact cost gradient
//      (MpcProblem::gradient with zero constraint weights),
//   3. build a dense convex QP in the control CORRECTION du:
//      a trust-region-regularised linear cost subject to the
//      linearised constraints C1/C4/C5/C6 and the C2/C3/C7 boxes,
//   4. solve with the ADMM QP solver, apply the correction, repeat.
//
// Versus the shooting path it trades global-ish exploration (Adam) for
// crisp constraint handling near a good incumbent. bench/ablation_solver
// compares quality and per-step cost of both.
#pragma once

#include "core/otem/controller_iface.h"
#include "optim/ltv_qp.h"
#include "optim/qp.h"

namespace otem::core {

struct LtvOptions {
  /// Linearise-solve-apply rounds per control step.
  size_t sqp_iterations = 3;

  /// Trust region: per-coordinate |du| cap per round [W].
  double trust_region_w = 15000.0;

  /// Quadratic regularisation floor (cost per W^2) — keeps the QP
  /// strictly convex where the linear cost is flat.
  double regularisation_floor = 1e-6;

  /// Warm-start the ADMM QP with the previous round's / control step's
  /// terminal iterates (shifted one period across steps, like the
  /// incumbent plan). Cold-starts after reset() or on a shape change.
  /// Off reverts to a from-zero solve every round — the A/B switch
  /// bench/perf_solver's BM_LtvControlStep measures.
  bool warm_start = true;

  optim::QpOptions qp;

  LtvOptions() {
    // Stage-structured banded KKT by default: the QP is block-banded by
    // construction and the structured solve is O(H) per iteration
    // instead of O(H^2) matvecs on O(H^3)-factorised dense KKT. Set to
    // kDense to fall back to the condensed oracle path.
    qp.kkt_mode = optim::KktSolveMode::kBanded;
    // The structured solver walks rho up ~4 decades before the stage
    // problems balance. The default rebalance cadence (every 100
    // iterations) is deliberate: a faster cadence lets a warm dual seed
    // (whose early dual residual is misleadingly tiny) slam rho past
    // its equilibrium, where ADMM oscillates and never meets tolerance.
    // The per-update step cap in LtvQpSolver bounds each move too.
    qp.max_iterations = 4000;
    // The QP is assembled in trust-region-normalised variables
    // (|du| <= 1). ADMM itself runs at a deliberately loose tolerance
    // and the polish pass supplies the accuracy: the converged-at-1e-2
    // iterate only has to identify the active set well enough for the
    // polish refinement to settle. When it settles the solution is
    // active-set-exact, and warm and cold solves agree to machine
    // precision, where the raw loose-eps iterates would drift by tens
    // of kW between re-linearisations. About 84 % of rounds settle at
    // these defaults and 81 % at the RTI point (docs/PERFORMANCE.md
    // §5); the rest agree only to ADMM tolerance
    // (solver.qp_polish_unsettled counts them). (Without polish this
    // path needs eps ~3e-5 for comparable solution quality, at ~4x the
    // iterations.)
    qp.eps_abs = 1e-2;
    qp.eps_rel = 1e-2;
    qp.polish = true;
    // P's diagonal is |g_u| T-scaled and drifts by ~1e-6 between
    // converged SQP rounds; tolerate that drift before paying a
    // refactorisation (termination still tests the exact data).
    qp.kkt_refactor_tol = 1e-8;
  }
};

class LtvOtemController final : public ControllerIface {
 public:
  LtvOtemController(const SystemSpec& spec, MpcOptions mpc_options,
                    LtvOptions options = {});

  void reset() override;
  MpcProblem::Controls solve(
      const PlantState& state,
      const std::vector<double>& p_e_window) override;
  size_t horizon() const override { return problem_.options().horizon; }

  /// Diagnostics of the most recent solve.
  struct SolveInfo {
    double cost = 0.0;
    size_t qp_iterations = 0;   ///< ADMM iterations, summed over rounds
    bool qp_converged = false;  ///< last round's QP converged
    size_t sqp_rounds = 0;
    size_t qp_rho_updates = 0;  ///< adaptive-rho rebalances, summed
    size_t qp_warm_hits = 0;    ///< QP rounds seeded from a warm start
    size_t kkt_refactorizations = 0;  ///< Cholesky factorisations paid
    /// Fixed-size stage-block kernel applications, summed over rounds
    /// (banded KKT path only; 0 on the dense path).
    size_t stage_block_ops = 0;
    size_t qp_polish_hits = 0;  ///< rounds whose polish was accepted
    size_t qp_polish_unsettled = 0;  ///< rounds whose polish never settled
    double primal_residual = 0.0;  ///< last round's QP
    double dual_residual = 0.0;
    bool fallback = false;      ///< cold start (no usable warm start)
  };
  const SolveInfo& last_solve() const { return info_; }

  SolveDiagnostics diagnostics() const override;

  /// Terminal QP iterates of the most recent round: what the next round
  /// (or, shifted, the next step) warm-starts from. Empty when
  /// LtvOptions::warm_start is off.
  const optim::QpWarmStart& last_qp_iterates() const { return qp_warm_; }

 private:
  MpcProblem problem_;
  LtvOptions options_;

  // Bounds of the physical control variables.
  double cap_power_max_;
  double pc_max_;
  double max_battery_power_w_;
  double t_max_k_;
  double t_min_k_;

  optim::Vector warm_z_;
  bool have_warm_ = false;
  // Terminal ADMM iterates of the most recent QP round, threaded into
  // the next round (same alignment) and the next control step (shifted
  // one period, see shift_qp_warm_start()).
  optim::QpWarmStart qp_warm_;
  bool have_qp_warm_ = false;
  SolveInfo info_;

  void shift_qp_warm_start(size_t n, size_t nu, size_t rows);
  void shift_banded_warm_start(size_t n);
  void assemble_banded_qp(const std::vector<MpcProblem::StepJacobian>& jac);

  // Persistent solver + per-solve workspace: the controller runs every
  // simulated second, so the QP matrices, sensitivity stack and scratch
  // vectors are sized once and reused across steps. The one steady-state
  // heap traffic left is the QpResult x / y copies each QP round returns.
  optim::QpSolver qp_solver_;
  optim::QpProblem qp_;
  // Banded-path twins of the above: stage-wise transcription of the
  // SAME constraint set (see assemble_banded_qp()), solved by the
  // block-tridiagonal O(H) solver.
  optim::LtvQpSolver ltv_solver_;
  optim::LtvQpProblem ltv_qp_;
  std::vector<optim::Matrix> sens_;  ///< control-to-state sensitivities
  optim::Matrix a_step_;             ///< 4x4 dynamics Jacobian of one step
  optim::Vector z_;  ///< the incumbent plan being refined this step
  optim::Vector c_, g_z_, u_, g_u_, w0_;
  optim::Vector state_scale_;        ///< w-variable scales, 4 x (H+1)
  optim::Vector box_lo_, box_hi_;    ///< normalised control boxes (nu)
};

}  // namespace otem::core
