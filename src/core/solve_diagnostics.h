// solve_diagnostics.h — what the MPC solver did this step.
//
// Controllers fill one of these per solve; OtemMethodology stamps it
// (plus wall-clock) onto the StepRecord, so every step's solver
// behaviour flows through the same telemetry pipeline as the plant
// physics — sim::DiagnosticsSink turns the stream into distributions,
// sim::JsonlEventSink writes it to disk. Baseline methodologies leave
// `present == false` (they run no solver).
#pragma once

#include <cstddef>

namespace otem::core {

struct SolveDiagnostics {
  bool present = false;      ///< a solver ran this step
  bool converged = true;
  bool fallback = false;     ///< cold start: no usable warm start

  size_t iterations = 0;     ///< NLP inner iterations (shooting path)
  size_t sqp_rounds = 0;     ///< linearise-solve-apply rounds (LTV path)
  size_t qp_iterations = 0;  ///< ADMM iterations, summed over rounds
  size_t qp_rho_updates = 0; ///< adaptive-rho rebalances, summed
  size_t qp_warm_hits = 0;   ///< QP rounds seeded from a warm start
  size_t kkt_refactorizations = 0;  ///< Cholesky factorisations paid
  /// Fixed-size stage-block kernel applications, summed over rounds
  /// (banded KKT path; 0 when the dense path or shooting solver ran).
  size_t stage_block_ops = 0;
  /// QP rounds whose active-set polish was accepted (banded KKT path
  /// with QpOptions::polish; see QpResult::polished).
  size_t qp_polish_hits = 0;
  /// QP rounds whose polish working set did not settle within
  /// kLtvPolishRounds (see QpResult::polish_unsettled); such a round
  /// may still count as a polish hit.
  size_t qp_polish_unsettled = 0;

  double cost = 0.0;                  ///< objective at the accepted point
  double constraint_violation = 0.0;  ///< max_i c_i (shooting path)
  double primal_residual = 0.0;       ///< last QP solve (LTV path)
  double dual_residual = 0.0;
  double solve_time_us = 0.0;         ///< wall clock of the whole solve
};

}  // namespace otem::core
