#include "sim/obs_sink.h"

namespace otem::sim {

// --- DiagnosticsSink ----------------------------------------------------

DiagnosticsSink::Instruments::Instruments(obs::MetricsRegistry& registry,
                                          const std::string& prefix)
    : steps(registry.counter(prefix + "sim.steps")),
      infeasible(registry.counter(prefix + "sim.infeasible_steps")),
      solves(registry.counter(prefix + "solver.solves")),
      fallbacks(registry.counter(prefix + "solver.fallbacks")),
      nonconverged(registry.counter(prefix + "solver.nonconverged")),
      rho_updates(registry.counter(prefix + "solver.qp_rho_updates")),
      warm_hits(registry.counter(prefix + "solver.qp_warm_hits")),
      kkt_refactorizations(
          registry.counter(prefix + "solver.kkt_refactorizations")),
      stage_block_ops(registry.counter(prefix + "solver.stage_block_ops")),
      qp_polish_hits(registry.counter(prefix + "solver.qp_polish_hits")),
      qp_polish_unsettled(
          registry.counter(prefix + "solver.qp_polish_unsettled")),
      qloss(registry.gauge(prefix + "sim.qloss_percent")),
      duration(registry.gauge(prefix + "sim.duration_s")),
      step_latency_us(registry.sketch(prefix + "sim.step_latency_us")),
      solve_latency_us(registry.sketch(prefix + "solver.latency_us")),
      iterations(registry.sketch(prefix + "solver.iterations")),
      qp_iterations(registry.sketch(prefix + "solver.qp_iterations")),
      qp_iterations_cold(
          registry.sketch(prefix + "solver.qp_iterations_cold")),
      primal_residual(registry.sketch(prefix + "solver.primal_residual")),
      dual_residual(registry.sketch(prefix + "solver.dual_residual")),
      constraint_violation(
          registry.sketch(prefix + "solver.constraint_violation")) {}

void DiagnosticsSink::begin(const RunContext& ctx) {
  dt_ = ctx.dt;
  local_ = Local{};
}

void DiagnosticsSink::record(const StepSample& sample) {
  // Scalars go into plain locals — the shared instruments are only
  // touched from end() and from the sketch records below.
  // qloss is cumulative, so the latest delivered sample (at worst the
  // final step, which is always eventful) carries the run total.
  local_.qloss_percent = sample.qloss_cum_percent;
  if (!sample.rec.feasible) ++local_.infeasible;
  if (sample.step_time_us > 0.0)
    instruments_.step_latency_us.record(sample.step_time_us);

  const core::SolveDiagnostics& s = sample.rec.solve;
  if (!s.present) return;
  ++local_.solves;
  if (s.fallback) ++local_.fallbacks;
  if (!s.converged) ++local_.nonconverged;
  local_.rho_updates += s.qp_rho_updates;
  local_.warm_hits += s.qp_warm_hits;
  local_.kkt_refactorizations += s.kkt_refactorizations;
  local_.stage_block_ops += s.stage_block_ops;
  local_.qp_polish_hits += s.qp_polish_hits;
  local_.qp_polish_unsettled += s.qp_polish_unsettled;
  instruments_.solve_latency_us.record(s.solve_time_us);
  // The two transcriptions report different inner-loop counts; record
  // whichever ran so the sketches stay per-solver-family.
  if (s.iterations)
    instruments_.iterations.record(static_cast<double>(s.iterations));
  if (s.qp_iterations) {
    instruments_.qp_iterations.record(static_cast<double>(s.qp_iterations));
    // The cold slice: fallback steps ran with no warm start, so the
    // gap between this sketch's mean and the overall mean is the
    // iteration saving the warm start buys.
    if (s.fallback)
      instruments_.qp_iterations_cold.record(
          static_cast<double>(s.qp_iterations));
  }
  if (s.primal_residual > 0.0)
    instruments_.primal_residual.record(s.primal_residual);
  if (s.dual_residual > 0.0)
    instruments_.dual_residual.record(s.dual_residual);
  if (s.constraint_violation > 0.0)
    instruments_.constraint_violation.record(s.constraint_violation);
}

void DiagnosticsSink::end(const core::PlantState&) {
  instruments_.steps.add(local_.steps);
  if (local_.infeasible) instruments_.infeasible.add(local_.infeasible);
  if (local_.solves) instruments_.solves.add(local_.solves);
  if (local_.fallbacks) instruments_.fallbacks.add(local_.fallbacks);
  if (local_.nonconverged)
    instruments_.nonconverged.add(local_.nonconverged);
  if (local_.rho_updates) instruments_.rho_updates.add(local_.rho_updates);
  if (local_.warm_hits) instruments_.warm_hits.add(local_.warm_hits);
  if (local_.kkt_refactorizations)
    instruments_.kkt_refactorizations.add(local_.kkt_refactorizations);
  if (local_.stage_block_ops)
    instruments_.stage_block_ops.add(local_.stage_block_ops);
  if (local_.qp_polish_hits)
    instruments_.qp_polish_hits.add(local_.qp_polish_hits);
  if (local_.qp_polish_unsettled)
    instruments_.qp_polish_unsettled.add(local_.qp_polish_unsettled);
  instruments_.qloss.set(local_.qloss_percent);
  instruments_.duration.set(static_cast<double>(local_.steps) * dt_);
}

// --- JsonlEventSink -----------------------------------------------------

JsonlEventSink::JsonlEventSink(const std::string& path, size_t every)
    : writer_(path), every_(every ? every : 1) {}

void JsonlEventSink::begin(const RunContext& ctx) {
  dt_ = ctx.dt;
  // Reset per-run state: a sink re-armed for a new run must not report
  // the previous run's final qloss if the new run ends before any
  // sample is recorded.
  qloss_final_ = 0.0;
  Json e = Json::object();
  e.set("event", "run_begin");
  e.set("schema", "otem.events.v2");
  e.set("steps", ctx.steps);
  e.set("dt_s", ctx.dt);
  e.set("t_battery0_k", ctx.initial.t_battery_k);
  e.set("t_coolant0_k", ctx.initial.t_coolant_k);
  e.set("soc0_percent", ctx.initial.soc_percent);
  e.set("soe0_percent", ctx.initial.soe_percent);
  writer_.write(e);
}

Json JsonlEventSink::step_event(const StepSample& sample, double dt) {
  const core::StepRecord& rec = sample.rec;
  Json e = Json::object();
  e.set("event", "step");
  e.set("k", sample.k);
  e.set("t_s", static_cast<double>(sample.k) * dt);
  e.set("p_load_w", rec.p_load_w);
  e.set("p_cooler_w", rec.p_cooler_w);
  e.set("p_cap_w", rec.e_cap_j / dt);
  e.set("tb_k", sample.state.t_battery_k);
  e.set("tc_k", sample.state.t_coolant_k);
  e.set("soc_percent", sample.state.soc_percent);
  e.set("soe_percent", sample.state.soe_percent);
  e.set("qloss_percent", sample.qloss_cum_percent);
  e.set("teb", sample.teb);
  e.set("feasible", rec.feasible);
  e.set("step_us", sample.step_time_us);
  const core::SolveDiagnostics& s = rec.solve;
  if (s.present) {
    Json solve = Json::object();
    solve.set("converged", s.converged);
    solve.set("fallback", s.fallback);
    solve.set("iterations", s.iterations);
    solve.set("sqp_rounds", s.sqp_rounds);
    solve.set("qp_iterations", s.qp_iterations);
    solve.set("qp_rho_updates", s.qp_rho_updates);
    solve.set("qp_warm_hits", s.qp_warm_hits);
    solve.set("kkt_refactorizations", s.kkt_refactorizations);
    // Banded KKT path only; 0 (and absent) on the dense/shooting paths.
    if (s.stage_block_ops) solve.set("stage_block_ops", s.stage_block_ops);
    if (s.qp_polish_hits) solve.set("qp_polish_hits", s.qp_polish_hits);
    if (s.qp_polish_unsettled)
      solve.set("qp_polish_unsettled", s.qp_polish_unsettled);
    solve.set("cost", s.cost);
    solve.set("constraint_violation", s.constraint_violation);
    solve.set("primal_residual", s.primal_residual);
    solve.set("dual_residual", s.dual_residual);
    solve.set("latency_us", s.solve_time_us);
    e.set("solve", std::move(solve));
  }
  return e;
}

void JsonlEventSink::record(const StepSample& sample) {
  qloss_final_ = sample.qloss_cum_percent;
  if (sample.k % every_ != 0) return;
  writer_.write(step_event(sample, dt_));
}

void JsonlEventSink::end(const core::PlantState& final_state) {
  Json e = Json::object();
  e.set("event", "run_end");
  e.set("qloss_percent", qloss_final_);
  e.set("tb_final_k", final_state.t_battery_k);
  e.set("soe_final_percent", final_state.soe_percent);
  writer_.write(e);
  writer_.close();
}

}  // namespace otem::sim
