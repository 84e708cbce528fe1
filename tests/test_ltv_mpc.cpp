// Tests for the LTV-QP controller path: the per-step linearisation
// against finite differences of the nonlinear rollout, closed-loop
// behaviour on par with the shooting controller, and bit pins on the
// closed loop's every output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "bit_hash.h"
#include "common/rng.h"
#include "core/otem/ltv_controller.h"
#include "core/otem/otem_controller.h"
#include "core/otem/otem_methodology.h"
#include "sim/simulator.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace otem::core {
namespace {

SystemSpec default_spec() { return SystemSpec::from_config(Config()); }

MpcOptions opts(size_t horizon) {
  MpcOptions o;
  o.horizon = horizon;
  return o;
}

// ---------------------------------------------------------------------------
// Linearisation accuracy: A_k and B_k from linearize() vs finite
// differences of the full nonlinear rollout.

class LinearizeSeed : public ::testing::TestWithParam<int> {};

TEST_P(LinearizeSeed, JacobiansMatchFiniteDifferences) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const size_t horizon = 6;
  MpcProblem prob(default_spec(), opts(horizon));

  PlantState x0;
  x0.t_battery_k = rng.uniform(295.0, 310.0);
  x0.t_coolant_k = x0.t_battery_k - rng.uniform(0.0, 3.0);
  x0.soc_percent = rng.uniform(50.0, 90.0);
  x0.soe_percent = rng.uniform(35.0, 90.0);
  std::vector<double> load(horizon);
  for (auto& p : load) p = rng.uniform(0.0, 40000.0);
  prob.set_window(x0, load);

  optim::Vector z(prob.dim());
  for (auto& v : z) v = rng.uniform(0.55, 0.8);  // clear of the u=0 kink
  optim::Vector c(prob.num_constraints());
  prob.evaluate(z, c);
  const auto jac = prob.linearize();
  ASSERT_EQ(jac.size(), horizon);

  // Finite-difference check of B_0 (control at step 0 -> state at 1):
  // perturb z[0] and z[1], compare predicted state change.
  auto states_for = [&](const optim::Vector& zz) {
    optim::Vector cc(prob.num_constraints());
    prob.evaluate(zz, cc);
    return prob.predicted_states();
  };

  const auto base = states_for(z);
  for (int var = 0; var < 2; ++var) {
    // Normalised step -> physical control step.
    const double dz = 1e-5;
    const double du = var == 0
                          ? dz * 2.0 * default_spec().ultracap.max_power_w
                          : dz * default_spec().thermal.max_cooler_power_w;
    optim::Vector zp = z;
    zp[var] += dz;
    const auto pert = states_for(zp);
    const double fd[4] = {
        (pert[1].t_battery_k - base[1].t_battery_k) / du,
        (pert[1].t_coolant_k - base[1].t_coolant_k) / du,
        (pert[1].soc_percent - base[1].soc_percent) / du,
        (pert[1].soe_percent - base[1].soe_percent) / du};
    for (int r = 0; r < 4; ++r) {
      EXPECT_NEAR(jac[0].b[r][var], fd[r],
                  std::abs(fd[r]) * 1e-3 + 1e-10)
          << "row " << r << " var " << var;
    }
  }

  // Finite-difference check of A_0 via the initial state: perturb x0
  // component-wise and compare state-1 changes.
  const double dx[4] = {1e-4, 1e-4, 1e-4, 1e-4};
  for (int m = 0; m < 4; ++m) {
    PlantState xp = x0;
    switch (m) {
      case 0: xp.t_battery_k += dx[m]; break;
      case 1: xp.t_coolant_k += dx[m]; break;
      case 2: xp.soc_percent += dx[m]; break;
      case 3: xp.soe_percent += dx[m]; break;
    }
    prob.set_window(xp, load);
    const auto pert = states_for(z);
    const double fd[4] = {
        (pert[1].t_battery_k - base[1].t_battery_k) / dx[m],
        (pert[1].t_coolant_k - base[1].t_coolant_k) / dx[m],
        (pert[1].soc_percent - base[1].soc_percent) / dx[m],
        (pert[1].soe_percent - base[1].soe_percent) / dx[m]};
    prob.set_window(x0, load);  // restore
    prob.evaluate(z, c);
    for (int r = 0; r < 4; ++r) {
      EXPECT_NEAR(jac[0].a[r][m], fd[r], std::abs(fd[r]) * 2e-3 + 1e-8)
          << "row " << r << " state " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearizeSeed, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Controller behaviour.

TEST(LtvController, ProducesBoundedControls) {
  const SystemSpec spec = default_spec();
  LtvOtemController ctrl(spec, opts(15));
  PlantState x;
  const auto u = ctrl.solve(x, std::vector<double>(15, 25000.0));
  EXPECT_LE(std::abs(u.p_cap_bus_w), spec.ultracap.max_power_w + 1e-6);
  EXPECT_GE(u.p_cooler_w, -1e-9);
  EXPECT_LE(u.p_cooler_w, spec.thermal.max_cooler_power_w + 1e-6);
  EXPECT_TRUE(ctrl.last_solve().qp_converged);
}

TEST(LtvController, HotBatteryTriggersCooling) {
  const SystemSpec spec = default_spec();
  LtvOtemController ctrl(spec, opts(20));
  PlantState hot;
  hot.t_battery_k = spec.thermal.max_battery_temp_k + 1.0;
  hot.t_coolant_k = hot.t_battery_k - 2.0;
  const auto u = ctrl.solve(hot, std::vector<double>(20, 25000.0));
  EXPECT_GT(u.p_cooler_w, 0.2 * spec.thermal.max_cooler_power_w);
}

TEST(LtvController, UsesBankForLargeLoad) {
  const SystemSpec spec = default_spec();
  LtvOtemController ctrl(spec, opts(15));
  PlantState x;
  const auto u = ctrl.solve(x, std::vector<double>(15, 60000.0));
  EXPECT_GT(u.p_cap_bus_w, 1000.0);
}

TEST(LtvController, DeterministicAcrossInstances) {
  PlantState x;
  x.t_battery_k = 303.0;
  const std::vector<double> load(15, 30000.0);
  LtvOtemController a(default_spec(), opts(15));
  LtvOtemController b(default_spec(), opts(15));
  const auto ua = a.solve(x, load);
  const auto ub = b.solve(x, load);
  EXPECT_DOUBLE_EQ(ua.p_cap_bus_w, ub.p_cap_bus_w);
  EXPECT_DOUBLE_EQ(ua.p_cooler_w, ub.p_cooler_w);
}

TEST(LtvController, ClosedLoopComparableToShooting) {
  // On a moderate mission the two transcriptions should land in the
  // same neighbourhood: within 25 % on energy and both within the
  // thermal band.
  const SystemSpec spec = default_spec();
  const sim::Simulator sim(spec);
  const TimeSeries load(1.0, std::vector<double>(400, 28000.0));

  OtemMethodology shooting(spec, opts(15));
  OtemMethodology ltv(spec,
                      std::make_unique<LtvOtemController>(spec, opts(15)));
  const sim::RunResult rs = sim.run(shooting, load);
  const sim::RunResult rl = sim.run(ltv, load);

  EXPECT_LT(rl.max_t_battery_k, spec.thermal.max_battery_temp_k + 1.0);
  EXPECT_NEAR(rl.energy_hees_j, rs.energy_hees_j,
              0.25 * rs.energy_hees_j);
  EXPECT_LT(rl.qloss_percent, rs.qloss_percent * 2.5 + 1e-5);
}

TEST(LtvController, WarmStartNeverIncreasesIterationsOnRecedingHorizon) {
  // Two controllers walk the same receding-horizon sequence — identical
  // states and sliding load windows — one with ADMM warm starts, one
  // without. The warm controller must never pay more total ADMM
  // iterations on a step and must win overall, without changing the
  // controls beyond QP tolerance.
  const SystemSpec spec = default_spec();
  const size_t horizon = 12;
  LtvOptions cold_opt;
  cold_opt.warm_start = false;
  LtvOtemController warm_ctrl(spec, opts(horizon));
  LtvOtemController cold_ctrl(spec, opts(horizon), cold_opt);

  Rng rng(5);
  std::vector<double> load(horizon + 40);
  for (auto& p : load) p = rng.uniform(5000.0, 45000.0);

  PlantState x;
  x.t_battery_k = 302.0;
  x.t_coolant_k = 300.0;
  size_t warm_total = 0, cold_total = 0;
  for (size_t step = 0; step + horizon <= load.size(); ++step) {
    const std::vector<double> window(load.begin() + step,
                                     load.begin() + step + horizon);
    const auto uw = warm_ctrl.solve(x, window);
    const auto uc = cold_ctrl.solve(x, window);
    ASSERT_LE(warm_ctrl.last_solve().qp_iterations,
              cold_ctrl.last_solve().qp_iterations)
        << "step " << step;
    warm_total += warm_ctrl.last_solve().qp_iterations;
    cold_total += cold_ctrl.last_solve().qp_iterations;
    // Same problem to QP tolerance: controls agree loosely. The bound
    // is wide because each controller warm-starts its SQP from its OWN
    // incumbent plan, so per-round tolerance drift compounds over the
    // sequence — this catches gross divergence, not ulp noise.
    EXPECT_NEAR(uw.p_cap_bus_w, uc.p_cap_bus_w,
                0.1 * spec.ultracap.max_power_w + 1.0)
        << "step " << step;
    // Drift the state a little so every window is a fresh problem (but
    // both controllers see the same state).
    x.t_battery_k += rng.uniform(-0.05, 0.05);
    x.soc_percent = std::min(100.0, std::max(20.0, x.soc_percent - 0.01));
  }
  EXPECT_LT(warm_total, cold_total);
  EXPECT_GT(warm_ctrl.last_solve().qp_warm_hits, 0u);
  EXPECT_EQ(cold_ctrl.last_solve().qp_warm_hits, 0u);
}

TEST(LtvController, ResetColdStartsAndReportsFallback) {
  const SystemSpec spec = default_spec();
  LtvOtemController ctrl(spec, opts(10));
  const std::vector<double> load(10, 25000.0);
  PlantState x;
  (void)ctrl.solve(x, load);
  EXPECT_TRUE(ctrl.last_solve().fallback);  // first-ever solve is cold
  (void)ctrl.solve(x, load);
  EXPECT_FALSE(ctrl.last_solve().fallback);
  EXPECT_GT(ctrl.last_solve().qp_warm_hits, 0u);
  ctrl.reset();
  (void)ctrl.solve(x, load);
  EXPECT_TRUE(ctrl.last_solve().fallback);  // reset() drops the iterates
}

TEST(LtvController, SoeFloorRespectedInClosedLoop) {
  const SystemSpec spec = default_spec();
  const sim::Simulator sim(spec);
  OtemMethodology ltv(spec,
                      std::make_unique<LtvOtemController>(spec, opts(15)));
  const TimeSeries load(1.0, std::vector<double>(500, 45000.0));
  const sim::RunResult r = sim.run(ltv, load);
  EXPECT_GT(r.trace.soe_percent.min(), 15.0);
}

// ---------------------------------------------------------------------------
// Bit pins. Closed-loop otem-ltv results move with one ulp of one QP
// answer (docs/PERFORMANCE.md §5), so solver speed-ups must keep every
// output bit. These runs hash everything the closed loop sees of the
// controller and compare it with a constant recorded once. The
// constants are the x86-64 baseline build's values (SSE2 doubles, no
// FMA contraction); a -march=native build on an FMA machine computes
// other bits. Re-record them only in a change that means to move the
// solver's answers.

/// Wraps the controller under test, hashing every decision and every
/// SolveDiagnostics field, and tallies the solver paths the run took.
class HashingLtvController final : public ControllerIface {
 public:
  HashingLtvController(const SystemSpec& spec, const LtvOptions& options)
      : inner_(spec, MpcOptions{}, options) {}

  void reset() override { inner_.reset(); }
  size_t horizon() const override { return inner_.horizon(); }
  SolveDiagnostics diagnostics() const override {
    return inner_.diagnostics();
  }

  MpcProblem::Controls solve(const PlantState& state,
                             const std::vector<double>& window) override {
    const MpcProblem::Controls u = inner_.solve(state, window);
    const SolveDiagnostics d = inner_.diagnostics();
    hash.add(u.p_cap_bus_w);
    hash.add(u.p_cooler_w);
    hash.add_flag(d.present);
    hash.add_flag(d.converged);
    hash.add_flag(d.fallback);
    hash.add_count(d.iterations);
    hash.add_count(d.sqp_rounds);
    hash.add_count(d.qp_iterations);
    hash.add_count(d.qp_rho_updates);
    hash.add_count(d.qp_warm_hits);
    hash.add_count(d.kkt_refactorizations);
    hash.add_count(d.stage_block_ops);
    hash.add_count(d.qp_polish_hits);
    hash.add_count(d.qp_polish_unsettled);
    hash.add(d.cost);
    hash.add(d.constraint_violation);
    hash.add(d.primal_residual);
    hash.add(d.dual_residual);
    // solve_time_us is wall clock, stamped by the caller: not hashed.
    rho_updates += d.qp_rho_updates;
    unsettled += d.qp_polish_unsettled;
    // With one QP round per step a converged round whose polish was not
    // accepted is exactly a rejected polish.
    if (d.sqp_rounds == 1 && d.converged && d.qp_polish_hits == 0)
      ++rejected;
    return u;
  }

  /// Fold in the last QP round's terminal iterates.
  void hash_last_iterates() {
    const optim::QpWarmStart& w = inner_.last_qp_iterates();
    hash.add(w.x);
    hash.add(w.y);
    hash.add(w.rho);
  }

  test::BitHash hash;
  size_t rho_updates = 0, unsettled = 0, rejected = 0;

 private:
  LtvOtemController inner_;
};

/// The first `seconds` of NYCC, closed loop through OtemMethodology,
/// which keeps the hashing controller alive for the caller to read.
struct NyccPrefixRun {
  std::unique_ptr<OtemMethodology> methodology;
  HashingLtvController* ctrl = nullptr;
};

NyccPrefixRun run_nycc_prefix(const LtvOptions& options, size_t seconds) {
  const SystemSpec spec = default_spec();
  const TimeSeries full = vehicle::Powertrain(spec.vehicle)
                              .power_trace(vehicle::generate(
                                  vehicle::CycleName::kNycc));
  const TimeSeries load(
      full.dt(), std::vector<double>(full.values().begin(),
                                     full.values().begin() +
                                         static_cast<long>(seconds)));
  NyccPrefixRun run;
  auto ctrl = std::make_unique<HashingLtvController>(spec, options);
  run.ctrl = ctrl.get();
  run.methodology = std::make_unique<OtemMethodology>(spec, std::move(ctrl));
  (void)sim::Simulator(spec).run(*run.methodology, load);
  run.ctrl->hash_last_iterates();
  return run;
}

TEST(LtvBitPin, NyccPrefixAtTheShippedPoint) {
  const NyccPrefixRun run = run_nycc_prefix(LtvOptions{}, 150);
  // The run covers the paths the QP's stage sweeps restructure.
  EXPECT_GT(run.ctrl->rho_updates, 0u);
  EXPECT_GT(run.ctrl->unsettled, 0u);
  EXPECT_EQ(run.ctrl->hash.value(), 0x4a4d9f714aef6277ull)
      << std::hex << "0x" << run.ctrl->hash.value();
}

TEST(LtvBitPin, NyccPrefixAtTheRtiPoint) {
  LtvOptions rti;  // ltv.sqp_iterations=1 ltv.qp.eps=0.2
  rti.sqp_iterations = 1;
  rti.qp.eps_abs = 0.2;
  rti.qp.eps_rel = 0.2;
  const NyccPrefixRun run = run_nycc_prefix(rti, 150);
  EXPECT_GT(run.ctrl->rho_updates, 0u);
  EXPECT_GT(run.ctrl->unsettled, 0u);
  EXPECT_GT(run.ctrl->rejected, 0u);
  EXPECT_EQ(run.ctrl->hash.value(), 0xeccc292ddd4c2480ull)
      << std::hex << "0x" << run.ctrl->hash.value();
}

}  // namespace
}  // namespace otem::core
