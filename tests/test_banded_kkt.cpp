// Tests for the banded KKT path: fixed-size SmallMat kernels against
// the runtime-sized Matrix oracles (and, bitwise, against the plain
// loops whose operation order they promise), the block-tridiagonal
// Cholesky against the dense factorisation and its partial refactor
// against a full one, the structured LtvQpSolver against
// the dense QpSolver on randomised stage problems (via
// ltv_qp_to_dense), bit pins on warm-started solve sequences, and the
// controller-level dense-vs-banded agreement on receding-horizon
// sequences.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "bit_hash.h"
#include "common/rng.h"
#include "core/otem/ltv_controller.h"
#include "optim/block_tridiag.h"
#include "optim/decomposition.h"
#include "optim/ltv_qp.h"
#include "optim/matrix.h"
#include "optim/qp.h"
#include "optim/small_mat.h"

namespace otem::optim {
namespace {

template <size_t R, size_t C>
SmallMat<R, C> random_small(Rng& rng, double lo = -1.0, double hi = 1.0) {
  SmallMat<R, C> s;
  for (size_t r = 0; r < R; ++r)
    for (size_t c = 0; c < C; ++c) s.m[r][c] = rng.uniform(lo, hi);
  return s;
}

template <size_t R, size_t C>
Matrix to_matrix(const SmallMat<R, C>& s) {
  Matrix m(R, C);
  for (size_t r = 0; r < R; ++r)
    for (size_t c = 0; c < C; ++c) m(r, c) = s.m[r][c];
  return m;
}

// Bitwise equality: the banded kernels and the partial refactor promise
// the exact bits of their reference, not the same value to rounding.
template <size_t R, size_t C>
bool same_bits(const SmallMat<R, C>& a, const SmallMat<R, C>& b) {
  return std::memcmp(a.m, b.m, sizeof(a.m)) == 0;
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------------------
// SmallMat kernels vs the runtime-sized Matrix oracle.

TEST(SmallMatKernels, MultiplyAddMatchesMatrix) {
  Rng rng(1);
  const auto a = random_small<4, 2>(rng);
  const auto b = random_small<2, 6>(rng);
  SmallMat<4, 6> out = {};
  multiply_add(a, b, out);
  Matrix oracle(4, 6);
  to_matrix(a).multiply_into(to_matrix(b), oracle);
  for (size_t r = 0; r < 4; ++r)
    for (size_t c = 0; c < 6; ++c)
      EXPECT_NEAR(out.m[r][c], oracle(r, c), 1e-14);
}

TEST(SmallMatKernels, TransposeMultiplyAddMatchesMatrix) {
  Rng rng(2);
  const auto a = random_small<4, 2>(rng);
  const auto b = random_small<4, 4>(rng);
  SmallMat<2, 4> out = {};
  const double alpha = 3.25;
  transpose_multiply_add(a, b, alpha, out);
  const Matrix am = to_matrix(a);
  const Matrix bm = to_matrix(b);
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 4; ++c) {
      double want = 0.0;
      for (size_t k = 0; k < 4; ++k) want += alpha * am(k, r) * bm(k, c);
      EXPECT_NEAR(out.m[r][c], want, 1e-14);
    }
}

TEST(SmallMatKernels, CholeskySolveMatchesDense) {
  Rng rng(3);
  // SPD via G G^T + diagonal shift.
  const auto g = random_small<6, 6>(rng);
  SmallMat<6, 6> spd = {};
  for (size_t i = 0; i < 6; ++i)
    for (size_t j = 0; j < 6; ++j) {
      double s = i == j ? 6.0 : 0.0;
      for (size_t k = 0; k < 6; ++k) s += g.m[i][k] * g.m[j][k];
      spd.m[i][j] = s;
    }
  const Matrix dense = to_matrix(spd);
  Vector b(6);
  for (auto& v : b) v = rng.uniform(-2.0, 2.0);

  SmallMat<6, 6> fac = spd;
  cholesky_factor(fac);
  Vector x = b;
  forward_subst(fac, x.data());
  backward_subst(fac, x.data());

  const Vector oracle = Cholesky(dense).solve(b);
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], oracle[i], 1e-10);
}

template <size_t R, size_t N>
void expect_trsm_matches_reference(Rng& rng) {
  for (int trial = 0; trial < 20; ++trial) {
    auto l = random_small<N, N>(rng);
    for (size_t i = 0; i < N; ++i) l.m[i][i] = rng.uniform(0.5, 2.0);
    const auto b = random_small<R, N>(rng, -3.0, 3.0);
    // Reference: one plain forward substitution per row, in turn.
    SmallMat<R, N> want = b;
    for (size_t r = 0; r < R; ++r)
      for (size_t i = 0; i < N; ++i) {
        double s = want.m[r][i];
        for (size_t k = 0; k < i; ++k) s -= l.m[i][k] * want.m[r][k];
        want.m[r][i] = s / l.m[i][i];
      }
    SmallMat<R, N> got = b;
    trsm_right_lower_transpose(l, got);
    EXPECT_TRUE(same_bits(got, want)) << R << "x" << N << " trial " << trial;
  }
}

TEST(SmallMatKernels, TrsmMatchesReferenceLoopBitwise) {
  Rng rng(4);
  expect_trsm_matches_reference<6, 6>(rng);
  expect_trsm_matches_reference<4, 6>(rng);
  expect_trsm_matches_reference<2, 3>(rng);
}

template <size_t R, size_t K>
void expect_syrk_matches_reference(Rng& rng) {
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = random_small<R, K>(rng);
    const auto d = random_small<R, R>(rng, -3.0, 3.0);
    // Reference: the lower triangle downdated by plain dot products;
    // the strict upper triangle is left as it was.
    SmallMat<R, R> want = d;
    for (size_t i = 0; i < R; ++i)
      for (size_t j = 0; j <= i; ++j) {
        double s = 0.0;
        for (size_t k = 0; k < K; ++k) s += x.m[i][k] * x.m[j][k];
        want.m[i][j] -= s;
      }
    SmallMat<R, R> got = d;
    syrk_sub(got, x);
    EXPECT_TRUE(same_bits(got, want)) << R << "x" << K << " trial " << trial;
  }
}

TEST(SmallMatKernels, SyrkSubMatchesReferenceLoopBitwise) {
  Rng rng(5);
  expect_syrk_matches_reference<6, 6>(rng);
  expect_syrk_matches_reference<4, 2>(rng);
}

TEST(SmallMatKernels, CholeskyThrowsOnIndefiniteBlock) {
  SmallMat<2, 2> bad = {};
  bad.m[0][0] = 1.0;
  bad.m[0][1] = bad.m[1][0] = 4.0;
  bad.m[1][1] = 1.0;  // eigenvalues 5, -3
  EXPECT_THROW(cholesky_factor(bad), SimError);
}

// ---------------------------------------------------------------------------
// Block-tridiagonal Cholesky vs the dense factorisation.

class BlockTridiagSeed : public ::testing::TestWithParam<int> {};

TEST_P(BlockTridiagSeed, SolveMatchesDenseCholesky) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const size_t h = 3 + static_cast<size_t>(GetParam()) % 5;
  constexpr size_t N = 6;

  // Build K = L L^T from a random block lower-bidiagonal L with a
  // dominant diagonal, so K is SPD block-tridiagonal by construction.
  std::vector<SmallMat<N, N>> ldiag(h), lsub(h - 1);
  for (size_t k = 0; k < h; ++k) {
    ldiag[k] = random_small<N, N>(rng, -0.5, 0.5);
    for (size_t i = 0; i < N; ++i) {
      for (size_t j = i + 1; j < N; ++j) ldiag[k].m[i][j] = 0.0;
      ldiag[k].m[i][i] = rng.uniform(1.0, 2.0);
    }
    if (k + 1 < h) lsub[k] = random_small<N, N>(rng, -0.5, 0.5);
  }
  std::vector<SmallMat<N, N>> diag(h), sub(h - 1);
  Matrix dense(h * N, h * N);
  auto fill = [&](size_t bi, size_t bj, const SmallMat<N, N>& blk) {
    for (size_t i = 0; i < N; ++i)
      for (size_t j = 0; j < N; ++j) dense(bi * N + i, bj * N + j) = blk.m[i][j];
  };
  for (size_t k = 0; k < h; ++k) {
    // Blockwise K = L L^T: D_k = Ld_k Ld_k^T + Ls_{k-1} Ls_{k-1}^T and
    // S_{k+1} = Ls_k Ld_k^T.
    SmallMat<N, N> d = {};
    for (size_t i = 0; i < N; ++i)
      for (size_t j = 0; j < N; ++j) {
        double s = 0.0;
        for (size_t c = 0; c < N; ++c) s += ldiag[k].m[i][c] * ldiag[k].m[j][c];
        if (k > 0)
          for (size_t c = 0; c < N; ++c)
            s += lsub[k - 1].m[i][c] * lsub[k - 1].m[j][c];
        d.m[i][j] = s;
      }
    diag[k] = d;
    fill(k, k, d);
    if (k + 1 < h) {
      SmallMat<N, N> s3 = {};
      for (size_t i = 0; i < N; ++i)
        for (size_t j = 0; j < N; ++j) {
          double acc = 0.0;
          for (size_t c = 0; c < N; ++c) acc += lsub[k].m[i][c] * ldiag[k].m[j][c];
          s3.m[i][j] = acc;
        }
      sub[k] = s3;
      fill(k + 1, k, s3);
      for (size_t i = 0; i < N; ++i)
        for (size_t j = 0; j < N; ++j)
          dense(k * N + i, (k + 1) * N + j) = s3.m[j][i];
    }
  }

  Vector b(h * N);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  BlockTridiagCholesky<N> chol;
  chol.factor(diag, sub);
  Vector x = b;
  chol.solve_in_place(x);

  const Vector oracle = Cholesky(dense).solve(b);
  for (size_t i = 0; i < h * N; ++i) EXPECT_NEAR(x[i], oracle[i], 1e-9);

  // The cost counter is exact: 1 + 3(h-1) factor ops, 4h - 2 solve ops.
  EXPECT_EQ(chol.block_ops(), (1 + 3 * (h - 1)) + (4 * h - 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockTridiagSeed, ::testing::Range(0, 6));

using Block6 = SmallMat<6, 6>;

struct TridiagBlocks {
  std::vector<Block6> diag, sub;
};

/// Blocks of K = L L^T for a block lower-bidiagonal L (diagonal blocks
/// `ld`, sub-diagonal blocks `ls`): D_k = Ld_k Ld_k^T + Ls_{k-1}
/// Ls_{k-1}^T and S_{k+1} = Ls_k Ld_k^T.
TridiagBlocks tridiag_from_factor(const std::vector<Block6>& ld,
                                  const std::vector<Block6>& ls) {
  const size_t h = ld.size();
  TridiagBlocks k;
  k.diag.assign(h, Block6{});
  k.sub.assign(h - 1, Block6{});
  for (size_t s = 0; s < h; ++s)
    for (size_t i = 0; i < 6; ++i)
      for (size_t j = 0; j < 6; ++j) {
        double d = 0.0;
        for (size_t c = 0; c < 6; ++c) d += ld[s].m[i][c] * ld[s].m[j][c];
        if (s > 0)
          for (size_t c = 0; c < 6; ++c)
            d += ls[s - 1].m[i][c] * ls[s - 1].m[j][c];
        k.diag[s].m[i][j] = d;
        if (s + 1 < h) {
          double o = 0.0;
          for (size_t c = 0; c < 6; ++c) o += ls[s].m[i][c] * ld[s].m[j][c];
          k.sub[s].m[i][j] = o;
        }
      }
  return k;
}

Block6 random_lower_block(Rng& rng) {
  Block6 b = random_small<6, 6>(rng, -0.5, 0.5);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = i + 1; j < 6; ++j) b.m[i][j] = 0.0;
    b.m[i][i] = rng.uniform(1.0, 2.0);
  }
  return b;
}

/// Factor `k` fresh with a full factorisation.
TridiagBlocks full_factor(const TridiagBlocks& k) {
  TridiagBlocks f = k;
  BlockTridiagCholesky<6> chol;
  chol.factor(f.diag, f.sub);
  return f;
}

/// Storage factored from `before`, then blocks >= first re-loaded from
/// `after` and refactored from `first` — what a polish round does.
TridiagBlocks partial_refactor(const TridiagBlocks& before,
                               const TridiagBlocks& after, size_t first,
                               size_t* ops = nullptr) {
  TridiagBlocks f = before;
  BlockTridiagCholesky<6> chol;
  chol.factor(f.diag, f.sub);
  for (size_t k = first; k < f.diag.size(); ++k) {
    f.diag[k] = after.diag[k];
    if (k < f.sub.size()) f.sub[k] = after.sub[k];
  }
  chol.reset_block_ops();
  chol.factor(f.diag, f.sub, first);
  if (ops) *ops = chol.block_ops();
  return f;
}

bool same_bits(const TridiagBlocks& a, const TridiagBlocks& b) {
  if (a.diag.size() != b.diag.size() || a.sub.size() != b.sub.size())
    return false;
  for (size_t k = 0; k < a.diag.size(); ++k)
    if (!same_bits(a.diag[k], b.diag[k])) return false;
  for (size_t k = 0; k < a.sub.size(); ++k)
    if (!same_bits(a.sub[k], b.sub[k])) return false;
  return true;
}

TEST(BlockTridiagCholesky, PartialRefactorIsBitwiseTheFullRefactor) {
  const size_t h = 9;
  for (const size_t first : {size_t{0}, size_t{1}, h / 2, h - 1}) {
    Rng rng(40 + first);
    std::vector<Block6> ld(h), ls(h - 1);
    for (size_t k = 0; k < h; ++k) {
      ld[k] = random_lower_block(rng);
      if (k + 1 < h) ls[k] = random_small<6, 6>(rng, -0.5, 0.5);
    }
    const TridiagBlocks before = tridiag_from_factor(ld, ls);
    // New L blocks from stage `first` on: D_k (k < first) and
    // S_first = sub[first - 1] keep their values, D_first and every
    // later block change.
    for (size_t k = first; k < h; ++k) {
      ld[k] = random_lower_block(rng);
      if (k + 1 < h) ls[k] = random_small<6, 6>(rng, -0.5, 0.5);
    }
    const TridiagBlocks after = tridiag_from_factor(ld, ls);

    size_t ops = 0;
    const TridiagBlocks partial = partial_refactor(before, after, first, &ops);
    const TridiagBlocks full = full_factor(after);
    EXPECT_TRUE(same_bits(partial, full)) << "first " << first;
    // Exact cost: stage `first` pays syrk + chol (chol alone at 0), every
    // later stage trsm + syrk + chol.
    EXPECT_EQ(ops, first == 0 ? 1 + 3 * (h - 1) : 2 + 3 * (h - 1 - first))
        << "first " << first;
  }
}

TEST(BlockTridiagCholesky, PartialRefactorNeedsAPreviousFactor) {
  Rng rng(48);
  std::vector<Block6> ld(4), ls(3);
  for (size_t k = 0; k < 4; ++k) {
    ld[k] = random_lower_block(rng);
    if (k < 3) ls[k] = random_small<6, 6>(rng, -0.5, 0.5);
  }
  TridiagBlocks k = tridiag_from_factor(ld, ls);
  BlockTridiagCholesky<6> chol;
  EXPECT_THROW(chol.factor(k.diag, k.sub, 1), SimError);
  chol.factor(k.diag, k.sub);
  TridiagBlocks other = k;  // different storage
  EXPECT_THROW(chol.factor(other.diag, other.sub, 1), SimError);
}

TEST(BlockTridiagCholesky, InterleavedStageStepsAreBitwiseFactorAndSolve) {
  // A caller may run factor_stage(k) and forward_stage(k) back to back
  // (the polish round does), then the backward stages: the result is
  // bitwise factor() + solve_in_place(), block ops included.
  const size_t h = 7;
  Rng rng(49);
  std::vector<Block6> ld(h), ls(h - 1);
  for (size_t k = 0; k < h; ++k) {
    ld[k] = random_lower_block(rng);
    if (k + 1 < h) ls[k] = random_small<6, 6>(rng, -0.5, 0.5);
  }
  const TridiagBlocks kkt = tridiag_from_factor(ld, ls);
  Vector b(6 * h);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  TridiagBlocks whole = kkt;
  BlockTridiagCholesky<6> ref;
  ref.factor(whole.diag, whole.sub);
  Vector want = b;
  ref.solve_in_place(want);

  TridiagBlocks staged = kkt;
  BlockTridiagCholesky<6> chol;
  chol.begin_factor(staged.diag, staged.sub);
  Vector got = b;
  for (size_t k = 0; k < h; ++k) {
    EXPECT_FALSE(chol.factored());
    chol.factor_stage(k);
    chol.forward_stage(k, got.data());
  }
  ASSERT_TRUE(chol.factored());
  for (size_t k = h; k-- > 0;) chol.backward_stage(k, got.data());
  EXPECT_TRUE(same_bits(staged, whole));
  EXPECT_TRUE(same_bits(got, want));
  EXPECT_EQ(chol.block_ops(), ref.block_ops());
}

TEST(BlockTridiagCholesky, NonSpdStageThrowsAndLeavesNoFactor) {
  Rng rng(50);
  std::vector<Block6> ld(4), ls(3);
  for (size_t k = 0; k < 4; ++k) {
    ld[k] = random_lower_block(rng);
    if (k < 3) ls[k] = random_small<6, 6>(rng, -0.5, 0.5);
  }
  TridiagBlocks k = tridiag_from_factor(ld, ls);
  BlockTridiagCholesky<6> chol;
  chol.factor(k.diag, k.sub);
  ASSERT_TRUE(chol.factored());

  TridiagBlocks bad = tridiag_from_factor(ld, ls);
  bad.diag[2].m[3][3] = -1.0;  // stage 2 is not SPD
  EXPECT_THROW(chol.factor(bad.diag, bad.sub), SimError);
  EXPECT_FALSE(chol.factored());
  EXPECT_EQ(chol.stages(), 0u);
  Vector b(6 * 4, 1.0);
  EXPECT_THROW(chol.solve_in_place(b), SimError);
  // Nor does the failed factor count as a previous one to refactor from.
  EXPECT_THROW(chol.factor(bad.diag, bad.sub, 3), SimError);
  // Stages must come in order.
  chol.begin_factor(k.diag, k.sub);
  EXPECT_THROW(chol.factor_stage(1), SimError);
}

// ---------------------------------------------------------------------------
// Structured solver vs the dense oracle on randomised stage problems.

LtvQpProblem random_ltv_problem(Rng& rng, size_t horizon) {
  LtvQpProblem p;
  p.stages.resize(horizon);
  for (size_t k = 0; k < horizon; ++k) {
    LtvQpStage& s = p.stages[k];
    if (k > 0) s.aw = random_small<4, 4>(rng, -0.4, 0.4);
    s.bv = random_small<4, 2>(rng, -1.0, 1.0);
    for (size_t r = 0; r < 4; ++r) s.ew[r] = 1.0;
    for (size_t j = 0; j < 2; ++j) {
      s.v_lo[j] = -1.0;
      s.v_hi[j] = 1.0;
      s.p[j] = rng.uniform(0.5, 2.0);
      s.q[j] = rng.uniform(-1.5, 1.5);
      s.cv[j] = rng.uniform(-1.0, 1.0);
    }
    for (size_t r = 0; r < 4; ++r) {
      s.x_lo[r] = -4.0;
      s.x_hi[r] = 4.0;
      if (k > 0) s.cw[r] = rng.uniform(-0.3, 0.3);
    }
    s.b_lo = -3.0;
    s.b_hi = 3.0;
  }
  return p;
}

QpOptions tight_options() {
  QpOptions o;
  o.eps_abs = 1e-8;
  o.eps_rel = 1e-8;
  o.max_iterations = 200000;
  return o;
}

class LtvQpSeed : public ::testing::TestWithParam<int> {};

TEST_P(LtvQpSeed, BandedMatchesDenseOracle) {
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const size_t horizon = 4 + static_cast<size_t>(GetParam()) % 6;
  const LtvQpProblem p = random_ltv_problem(rng, horizon);

  LtvQpSolver banded;
  const QpResult rb = banded.solve(p, tight_options());
  ASSERT_TRUE(rb.converged);
  EXPECT_GT(rb.stage_block_ops, 0u);

  QpSolver dense;
  const QpResult rd = dense.solve(ltv_qp_to_dense(p), tight_options());
  ASSERT_TRUE(rd.converged);
  EXPECT_EQ(rd.stage_block_ops, 0u);

  ASSERT_EQ(rb.x.size(), rd.x.size());
  for (size_t i = 0; i < rb.x.size(); ++i)
    EXPECT_NEAR(rb.x[i], rd.x[i], 2e-5) << "variable " << i;
}

TEST_P(LtvQpSeed, WarmStartReconvergesToSameSolution) {
  Rng rng(static_cast<std::uint64_t>(200 + GetParam()));
  const LtvQpProblem p = random_ltv_problem(rng, 6);

  LtvQpSolver solver;
  const QpResult cold = solver.solve(p, tight_options());
  ASSERT_TRUE(cold.converged);

  QpWarmStart warm;
  warm.x = cold.x;
  warm.y = cold.y;
  warm.rho = cold.rho_final;
  const QpResult rewarm = solver.solve(p, tight_options(), warm);
  ASSERT_TRUE(rewarm.converged);
  EXPECT_TRUE(rewarm.warm_started);
  EXPECT_LE(rewarm.iterations, cold.iterations);
  for (size_t i = 0; i < cold.x.size(); ++i)
    EXPECT_NEAR(rewarm.x[i], cold.x[i], 1e-5);
}

TEST_P(LtvQpSeed, PolishSnapsLooseSolveToTightSolution) {
  Rng rng(static_cast<std::uint64_t>(300 + GetParam()));
  const size_t horizon = 4 + static_cast<size_t>(GetParam()) % 6;
  const LtvQpProblem p = random_ltv_problem(rng, horizon);

  // Oracle: the dense solver at tight tolerance.
  QpSolver dense;
  const QpResult oracle = dense.solve(ltv_qp_to_dense(p), tight_options());
  ASSERT_TRUE(oracle.converged);

  // Banded path at a 6-decades-looser tolerance, with polish: ADMM only
  // identifies the active set, the polish snaps onto it exactly.
  QpOptions loose = tight_options();
  loose.eps_abs = 1e-2;
  loose.eps_rel = 1e-2;
  loose.polish = true;
  LtvQpSolver banded;
  const QpResult r = banded.solve(p, loose);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(r.polished);
  EXPECT_LT(r.primal_residual, 1e-6);
  EXPECT_LT(r.dual_residual, 1e-6);
  ASSERT_EQ(r.x.size(), oracle.x.size());
  for (size_t i = 0; i < r.x.size(); ++i)
    EXPECT_NEAR(r.x[i], oracle.x[i], 2e-5) << "variable " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtvQpSeed, ::testing::Range(0, 6));

TEST(LtvQpSolver, FactorizationReusedOnIdenticalResolve) {
  Rng rng(7);
  const LtvQpProblem p = random_ltv_problem(rng, 5);
  QpOptions opt = tight_options();
  opt.rho_update_interval = 0;  // fixed rho: the factor depends only on data

  LtvQpSolver solver;
  const QpResult first = solver.solve(p, opt);
  ASSERT_TRUE(first.converged);
  EXPECT_GE(first.kkt_refactorizations, 1u);

  QpWarmStart warm;
  warm.x = first.x;
  warm.y = first.y;
  warm.rho = first.rho_final;
  const QpResult second = solver.solve(p, opt, warm);
  ASSERT_TRUE(second.converged);
  EXPECT_EQ(second.kkt_refactorizations, 0u);
}

// The weighted polish KKT  K = P + sigma I + A^T diag(w) A  of a stage
// problem, from the dense oracle, cut into its 6x6 stage blocks.
TridiagBlocks weighted_kkt_blocks(const LtvQpProblem& p, const Vector& w,
                                  double sigma) {
  const QpProblem d = ltv_qp_to_dense(p);
  const size_t h = p.horizon();
  const size_t n = p.num_vars();
  const size_t m = p.num_rows();
  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) {
      double v = d.p(i, j) + (i == j ? sigma : 0.0);
      for (size_t r = 0; r < m; ++r) v += d.a(r, i) * w[r] * d.a(r, j);
      k(i, j) = v;
    }
  TridiagBlocks b;
  b.diag.assign(h, Block6{});
  b.sub.assign(h - 1, Block6{});
  for (size_t s = 0; s < h; ++s)
    for (size_t i = 0; i < 6; ++i)
      for (size_t j = 0; j < 6; ++j) {
        b.diag[s].m[i][j] = k(6 * s + i, 6 * s + j);
        if (s + 1 < h) b.sub[s].m[i][j] = k(6 * (s + 1) + i, 6 * s + j);
      }
  return b;
}

/// Lowest stage block (diagonal or sub-diagonal index) that differs.
size_t lowest_changed_block(const TridiagBlocks& a, const TridiagBlocks& b) {
  for (size_t k = 0; k < a.diag.size(); ++k)
    if (!same_bits(a.diag[k], b.diag[k]) ||
        (k < a.sub.size() && !same_bits(a.sub[k], b.sub[k])))
      return k;
  return a.diag.size();
}

TEST(LtvQpSolver, RowWeightChangeReachesNoBlockBelowItsFirstBlock) {
  // Toggling any one row's weight changes exactly the blocks from
  // ltv_kkt_first_block(row) on — the rule the polish restarts by.
  Rng rng(60);
  const LtvQpProblem p = random_ltv_problem(rng, 5);
  Vector w(p.num_rows(), kLtvPolishWeight);
  const TridiagBlocks base = weighted_kkt_blocks(p, w, 1e-3);
  for (size_t row = 0; row < p.num_rows(); ++row) {
    Vector toggled = w;
    toggled[row] = 0.0;
    const TridiagBlocks changed = weighted_kkt_blocks(p, toggled, 1e-3);
    EXPECT_EQ(lowest_changed_block(base, changed), ltv_kkt_first_block(row))
        << "row " << row;
  }
}

TEST(LtvQpSolver, SameStageBoxAndBatteryChangeRestartsAtTheLowerBlock) {
  // One repair round edits two rows of stage 3: a control box (its own
  // block) and the battery row (which also reaches block 2). The
  // restart block is the minimum over ALL edited rows; restarting at
  // the first edited row's block leaves a stale factor behind.
  Rng rng(61);
  const LtvQpProblem p = random_ltv_problem(rng, 6);
  const size_t stage = 3;
  const size_t box = kLtvStageRows * stage, battery = box + 10;
  Vector w(p.num_rows(), kLtvPolishWeight);
  w[box] = 0.0;
  const TridiagBlocks before = weighted_kkt_blocks(p, w, 1e-3);
  w[box] = kLtvPolishWeight;  // added back
  w[battery] = 0.0;           // dropped
  const TridiagBlocks after = weighted_kkt_blocks(p, w, 1e-3);

  const size_t first =
      std::min(ltv_kkt_first_block(box), ltv_kkt_first_block(battery));
  ASSERT_EQ(first, stage - 1);
  const TridiagBlocks full = full_factor(after);
  EXPECT_TRUE(same_bits(partial_refactor(before, after, first), full));
  EXPECT_FALSE(same_bits(
      partial_refactor(before, after, ltv_kkt_first_block(box)), full));
}

TEST(LtvQpSolver, PolishedSolveIsBitwiseIndependentOfThePreviousSolve) {
  // The polish factor storage persists across solves and later rounds
  // keep its low blocks; nothing of problem A may leak into B's answer.
  QpOptions opt;
  opt.eps_abs = 0.2;
  opt.eps_rel = 0.2;
  opt.max_iterations = 4000;
  opt.polish = true;
  size_t polished = 0;
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng_a(static_cast<std::uint64_t>(500 + seed));
    Rng rng_b(static_cast<std::uint64_t>(600 + seed));
    const LtvQpProblem a = random_ltv_problem(rng_a, 30);
    const LtvQpProblem b = random_ltv_problem(rng_b, 30);

    LtvQpSolver reused;
    reused.solve(a, opt);
    const QpResult rb = reused.solve(b, opt);
    LtvQpSolver fresh;
    const QpResult fb = fresh.solve(b, opt);
    ASSERT_TRUE(fb.converged) << "seed " << seed;
    EXPECT_TRUE(same_bits(rb.x, fb.x)) << "seed " << seed;
    EXPECT_TRUE(same_bits(rb.y, fb.y)) << "seed " << seed;
    EXPECT_EQ(rb.polished, fb.polished) << "seed " << seed;
    EXPECT_EQ(rb.stage_block_ops, fb.stage_block_ops) << "seed " << seed;
    if (fb.polished) ++polished;
  }
  EXPECT_GT(polished, 0u);  // the comparison covered polished answers
}

TEST(LtvQpSolver, StageBlockOpsPerIterationGrowLinearlyInHorizon) {
  // The O(H) claim, on the architecture-independent counter: per-ADMM-
  // iteration block work at horizon 16 is ~2x horizon 8 (not 4x or 8x,
  // as any dense-factor path would give).
  QpOptions opt = tight_options();
  opt.rho_update_interval = 0;
  auto ops_per_iter = [&](size_t horizon) {
    Rng rng(42);  // same data modulo length
    const LtvQpProblem p = random_ltv_problem(rng, horizon);
    LtvQpSolver solver;
    const QpResult r = solver.solve(p, opt);
    EXPECT_TRUE(r.converged);
    return static_cast<double>(r.stage_block_ops) /
           static_cast<double>(r.iterations);
  };
  const double ratio = ops_per_iter(16) / ops_per_iter(8);
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

// Bit pins: seeded, warm-started solve sequences, hashed over every
// output double and count. H = 1 and 2 are the boundary cases of the
// stage sweeps (one stage with no neighbour; no stage with both), H =
// 30 the serving horizon; eps 1e-2 is the shipped ADMM tolerance
// and 0.2 the RTI one. The constants are the x86-64 baseline build's
// values (SSE2 doubles, no FMA contraction); re-record them only in a
// change that means to move the solver's answers.
struct SequencePin {
  std::uint64_t hash = 0;
  size_t rho_updates = 0, polished = 0, unsettled = 0, rejected = 0;
};

SequencePin hash_warm_sequence(size_t horizon, double eps) {
  QpOptions opt;
  opt.eps_abs = eps;
  opt.eps_rel = eps;
  opt.polish = true;
  Rng rng(900 + horizon);
  LtvQpSolver solver;
  QpWarmStart warm;
  LtvQpProblem p;
  test::BitHash hash;
  SequencePin pin;
  for (size_t step = 0; step < 12; ++step) {
    // A fresh problem every fourth solve; in between only the linear
    // cost drifts, like consecutive receding-horizon problems. Tight
    // state and battery bounds crowd the active set, so rho updates,
    // unsettled polishes and rejected polishes all occur.
    if (step % 4 == 0) {
      p = random_ltv_problem(rng, horizon);
      for (LtvQpStage& s : p.stages) {
        for (size_t r = 0; r < 4; ++r) {
          s.x_lo[r] = -0.25;
          s.x_hi[r] = 0.25;
        }
        s.b_lo = -0.2;
        s.b_hi = 0.2;
      }
    } else {
      for (LtvQpStage& s : p.stages)
        for (double& q : s.q) q += rng.uniform(-1.5, 1.5);
    }
    const QpResult r = solver.solve(p, opt, warm);
    hash.add(r.x);
    hash.add(r.y);
    hash.add_count(r.iterations);
    hash.add_flag(r.converged);
    hash.add(r.primal_residual);
    hash.add(r.dual_residual);
    hash.add_count(r.rho_updates);
    hash.add(r.rho_final);
    hash.add_flag(r.warm_started);
    hash.add_count(r.kkt_refactorizations);
    hash.add_count(r.stage_block_ops);
    hash.add_flag(r.polished);
    hash.add_flag(r.polish_unsettled);
    pin.rho_updates += r.rho_updates;
    pin.polished += r.polished;
    pin.unsettled += r.polish_unsettled;
    pin.rejected += r.converged && !r.polished;
    warm.x = r.x;
    warm.y = r.y;
    warm.rho = r.rho_final;
  }
  pin.hash = hash.value();
  return pin;
}

TEST(LtvQpBitPin, WarmStartedSequencesAtTheSweepBoundaries) {
  struct Case {
    size_t horizon;
    double eps;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {1, 1e-2, 0x38692066d32f83ccull},
      {1, 0.2, 0x68a85d22962cbdfaull},
      {2, 1e-2, 0xd31c32aa31a01b67ull},
      {2, 0.2, 0xe7f382fb2cdec18eull},
      {30, 1e-2, 0x0ecf821214e518f1ull},
      {30, 0.2, 0xdfdbfb2fbb62f2b9ull},
  };
  SequencePin total;
  for (const Case& c : cases) {
    const SequencePin pin = hash_warm_sequence(c.horizon, c.eps);
    EXPECT_EQ(pin.hash, c.hash) << "H " << c.horizon << " eps " << c.eps
                                << std::hex << ": 0x" << pin.hash;
    total.rho_updates += pin.rho_updates;
    total.polished += pin.polished;
    total.unsettled += pin.unsettled;
    total.rejected += pin.rejected;
  }
  // The sequences take every path the stage sweeps restructure.
  EXPECT_GT(total.rho_updates, 0u);
  EXPECT_GT(total.polished, 0u);
  EXPECT_GT(total.unsettled, 0u);
  EXPECT_GT(total.rejected, 0u);
}

}  // namespace
}  // namespace otem::optim

// ---------------------------------------------------------------------------
// Controller level: the banded transcription solves the same problem as
// the condensed dense path, across a receding-horizon sequence.

namespace otem::core {
namespace {

LtvOptions tight_controller_options(optim::KktSolveMode mode) {
  // Tighter than the production defaults so the comparison isolates the
  // transcription, not per-round ADMM slack.
  LtvOptions o;
  o.qp.kkt_mode = mode;
  o.qp.eps_abs = 1e-6;
  o.qp.eps_rel = 1e-6;
  o.qp.max_iterations = 40000;
  return o;
}

// One-shot solves from a fresh (reset) incumbent: with identical SQP
// linearisation points, the two transcriptions must produce the same
// controls to QP tolerance. Randomises horizon, state and load window,
// so different constraint sets go active (thermal, SoC, battery power).
class BandedVsDenseSeed : public ::testing::TestWithParam<int> {};

TEST_P(BandedVsDenseSeed, OneShotControlsMatchAcrossRandomWindows) {
  Rng rng(static_cast<std::uint64_t>(30 + GetParam()));
  const SystemSpec spec = SystemSpec::from_config(Config());
  const size_t horizon = 6 + static_cast<size_t>(GetParam()) % 8;
  MpcOptions mpc;
  mpc.horizon = horizon;
  LtvOtemController banded(
      spec, mpc, tight_controller_options(optim::KktSolveMode::kBanded));
  LtvOtemController dense(
      spec, mpc, tight_controller_options(optim::KktSolveMode::kDense));

  PlantState x;
  x.t_battery_k = rng.uniform(296.0, 309.0);
  x.t_coolant_k = x.t_battery_k - rng.uniform(0.0, 3.0);
  x.soc_percent = rng.uniform(45.0, 90.0);
  x.soe_percent = rng.uniform(35.0, 90.0);
  std::vector<double> window(horizon);
  for (auto& p : window) p = rng.uniform(0.0, 45000.0);

  const auto ub = banded.solve(x, window);
  const auto ud = dense.solve(x, window);
  EXPECT_TRUE(banded.last_solve().qp_converged);
  EXPECT_TRUE(dense.last_solve().qp_converged);
  EXPECT_GT(banded.last_solve().stage_block_ops, 0u);
  EXPECT_EQ(dense.last_solve().stage_block_ops, 0u);
  EXPECT_NEAR(ub.p_cap_bus_w, ud.p_cap_bus_w, 200.0);
  EXPECT_NEAR(ub.p_cooler_w, ud.p_cooler_w, 200.0);
  EXPECT_NEAR(banded.last_solve().cost, dense.last_solve().cost,
              1e-4 * std::abs(dense.last_solve().cost) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandedVsDenseSeed, ::testing::Range(0, 8));

TEST(LtvBandedController, MatchesDensePlanQualityOnRecedingHorizon) {
  // Across a receding-horizon sequence each controller re-linearises
  // around its OWN incumbent, and near SQP ties (the u = 0 loss kink)
  // watt-level QP differences can fork the trajectories — so per-step
  // control equality is NOT an invariant here. Equal plan QUALITY is:
  // both paths must accept plans of the same cost, every step.
  const SystemSpec spec = SystemSpec::from_config(Config());
  const size_t horizon = 10;
  MpcOptions mpc;
  mpc.horizon = horizon;
  LtvOtemController banded(
      spec, mpc, tight_controller_options(optim::KktSolveMode::kBanded));
  LtvOtemController dense(
      spec, mpc, tight_controller_options(optim::KktSolveMode::kDense));

  Rng rng(11);
  std::vector<double> load(horizon + 20);
  for (auto& p : load) p = rng.uniform(5000.0, 45000.0);

  PlantState x;
  x.t_battery_k = 301.0;
  x.t_coolant_k = 299.5;
  for (size_t step = 0; step + horizon <= load.size(); ++step) {
    const std::vector<double> window(load.begin() + step,
                                     load.begin() + step + horizon);
    const auto ub = banded.solve(x, window);
    const auto ud = dense.solve(x, window);
    EXPECT_TRUE(banded.last_solve().qp_converged) << "step " << step;
    EXPECT_TRUE(dense.last_solve().qp_converged) << "step " << step;
    // Controls stay inside the same physical boxes...
    EXPECT_LE(std::abs(ub.p_cap_bus_w), spec.ultracap.max_power_w + 1e-6);
    EXPECT_LE(std::abs(ub.p_cap_bus_w - ud.p_cap_bus_w),
              2.0 * spec.ultracap.max_power_w);
    // ...and the accepted plans are equally good.
    EXPECT_NEAR(banded.last_solve().cost, dense.last_solve().cost,
                0.01 * std::abs(dense.last_solve().cost))
        << "step " << step;
    x.t_battery_k += rng.uniform(-0.05, 0.05);
  }
}

}  // namespace
}  // namespace otem::core
