// small_mat.h — fixed-size stack matrix kernels for the banded KKT path.
//
// The LTV-MPC KKT system factorises into per-stage blocks built from the
// 4-state / 2-control pieces of the step Jacobians (4x4 dynamics, 4x2
// input maps, 2x2 control Grams, 6x6 stage blocks). These kernels keep
// that block math in registers: every dimension is a compile-time
// constant, storage is a flat stack array, the loops fully unroll, and
// nothing touches the heap. Outputs never alias inputs — the call sites
// pass distinct objects by construction.
//
// They run scalar. Their one production user, optim/ltv_qp.cpp, is
// compiled with -fno-tree-vectorize: the Cholesky and substitution
// kernels are chains of dependent divides and square roots, and GCC's
// vector lanes only lengthen those chains with shuffles (measured in
// docs/PERFORMANCE.md). Instantiate them in no other library TU, or a
// vectorized copy could be the one the linker keeps.
//
// This is deliberately NOT a general matrix library (optim/matrix.h is
// the runtime-sized one); it is the minimal kernel set the
// block-tridiagonal Cholesky and the structured LTV ADMM solver need.
#pragma once

#include <cmath>
#include <cstddef>

#include "common/error.h"

namespace otem::optim {

/// Dense ROWS x COLS matrix with compile-time shape and stack storage.
template <size_t ROWS, size_t COLS>
struct SmallMat {
  double m[ROWS][COLS];

  static constexpr size_t kRows = ROWS;
  static constexpr size_t kCols = COLS;

  void set_zero() {
    for (size_t r = 0; r < ROWS; ++r)
      for (size_t c = 0; c < COLS; ++c) m[r][c] = 0.0;
  }
};

/// out += a * b.
template <size_t R, size_t K, size_t C>
inline void multiply_add(const SmallMat<R, K>& a, const SmallMat<K, C>& b,
                         SmallMat<R, C>& out) {
  for (size_t r = 0; r < R; ++r)
    for (size_t k = 0; k < K; ++k) {
      const double av = a.m[r][k];
      for (size_t c = 0; c < C; ++c) out.m[r][c] += av * b.m[k][c];
    }
}

/// out += alpha * a^T * b (a is K x R, b is K x C, out is R x C).
template <size_t K, size_t R, size_t C>
inline void transpose_multiply_add(const SmallMat<K, R>& a,
                                   const SmallMat<K, C>& b, double alpha,
                                   SmallMat<R, C>& out) {
  for (size_t k = 0; k < K; ++k)
    for (size_t r = 0; r < R; ++r) {
      const double av = alpha * a.m[k][r];
      for (size_t c = 0; c < C; ++c) out.m[r][c] += av * b.m[k][c];
    }
}

/// (*inout) += alpha * other, elementwise.
template <size_t R, size_t C>
inline void add_scaled(SmallMat<R, C>& inout, const SmallMat<R, C>& other,
                       double alpha) {
  for (size_t r = 0; r < R; ++r)
    for (size_t c = 0; c < C; ++c) inout.m[r][c] += alpha * other.m[r][c];
}

/// out += alpha * u v^T (rank-1 update from raw arrays).
template <size_t R, size_t C>
inline void outer_add(SmallMat<R, C>& out, const double* u, const double* v,
                      double alpha) {
  for (size_t r = 0; r < R; ++r) {
    const double ur = alpha * u[r];
    for (size_t c = 0; c < C; ++c) out.m[r][c] += ur * v[c];
  }
}

/// y += A x.
template <size_t R, size_t C>
inline void gemv_add(const SmallMat<R, C>& a, const double* x, double* y) {
  for (size_t r = 0; r < R; ++r) {
    double s = 0.0;
    for (size_t c = 0; c < C; ++c) s += a.m[r][c] * x[c];
    y[r] += s;
  }
}

/// y -= A x.
template <size_t R, size_t C>
inline void gemv_sub(const SmallMat<R, C>& a, const double* x, double* y) {
  for (size_t r = 0; r < R; ++r) {
    double s = 0.0;
    for (size_t c = 0; c < C; ++c) s += a.m[r][c] * x[c];
    y[r] -= s;
  }
}

/// y -= A^T x (A is R x C, x has R entries, y has C entries).
template <size_t R, size_t C>
inline void gemv_transpose_sub(const SmallMat<R, C>& a, const double* x,
                               double* y) {
  for (size_t r = 0; r < R; ++r) {
    const double xr = x[r];
    for (size_t c = 0; c < C; ++c) y[c] -= a.m[r][c] * xr;
  }
}

/// In-place Cholesky a = L L^T of a symmetric positive-definite block;
/// on return the lower triangle holds L (the strict upper triangle is
/// left untouched and must be ignored). Throws on a non-SPD pivot, like
/// the dense Cholesky in optim/decomposition.h.
template <size_t N>
inline void cholesky_factor(SmallMat<N, N>& a) {
  for (size_t j = 0; j < N; ++j) {
    double d = a.m[j][j];
    for (size_t k = 0; k < j; ++k) d -= a.m[j][k] * a.m[j][k];
    OTEM_REQUIRE(d > 1e-300, "SmallMat Cholesky: block not SPD");
    const double ljj = std::sqrt(d);
    a.m[j][j] = ljj;
    const double inv = 1.0 / ljj;
    for (size_t i = j + 1; i < N; ++i) {
      double s = a.m[i][j];
      for (size_t k = 0; k < j; ++k) s -= a.m[i][k] * a.m[j][k];
      a.m[i][j] = s * inv;
    }
  }
}

/// Solve L x = b in place (L = lower triangle of `l`).
template <size_t N>
inline void forward_subst(const SmallMat<N, N>& l, double* b) {
  for (size_t i = 0; i < N; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l.m[i][k] * b[k];
    b[i] = s / l.m[i][i];
  }
}

/// Solve L^T x = b in place (L = lower triangle of `l`).
template <size_t N>
inline void backward_subst(const SmallMat<N, N>& l, double* b) {
  for (size_t ii = N; ii-- > 0;) {
    double s = b[ii];
    for (size_t k = ii + 1; k < N; ++k) s -= l.m[k][ii] * b[k];
    b[ii] = s / l.m[ii][ii];
  }
}

/// Solve X L^T = B in place on `b` (a forward substitution per row):
/// afterwards b holds X. This is the off-diagonal step of the block
/// Cholesky, L~ = L_k Lambda^{-T}. The R row substitutions run
/// interleaved, column by column, so their independent divide chains
/// overlap; every element still sees forward_subst's exact operation
/// order, so the result is bitwise that of R forward_subst calls.
template <size_t R, size_t N>
inline void trsm_right_lower_transpose(const SmallMat<N, N>& l,
                                       SmallMat<R, N>& b) {
  for (size_t i = 0; i < N; ++i)
    for (size_t r = 0; r < R; ++r) {
      double s = b.m[r][i];
      for (size_t k = 0; k < i; ++k) s -= l.m[i][k] * b.m[r][k];
      b.m[r][i] = s / l.m[i][i];
    }
}

/// out -= x x^T (symmetric rank-K downdate). Only the lower triangle is
/// written — all that cholesky_factor and the substitutions read.
template <size_t R, size_t K>
inline void syrk_sub(SmallMat<R, R>& out, const SmallMat<R, K>& x) {
  for (size_t i = 0; i < R; ++i)
    for (size_t j = 0; j <= i; ++j) {
      double s = 0.0;
      for (size_t k = 0; k < K; ++k) s += x.m[i][k] * x.m[j][k];
      out.m[i][j] -= s;
    }
}

}  // namespace otem::optim
