// block_tridiag.h — block-tridiagonal Cholesky in O(stages) block ops.
//
// Factorises a symmetric positive-definite block-tridiagonal matrix
//
//     K = [ D_0  S_1^T                ]
//         [ S_1  D_1   S_2^T          ]
//         [      S_2   D_2    ...     ]
//         [            ...    D_{H-1} ]
//
// as K = L L^T with L block lower-bidiagonal:
//
//     Lam_0 = chol(D_0)
//     for k = 1..H-1:
//         Lt_k  = S_k Lam_{k-1}^{-T}          (trsm)
//         Lam_k = chol(D_k - Lt_k Lt_k^T)     (syrk + chol)
//
// Everything is fixed-size SmallMat<N, N> kernel calls, so the whole
// factorisation is O(H) block operations — this is what replaces the
// dense O((H n)^3) KKT Cholesky on the LTV-MPC hot path. Solves run two
// block-bidiagonal sweeps (forward then backward), also O(H).
//
// Both also come one stage at a time — begin_factor + factor_stage(k),
// forward_stage(k, b), backward_stage(k, b) — so a caller can run its
// own per-stage work right behind each stage's dependent divide/sqrt
// chain instead of in a pass of its own (LtvQpSolver's ADMM iteration
// and polish rounds do). factor() and solve_in_place() are those stage
// loops; stage k sees the same operations in the same order either way.
//
// The class counts the fixed-size block-kernel applications it performs
// (`block_ops()`); the counter is exact and architecture-independent,
// which is what bench/check_banded.py gates on in CI.
#pragma once

#include <vector>

#include "common/error.h"
#include "optim/matrix.h"
#include "optim/small_mat.h"

namespace otem::optim {

template <size_t N>
class BlockTridiagCholesky {
 public:
  using Block = SmallMat<N, N>;

  /// Factorise in place: `diag` (H blocks) and `sub` (H-1 blocks, sub[k]
  /// couples stage k+1 rows with stage k columns) are overwritten with
  /// the factor (Lam_k lower triangles in diag, Lt_{k+1} in sub). The
  /// caller keeps ownership of the storage; this class records views.
  /// Throws otem::SimError when a stage block is not SPD.
  ///
  /// `first` = 0 is the full factorisation. With first = s > 0 the
  /// storage must hold the previous factorisation of a matrix that
  /// agrees with this one on every block < s and on S_s: blocks < s and
  /// sub[s-1] (which already holds Lt_s) are kept, and only stages >= s
  /// are recomputed from freshly assembled blocks. Each recomputed
  /// element sees the same operations as in a full factorisation, so
  /// the result is bitwise that of factor(diag, sub, 0).
  void factor(std::vector<Block>& diag, std::vector<Block>& sub,
              size_t first = 0) {
    begin_factor(diag, sub, first);
    for (size_t k = first; k < diag.size(); ++k) factor_stage(k);
  }

  /// factor() one stage at a time: begin_factor() checks and records
  /// what factor() would, then factor_stage(k) must run for k = first,
  /// first + 1, ..., H-1 in order. Stage k touches diag[k], sub[k-1]
  /// and the already factored diag[k-1] only, so the caller may still be
  /// assembling later blocks. Stages below the next one to factor are
  /// ready for forward_stage().
  void begin_factor(std::vector<Block>& diag, std::vector<Block>& sub,
                    size_t first = 0) {
    OTEM_REQUIRE(!diag.empty(), "BlockTridiagCholesky: no stages");
    OTEM_REQUIRE(sub.size() + 1 == diag.size(),
                 "BlockTridiagCholesky: need one sub-block per interior stage");
    OTEM_REQUIRE(first == 0 || (factored() && diag_ == &diag &&
                                sub_ == &sub && first < diag.size()),
                 "BlockTridiagCholesky: a partial refactor needs the "
                 "previous factor of the same storage");
    diag_ = &diag;
    sub_ = &sub;
    stages_ = diag.size();
    first_ = first;
    ready_ = first;  // a throw leaves later stages (and factored()) unset
  }

  void factor_stage(size_t k) {
    OTEM_REQUIRE(k == ready_ && k < stages_,
                 "BlockTridiagCholesky: factor stages in order after "
                 "begin_factor()");
    std::vector<Block>& diag = *diag_;
    std::vector<Block>& sub = *sub_;
    if (k > first_) {
      trsm_right_lower_transpose(diag[k - 1], sub[k - 1]);
      ++block_ops_;
    }
    if (k > 0) {
      syrk_sub(diag[k], sub[k - 1]);
      ++block_ops_;
    }
    cholesky_factor(diag[k]);
    ++block_ops_;
    ready_ = k + 1;
  }

  bool factored() const { return stages_ != 0 && ready_ == stages_; }
  size_t stages() const { return factored() ? stages_ : 0; }

  /// Solve K x = b overwriting b with x; b.size() must be stages * N.
  /// Allocation-free: two block-bidiagonal substitution sweeps.
  void solve_in_place(Vector& b) const {
    OTEM_REQUIRE(factored(), "BlockTridiagCholesky: factor() first");
    OTEM_REQUIRE(b.size() == stages_ * N,
                 "BlockTridiagCholesky: rhs size mismatch");
    // The end stages are peeled so the loops' neighbour tests fold away.
    forward_stage(0, b.data());
    for (size_t k = 1; k < stages_; ++k) forward_stage(k, b.data());
    backward_stage(stages_ - 1, b.data());
    for (size_t k = stages_ - 1; k-- > 0;) backward_stage(k, b.data());
  }

  /// Stage k of the forward sweep L y = b, on the whole right-hand side
  /// `b` (stages * N entries): needs stage k factored and stage k-1's
  /// forward step done. Block k of `b` must be final.
  ///
  /// The two substitution stages check their preconditions in debug
  /// builds only: they sit inside the divide chains, and a check (whose
  /// throw makes every pending counter store visible first) slowed a
  /// 30-stage solve by ~15 %.
  void forward_stage(size_t k, double* b) const {
#ifndef NDEBUG
    OTEM_REQUIRE(k < ready_, "BlockTridiagCholesky: stage not factored");
#endif
    if (k > 0) {
      gemv_sub((*sub_)[k - 1], b + (k - 1) * N, b + k * N);
      ++block_ops_;
    }
    forward_subst((*diag_)[k], b + k * N);
    ++block_ops_;
  }

  /// Stage k of the backward sweep L^T x = y: needs the whole forward
  /// sweep and stage k+1's backward step done. Afterwards block k of
  /// `b` holds x_k.
  void backward_stage(size_t k, double* b) const {
#ifndef NDEBUG
    OTEM_REQUIRE(factored() && k < stages_,
                 "BlockTridiagCholesky: factor() first");
#endif
    if (k + 1 < stages_) {
      gemv_transpose_sub((*sub_)[k], b + (k + 1) * N, b + k * N);
      ++block_ops_;
    }
    backward_subst((*diag_)[k], b + k * N);
    ++block_ops_;
  }

  /// Fixed-size block-kernel applications since the last reset — the
  /// architecture-independent cost counter the CI scaling gate reads.
  size_t block_ops() const { return block_ops_; }
  void reset_block_ops() { block_ops_ = 0; }

 private:
  std::vector<Block>* diag_ = nullptr;  ///< borrowed factor storage
  std::vector<Block>* sub_ = nullptr;
  size_t stages_ = 0;  ///< diag_->size() at begin_factor()
  size_t first_ = 0;   ///< first stage of the factorisation in progress
  size_t ready_ = 0;   ///< stages [0, ready_) hold a current factor
  mutable size_t block_ops_ = 0;
};

}  // namespace otem::optim
