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
    OTEM_REQUIRE(!diag.empty(), "BlockTridiagCholesky: no stages");
    OTEM_REQUIRE(sub.size() + 1 == diag.size(),
                 "BlockTridiagCholesky: need one sub-block per interior stage");
    OTEM_REQUIRE(first == 0 || (factored_ && diag_ == &diag &&
                                sub_ == &sub && first < diag.size()),
                 "BlockTridiagCholesky: a partial refactor needs the "
                 "previous factor of the same storage");
    diag_ = &diag;
    sub_ = &sub;
    factored_ = false;  // until every stage is done (a throw leaves it so)
    if (first == 0) {
      cholesky_factor(diag[0]);
      block_ops_ += 1;
    } else {
      syrk_sub(diag[first], sub[first - 1]);
      cholesky_factor(diag[first]);
      block_ops_ += 2;
    }
    for (size_t k = first + 1; k < diag.size(); ++k) {
      trsm_right_lower_transpose(diag[k - 1], sub[k - 1]);
      syrk_sub(diag[k], sub[k - 1]);
      cholesky_factor(diag[k]);
      block_ops_ += 3;
    }
    factored_ = true;
  }

  bool factored() const { return factored_; }
  size_t stages() const { return factored_ ? diag_->size() : 0; }

  /// Solve K x = b overwriting b with x; b.size() must be stages * N.
  /// Allocation-free: two block-bidiagonal substitution sweeps.
  void solve_in_place(Vector& b) const {
    OTEM_REQUIRE(factored_, "BlockTridiagCholesky: factor() first");
    const std::vector<Block>& diag = *diag_;
    const std::vector<Block>& sub = *sub_;
    const size_t stages = diag.size();
    OTEM_REQUIRE(b.size() == stages * N,
                 "BlockTridiagCholesky: rhs size mismatch");
    // Forward sweep: L y = b.
    forward_subst(diag[0], b.data());
    for (size_t k = 1; k < stages; ++k) {
      gemv_sub(sub[k - 1], b.data() + (k - 1) * N, b.data() + k * N);
      forward_subst(diag[k], b.data() + k * N);
    }
    // Backward sweep: L^T x = y.
    backward_subst(diag[stages - 1], b.data() + (stages - 1) * N);
    for (size_t k = stages - 1; k-- > 0;) {
      gemv_transpose_sub(sub[k], b.data() + (k + 1) * N, b.data() + k * N);
      backward_subst(diag[k], b.data() + k * N);
    }
    block_ops_ += 4 * stages - 2;
  }

  /// Fixed-size block-kernel applications since the last reset — the
  /// architecture-independent cost counter the CI scaling gate reads.
  size_t block_ops() const { return block_ops_; }
  void reset_block_ops() { block_ops_ = 0; }

 private:
  std::vector<Block>* diag_ = nullptr;  ///< borrowed factor storage
  std::vector<Block>* sub_ = nullptr;
  bool factored_ = false;
  mutable size_t block_ops_ = 0;
};

}  // namespace otem::optim
