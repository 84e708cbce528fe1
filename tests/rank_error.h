// rank_error.h — how far a quantile estimate sits from the exact one,
// for tests that hold a quantile sketch to its rank-error bound.
#pragma once

#include <algorithm>
#include <vector>

namespace otem::test {

/// Rank error of `estimate` for the q-quantile of `sorted`, as a
/// fraction of n: how far the estimate's rank interval is from q*n.
inline double rank_error(const std::vector<double>& sorted, double q,
                         double estimate) {
  const double n = static_cast<double>(sorted.size());
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), estimate);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), estimate);
  const double rank_lo = static_cast<double>(lo - sorted.begin());
  const double rank_hi = static_cast<double>(hi - sorted.begin());
  const double target = q * n;
  if (target < rank_lo) return (rank_lo - target) / n;
  if (target > rank_hi) return (target - rank_hi) / n;
  return 0.0;
}

}  // namespace otem::test
