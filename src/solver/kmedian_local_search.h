// Local-search k-median over an explicit client×facility cost matrix
// [Arya et al. 2004]: start from a greedy solution, repeatedly apply
// the best single swap (close one open facility, open one closed) while
// it improves the connection cost. Single-swap local optima are
// 5-approximate for metric costs; the uncertain k-median reduction
// (core/kmedian.h) feeds it expected-distance costs.

#ifndef UKC_SOLVER_KMEDIAN_LOCAL_SEARCH_H_
#define UKC_SOLVER_KMEDIAN_LOCAL_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace ukc {

class ThreadPool;

namespace solver {

/// Options for KMedianLocalSearch.
struct KMedianOptions {
  /// Stop after this many improving swaps (safety valve; local search
  /// terminates on its own long before on sane inputs).
  size_t max_swaps = 10'000;
  /// Accept a swap only if it improves by this relative amount; the
  /// standard trick that bounds the number of iterations polynomially.
  double min_relative_improvement = 1e-9;
  /// Borrowed worker pool sharding the greedy-start and swap scans;
  /// null runs them inline on the calling thread. The chosen facilities
  /// do not depend on the pool: candidate totals are written by index
  /// and the argmin is an ordered scan.
  ThreadPool* pool = nullptr;
};

/// Solution: which facilities (columns) are open, each client's
/// facility, and the total connection cost Σ_i cost[i][open(i)].
struct KMedianSolution {
  std::vector<size_t> facilities;
  std::vector<size_t> assignment;  // Per client, index into `facilities`... no:
                                   // column index of its serving facility.
  double total_cost = 0.0;
};

/// Minimizes Σ_i min_{f in S} cost[i][f] over |S| = k. `cost` is a
/// non-empty rectangular matrix (clients × facilities) of finite
/// non-negative entries; k <= #facilities.
Result<KMedianSolution> KMedianLocalSearch(
    const std::vector<std::vector<double>>& cost, size_t k,
    const KMedianOptions& options = {});

/// Exact k-median by subset enumeration, for tiny facility counts.
Result<KMedianSolution> KMedianExact(const std::vector<std::vector<double>>& cost,
                                     size_t k, uint64_t max_subsets = 5'000'000);

}  // namespace solver
}  // namespace ukc

#endif  // UKC_SOLVER_KMEDIAN_LOCAL_SEARCH_H_
