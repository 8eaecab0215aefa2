// Exact discrete k-center by exhaustive enumeration of center subsets.
// The experiment harness uses it as ground truth on tiny instances.

#ifndef UKC_SOLVER_BRUTE_FORCE_H_
#define UKC_SOLVER_BRUTE_FORCE_H_

#include "common/result.h"
#include "metric/metric_space.h"
#include "solver/types.h"

namespace ukc {
namespace solver {

/// Finds the optimal k centers *restricted to `candidates`* covering
/// `sites`, by enumerating every k-subset with branch-and-bound pruning.
/// approx_factor is 1 (with respect to the discrete optimum). Refuses
/// instances where C(|candidates|, k) exceeds 20'000'000, to keep
/// accidental exponential blowups out of test runs.
Result<KCenterSolution> ExactDiscreteKCenter(
    const metric::MetricSpace& space, const std::vector<metric::SiteId>& sites,
    const std::vector<metric::SiteId>& candidates, size_t k);

/// Number of k-subsets of an m-set, saturating at uint64 max.
uint64_t BinomialCount(uint64_t m, uint64_t k);

/// Writes into *out the k-subset of {0, ..., m-1} with lexicographic
/// rank `rank` (the order the combination odometer enumerates:
/// {0,1,..,k-1} has rank 0, {m-k,..,m-1} rank C(m,k)-1). This is the
/// combinatorial number system unranking that lets workers shard subset
/// enumeration: each shards a contiguous rank range, unranks its start
/// once, and advances the odometer locally. Requires 1 <= k <= m and
/// rank < C(m, k) (and C(m, k) below the uint64 saturation point).
void CombinationFromRank(uint64_t rank, uint64_t m, uint64_t k,
                         std::vector<size_t>* out);

/// Advances the lexicographic combination odometer in place (the shared
/// successor step of every subset enumerator in the repo). Returns
/// false when index was the last combination.
bool NextCombination(std::vector<size_t>* index, size_t m);

}  // namespace solver
}  // namespace ukc

#endif  // UKC_SOLVER_BRUTE_FORCE_H_
