// Alternating refinement for k-center: reassign sites to their nearest
// center, then recenter each cluster — with its exact minimum enclosing
// ball in Euclidean spaces, or its discrete 1-center in general metric
// spaces. The covering radius never increases, so the seed solver's
// guarantee is preserved while the constant improves markedly in
// practice. At most 50 rounds run, and the loop stops early once a round
// improves the radius by less than 1e-9 of it.

#ifndef UKC_SOLVER_REFINE_H_
#define UKC_SOLVER_REFINE_H_

#include "common/result.h"
#include "common/rng.h"
#include "metric/euclidean_space.h"
#include "metric/metric_space.h"
#include "solver/types.h"

namespace ukc {

class ThreadPool;

namespace solver {

/// Options for RefineKCenter.
struct RefineOptions {
  uint64_t seed = 23;  // Drives Welzl shuffles.
  /// Borrowed worker pool sharding the per-site assignment and
  /// per-cluster recentering; null runs them inline on the calling
  /// thread. Each cluster's Welzl shuffle draws from an rng forked by
  /// (round, cluster), so the result does not depend on the pool.
  ThreadPool* pool = nullptr;
};

/// Refines `seed` over `sites`. `space` must be the space the seed was
/// computed in; when it is a EuclideanSpace, refined centers are minted
/// as new sites (the space grows). The result's radius is <= the seed's
/// radius, and approx_factor is inherited from the seed.
Result<KCenterSolution> RefineKCenter(metric::MetricSpace* space,
                                      const std::vector<metric::SiteId>& sites,
                                      const KCenterSolution& seed,
                                      const RefineOptions& options = {});

}  // namespace solver
}  // namespace ukc

#endif  // UKC_SOLVER_REFINE_H_
