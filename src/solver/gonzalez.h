// Gonzalez's farthest-first traversal [Gonzalez 1985], the greedy
// 2-approximation for k-center that the paper's Remark 3.1 plugs into
// its surrogate pipeline.

#ifndef UKC_SOLVER_GONZALEZ_H_
#define UKC_SOLVER_GONZALEZ_H_

#include <cstddef>

#include "common/result.h"
#include "metric/metric_space.h"
#include "solver/types.h"

namespace ukc {
namespace solver {

/// Runs farthest-first traversal over `sites` from sites[0], returning k
/// centers drawn from `sites` with covering radius at most twice the
/// optimal k-center radius (discrete or continuous, in any metric
/// space). O(k·|sites|) distance evaluations. Fails if k == 0 or sites
/// is empty; when k >= |sites| every site becomes a center (radius 0).
Result<KCenterSolution> Gonzalez(const metric::MetricSpace& space,
                                 const std::vector<metric::SiteId>& sites,
                                 size_t k);

}  // namespace solver
}  // namespace ukc

#endif  // UKC_SOLVER_GONZALEZ_H_
