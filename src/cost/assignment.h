// Assignment rules: which center serves each uncertain point.
//
// The paper's three restricted-assignment rules are implemented here:
//   ED — expected distance:  A(P_i) = argmin_c E[d(P̂_i, c)]
//   EP — expected point:     A(P_i) = argmin_c d(P̄_i, c)   (Euclidean)
//   OC — 1-center:           A(P_i) = argmin_c d(P̃_i, c)
// EP and OC are both "nearest center to a surrogate site", so they share
// AssignBySurrogate; the surrogate construction itself lives in core/.

#ifndef UKC_COST_ASSIGNMENT_H_
#define UKC_COST_ASSIGNMENT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "uncertain/dataset.h"

namespace ukc {

class ThreadPool;

namespace cost {

/// assignment[i] = the center site serving uncertain point i.
using Assignment = std::vector<metric::SiteId>;

/// The paper's assignment rules.
enum class AssignmentRule {
  kExpectedDistance,  // ED
  kExpectedPoint,     // EP (Euclidean only)
  kOneCenter,         // OC
};

/// Short stable name ("ED", "EP", "OC").
std::string AssignmentRuleToString(AssignmentRule rule);

/// ED rule: assigns each point to the center minimizing its expected
/// distance. O(n z k) distance evaluations; the per-point argmins are
/// independent and shard over the borrowed `pool` (null runs them
/// inline on the calling thread). The result does not depend on the
/// pool.
Result<Assignment> AssignExpectedDistance(const uncertain::UncertainDataset& dataset,
                                          const std::vector<metric::SiteId>& centers,
                                          ThreadPool* pool = nullptr);

/// Surrogate rule (EP/OC): assigns point i to the center nearest to
/// surrogates[i]. surrogates must have one site per uncertain point.
Result<Assignment> AssignBySurrogate(const uncertain::UncertainDataset& dataset,
                                     const std::vector<metric::SiteId>& surrogates,
                                     const std::vector<metric::SiteId>& centers);

/// Validates that an assignment maps every point to one of `centers`.
Status ValidateAssignment(const uncertain::UncertainDataset& dataset,
                          const std::vector<metric::SiteId>& centers,
                          const Assignment& assignment);

}  // namespace cost
}  // namespace ukc

#endif  // UKC_COST_ASSIGNMENT_H_
