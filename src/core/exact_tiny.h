// Exact (and near-exact) reference optima for tiny instances.
//
// The paper's guarantees compare against optima that are NP-hard to
// compute, so the experiment harness measures ratios against:
//
//  * ExactRestrictedAssigned   — optimal centers among a candidate site
//    set under a fixed assignment rule (exhaustive subset enumeration).
//  * ExactUnrestrictedAssigned — optimal centers among candidates AND
//    optimal assignment (subset × assignment enumeration). In a finite
//    metric with candidates = all sites this is the true optimum; in
//    Euclidean space it is exact up to the candidate discretization,
//    which DefaultCandidateSites makes dense (locations, expected
//    points, per-point medians, exact cluster centers).
//  * RefineOneCenterContinuous — convex minimization of the k = 1
//    objective E[max_i d(P̂_i, q)] over q ∈ R^d by compass search
//    (the objective is convex, so this converges to the optimum).

#ifndef UKC_CORE_EXACT_TINY_H_
#define UKC_CORE_EXACT_TINY_H_

#include <cstdint>

#include "common/result.h"
#include "cost/assignment.h"
#include "geometry/point.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace core {

/// An exact reference solution.
struct ExactUncertainSolution {
  std::vector<metric::SiteId> centers;
  cost::Assignment assignment;
  double expected_cost = 0.0;
};

/// Builds a dense candidate-center set for exact enumeration: every
/// location site, plus (for Euclidean instances) each point's expected
/// point and weighted geometric median, minted into the space. In a
/// finite metric, returns every site of the space.
Result<std::vector<metric::SiteId>> DefaultCandidateSites(
    uncertain::UncertainDataset* dataset);

/// Optimal centers among `candidates` under the fixed assignment rule.
/// Refuses more than 2'000'000 center subsets.
Result<ExactUncertainSolution> ExactRestrictedAssigned(
    uncertain::UncertainDataset* dataset, size_t k, cost::AssignmentRule rule,
    const std::vector<metric::SiteId>& candidates);

/// Optimal centers among `candidates` and optimal assignment (all k^n
/// assignments enumerated per subset). Refuses more than 2'000'000
/// center subsets or more than 2'000'000 assignments per subset.
Result<ExactUncertainSolution> ExactUnrestrictedAssigned(
    uncertain::UncertainDataset* dataset, size_t k,
    const std::vector<metric::SiteId>& candidates);

/// Evaluates the 1-center objective E[max_i d(P̂_i, q)] at a free point
/// q (Euclidean datasets only), without minting q into the space.
Result<double> OneCenterObjectiveAt(const uncertain::UncertainDataset& dataset,
                                    const geometry::Point& q);

/// Convex minimization of the 1-center objective by compass search from
/// `start`. Returns the refined point; the objective at the result is
/// within ~tolerance of the continuous optimum.
Result<geometry::Point> RefineOneCenterContinuous(
    const uncertain::UncertainDataset& dataset, const geometry::Point& start,
    double initial_step, double tolerance = 1e-9, size_t max_evals = 200'000);

}  // namespace core
}  // namespace ukc

#endif  // UKC_CORE_EXACT_TINY_H_
