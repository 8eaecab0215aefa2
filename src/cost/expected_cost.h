// Expected-cost evaluation: the objective functions of the paper.
//
//   EcostA(c_1..c_k)  = E_R[ max_i d(P̂_i, A(P_i)) ]   (assigned)
//   Ecost(c_1..c_k)   = E_R[ max_i min_j d(P̂_i, c_j)] (unassigned)
//
// Because the uncertain points are independent and each point's cost is
// a function of its own realization only, the max is over *independent*
// discrete random variables, and the expectation is computed *exactly*
// in O(N log N) for N = Σ_i z_i by sweeping the value axis:
//
//   E[max_i X_i] = Σ_v v · ( Π_i F_i(v) − Π_i F_i(v^-) )
//
// A naive enumeration of all Π z_i realizations (the formula as written
// in the paper) is exponential; it is provided as BruteForce* for
// cross-validation on tiny instances, alongside a Monte-Carlo estimator
// with standard errors for independent validation at any size.
//
// The functions here are convenience wrappers over the reusable engine
// in expected_cost_evaluator.h (which owns all scratch state); they
// delegate to a thread-local evaluator, so even one-off calls avoid
// per-call allocation churn. Pipelines that evaluate many candidate
// solutions should hold an ExpectedCostEvaluator directly.

#ifndef UKC_COST_EXPECTED_COST_H_
#define UKC_COST_EXPECTED_COST_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "cost/assignment.h"
#include "cost/expected_cost_evaluator.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace cost {

/// Exact E[max_i X_i] for independent discrete X_i. O(N log N) in the
/// total support size N. Takes the distributions by const reference —
/// nothing is copied.
double ExpectedMaxOfIndependent(
    const std::vector<DiscreteDistribution>& distributions);

/// Exact assigned expected cost EcostA for the given assignment
/// (assignment[i] = serving center site of point i).
Result<double> ExactAssignedCost(const uncertain::UncertainDataset& dataset,
                                 const Assignment& assignment);

/// Exact unassigned expected cost Ecost for the given centers.
Result<double> ExactUnassignedCost(const uncertain::UncertainDataset& dataset,
                                   const std::vector<metric::SiteId>& centers);

/// Options bounding the brute-force enumerations.
struct BruteForceCostOptions {
  uint64_t max_realizations = 5'000'000;
};

/// Reference implementation enumerating every realization of Ω.
/// Exponential; refuses instances larger than the option cap.
Result<double> BruteForceAssignedCost(const uncertain::UncertainDataset& dataset,
                                      const Assignment& assignment,
                                      const BruteForceCostOptions& options = {});
Result<double> BruteForceUnassignedCost(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers,
    const BruteForceCostOptions& options = {});

/// Monte-Carlo estimators (sampling realizations with alias tables).
Result<MonteCarloEstimate> MonteCarloAssignedCost(
    const uncertain::UncertainDataset& dataset, const Assignment& assignment,
    int64_t samples, Rng& rng);
Result<MonteCarloEstimate> MonteCarloUnassignedCost(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers, int64_t samples, Rng& rng);

}  // namespace cost
}  // namespace ukc

#endif  // UKC_COST_EXPECTED_COST_H_
