#include "cost/expected_cost.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "common/strings.h"

namespace ukc {
namespace cost {

namespace {

// The scratch behind the free functions. Thread-local so concurrent
// callers never share mutable state; per-thread reuse keeps repeated
// one-off calls (benches, local search loops that predate the evaluator)
// allocation-free after warm-up.
ExpectedCostEvaluator& ThreadLocalEvaluator() {
  static thread_local ExpectedCostEvaluator evaluator;
  return evaluator;
}

}  // namespace

double ExpectedMaxOfIndependent(
    const std::vector<DiscreteDistribution>& distributions) {
  return ThreadLocalEvaluator().ExpectedMaxOfIndependent(distributions);
}

Result<double> ExactAssignedCost(const uncertain::UncertainDataset& dataset,
                                 const Assignment& assignment) {
  return ThreadLocalEvaluator().AssignedCost(dataset, assignment);
}

Result<double> ExactUnassignedCost(const uncertain::UncertainDataset& dataset,
                                   const std::vector<metric::SiteId>& centers) {
  return ThreadLocalEvaluator().UnassignedCost(dataset, centers);
}

Result<MonteCarloEstimate> MonteCarloAssignedCost(
    const uncertain::UncertainDataset& dataset, const Assignment& assignment,
    int64_t samples, Rng& rng) {
  return ThreadLocalEvaluator().MonteCarloAssignedCost(dataset, assignment,
                                                       samples, rng);
}

Result<MonteCarloEstimate> MonteCarloUnassignedCost(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers, int64_t samples, Rng& rng) {
  return ThreadLocalEvaluator().MonteCarloUnassignedCost(dataset, centers,
                                                         samples, rng);
}

namespace {

// Shared recursion for the exponential reference implementations.
template <typename DistanceOfLocation>
Result<double> BruteForceCost(const uncertain::UncertainDataset& dataset,
                              DistanceOfLocation distance,
                              const BruteForceCostOptions& options) {
  // Count realizations with saturation.
  uint64_t realizations = 1;
  for (size_t i = 0; i < dataset.n(); ++i) {
    const uint64_t z = dataset.point(i).num_locations();
    if (realizations > options.max_realizations / z) {
      return Status::InvalidArgument(
          StrFormat("BruteForceCost: more than %llu realizations",
                    static_cast<unsigned long long>(options.max_realizations)));
    }
    realizations *= z;
  }

  KahanSum expectation;
  std::vector<size_t> choice(dataset.n(), 0);
  while (true) {
    double probability = 1.0;
    double worst = 0.0;
    for (size_t i = 0; i < dataset.n(); ++i) {
      const uncertain::Location& loc = dataset.point(i).location(choice[i]);
      probability *= loc.probability;
      worst = std::max(worst, distance(i, loc.site));
    }
    expectation.Add(probability * worst);
    // Odometer increment.
    size_t i = 0;
    for (; i < dataset.n(); ++i) {
      if (++choice[i] < dataset.point(i).num_locations()) break;
      choice[i] = 0;
    }
    if (i == dataset.n()) break;
  }
  return expectation.Total();
}

}  // namespace

Result<double> BruteForceAssignedCost(const uncertain::UncertainDataset& dataset,
                                      const Assignment& assignment,
                                      const BruteForceCostOptions& options) {
  if (assignment.size() != dataset.n()) {
    return Status::InvalidArgument("BruteForceAssignedCost: size mismatch");
  }
  const metric::MetricSpace& space = dataset.space();
  return BruteForceCost(
      dataset,
      [&](size_t i, metric::SiteId site) {
        return space.Distance(site, assignment[i]);
      },
      options);
}

Result<double> BruteForceUnassignedCost(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers,
    const BruteForceCostOptions& options) {
  if (centers.empty()) {
    return Status::InvalidArgument("BruteForceUnassignedCost: no centers");
  }
  const metric::MetricSpace& space = dataset.space();
  return BruteForceCost(
      dataset,
      [&](size_t, metric::SiteId site) {
        return space.DistanceToSet(site, centers);
      },
      options);
}

}  // namespace cost
}  // namespace ukc
