#include "cost/assignment.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "metric/euclidean_space.h"

namespace ukc {
namespace cost {

std::string AssignmentRuleToString(AssignmentRule rule) {
  switch (rule) {
    case AssignmentRule::kExpectedDistance:
      return "ED";
    case AssignmentRule::kExpectedPoint:
      return "EP";
    case AssignmentRule::kOneCenter:
      return "OC";
  }
  return "?";
}

Result<Assignment> AssignExpectedDistance(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers, ThreadPool* shared_pool) {
  if (centers.empty()) {
    return Status::InvalidArgument("AssignExpectedDistance: no centers");
  }
  Assignment assignment(dataset.n(), metric::kInvalidSite);
  ScopedPool pool(shared_pool, 1);
  const metric::EuclideanSpace* euclidean = dataset.euclidean();
  if (euclidean != nullptr) {
    // Flat path: gather the center coordinates once, then the O(n z k)
    // triple loop runs entirely over contiguous memory with the
    // dimension-specialized kernel — no virtual dispatch inside. The
    // per-point argmins are independent, so they shard over the pool.
    const size_t dim = euclidean->dim();
    const metric::Norm norm = euclidean->norm();
    std::vector<double> center_coords;
    euclidean->GatherCoords(centers, &center_coords);
    const metric::SiteId* sites = dataset.flat_sites().data();
    const double* probabilities = dataset.flat_probabilities().data();
    const size_t* offsets = dataset.offsets().data();
    pool->ParallelFor(dataset.n(), [&](int, size_t i) {
      size_t best = 0;
      double best_value = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < centers.size(); ++c) {
        const double* center = center_coords.data() + c * dim;
        double value = 0.0;
        for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
          value += probabilities[l] *
                   metric::NormDistanceKernel(norm, euclidean->coords(sites[l]),
                                              center, dim);
        }
        if (value < best_value) {
          best_value = value;
          best = c;
        }
      }
      assignment[i] = centers[best];
    });
    return assignment;
  }
  pool->ParallelFor(dataset.n(), [&](int, size_t i) {
    assignment[i] =
        dataset.point(i).MinExpectedDistanceSite(dataset.space(), centers);
  });
  return assignment;
}

Result<Assignment> AssignBySurrogate(const uncertain::UncertainDataset& dataset,
                                     const std::vector<metric::SiteId>& surrogates,
                                     const std::vector<metric::SiteId>& centers) {
  if (centers.empty()) {
    return Status::InvalidArgument("AssignBySurrogate: no centers");
  }
  if (surrogates.size() != dataset.n()) {
    return Status::InvalidArgument(
        StrFormat("AssignBySurrogate: %zu surrogates for %zu points",
                  surrogates.size(), dataset.n()));
  }
  Assignment assignment(dataset.n(), metric::kInvalidSite);
  for (size_t i = 0; i < dataset.n(); ++i) {
    assignment[i] = dataset.space().NearestInSet(surrogates[i], centers);
  }
  return assignment;
}

Status ValidateAssignment(const uncertain::UncertainDataset& dataset,
                          const std::vector<metric::SiteId>& centers,
                          const Assignment& assignment) {
  if (assignment.size() != dataset.n()) {
    return Status::InvalidArgument(
        StrFormat("assignment covers %zu points, dataset has %zu",
                  assignment.size(), dataset.n()));
  }
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (std::find(centers.begin(), centers.end(), assignment[i]) ==
        centers.end()) {
      return Status::InvalidArgument(
          StrFormat("assignment[%zu]=%d is not one of the centers", i,
                    assignment[i]));
    }
  }
  return Status::OK();
}

}  // namespace cost
}  // namespace ukc
