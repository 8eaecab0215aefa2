#include "solver/gonzalez.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "metric/euclidean_space.h"

namespace ukc {
namespace solver {

namespace {

// Farthest-first over a gathered flat coordinate block: one pass per
// round over contiguous memory, no virtual dispatch in the inner loop.
KCenterSolution GonzalezFlat(const metric::EuclideanSpace& space,
                             const std::vector<metric::SiteId>& sites,
                             size_t num_centers) {
  const size_t dim = space.dim();
  const metric::Norm norm = space.norm();
  std::vector<double> coords;
  space.GatherCoords(sites, &coords);

  KCenterSolution solution;
  solution.algorithm = "gonzalez";
  solution.approx_factor = 2.0;
  solution.centers.reserve(num_centers);

  std::vector<double> nearest(sites.size(),
                              std::numeric_limits<double>::infinity());
  size_t next = 0;
  for (size_t round = 0; round < num_centers; ++round) {
    solution.centers.push_back(sites[next]);
    const double* center = coords.data() + next * dim;
    double farthest = -1.0;
    size_t farthest_index = 0;
    for (size_t i = 0; i < sites.size(); ++i) {
      const double d =
          metric::NormDistanceKernel(norm, coords.data() + i * dim, center, dim);
      if (d < nearest[i]) nearest[i] = d;
      if (nearest[i] > farthest) {
        farthest = nearest[i];
        farthest_index = i;
      }
    }
    next = farthest_index;
    solution.radius = farthest;
  }
  return solution;
}

}  // namespace

Result<KCenterSolution> Gonzalez(const metric::MetricSpace& space,
                                 const std::vector<metric::SiteId>& sites,
                                 size_t k) {
  if (k == 0) return Status::InvalidArgument("Gonzalez: k must be >= 1");
  if (sites.empty()) return Status::InvalidArgument("Gonzalez: no sites");
  const size_t num_centers = std::min(k, sites.size());

  const auto* euclidean = dynamic_cast<const metric::EuclideanSpace*>(&space);
  if (euclidean != nullptr) {
    KCenterSolution solution = GonzalezFlat(*euclidean, sites, num_centers);
    if (num_centers == sites.size()) solution.radius = 0.0;
    return solution;
  }

  KCenterSolution solution;
  solution.algorithm = "gonzalez";
  solution.approx_factor = 2.0;
  solution.centers.reserve(num_centers);

  // nearest[i] = distance from sites[i] to the closest chosen center.
  std::vector<double> nearest(sites.size(),
                              std::numeric_limits<double>::infinity());
  size_t next = 0;
  for (size_t round = 0; round < num_centers; ++round) {
    const metric::SiteId center = sites[next];
    solution.centers.push_back(center);
    // Relax distances and find the new farthest site in one pass.
    double farthest = -1.0;
    size_t farthest_index = 0;
    for (size_t i = 0; i < sites.size(); ++i) {
      nearest[i] = std::min(nearest[i], space.Distance(sites[i], center));
      if (nearest[i] > farthest) {
        farthest = nearest[i];
        farthest_index = i;
      }
    }
    next = farthest_index;
    solution.radius = farthest;
  }
  if (num_centers == sites.size()) solution.radius = 0.0;
  return solution;
}

}  // namespace solver
}  // namespace ukc
