// A true (1+eps)-approximation for the Euclidean k-center problem with
// small k (Agarwal–Procopiuc-style grid discretization).
//
// Bracket the optimum with Gonzalez (opt in [r_G/2, r_G]), then binary
// search the radius r. The decision procedure snaps space to a grid of
// cell size eps'·r/sqrt(d), collects as candidate centers the grid
// points near input points, and searches for k candidates covering all
// points at radius (1+eps')r by bounded-depth branch and bound (an
// uncovered point can only be covered by the O((1/eps')^d) candidates
// within its ball, so the branching factor is a constant for fixed eps
// and d). Runtime is exponential in k — exactly like the (1+eps)
// algorithms the paper cites — and practical for k <= ~5, d <= 3.

#ifndef UKC_SOLVER_GRID_KCENTER_H_
#define UKC_SOLVER_GRID_KCENTER_H_

#include "common/result.h"
#include "geometry/point.h"
#include "solver/partition_exact.h"

namespace ukc {
namespace solver {

/// Options for GridKCenter.
struct GridKCenterOptions {
  /// Target approximation: returned radius <= (1+eps) * optimum.
  double eps = 0.25;
};

/// Computes a (1+eps)-approximate k-center of `points` in R^d.
/// Fails when a decision would exceed 200'000 candidates (a safety
/// valve against tiny eps in high dimension) or 5'000'000
/// branch-and-bound nodes (reduce k, increase eps, or use Gonzalez
/// instead).
Result<ContinuousKCenterSolution> GridKCenter(
    const std::vector<geometry::Point>& points, size_t k,
    const GridKCenterOptions& options = {});

}  // namespace solver
}  // namespace ukc

#endif  // UKC_SOLVER_GRID_KCENTER_H_
