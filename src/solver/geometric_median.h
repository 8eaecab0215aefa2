// Weighted geometric median (Fermat–Weber point) by Weiszfeld iteration
// with the Vardi–Zhang fix at anchor points.
//
// For a single uncertain point P in Euclidean space, the point
// minimizing the expected distance E[d(P̂, q)] = Σ p_j d(P_j, q) is
// exactly the probability-weighted geometric median of its locations —
// the paper's P̃ (the "1-center of the single uncertain point") in the
// Euclidean case. It is used by the ablation benches comparing P̄
// (expected point) against P̃ as the surrogate.

#ifndef UKC_SOLVER_GEOMETRIC_MEDIAN_H_
#define UKC_SOLVER_GEOMETRIC_MEDIAN_H_

#include <vector>

#include "common/result.h"
#include "geometry/point.h"

namespace ukc {
namespace solver {

/// Result: the (near-)optimal point and its weighted-distance objective.
struct GeometricMedianResult {
  geometry::Point median;
  /// Σ w_i d(p_i, median).
  double objective = 0.0;
  size_t iterations = 0;
  bool converged = false;
};

/// Minimizes Σ w_i d(p_i, q) over q in R^d. Weights must be positive;
/// points must be non-empty and of uniform dimension. The objective is
/// convex, and Weiszfeld converges to the global optimum; accuracy is
/// bounded by the step tolerance (1e-10 of the points' bounding-box
/// diagonal, at most 1000 iterations), not a constant factor.
Result<GeometricMedianResult> WeightedGeometricMedian(
    const std::vector<geometry::Point>& points,
    const std::vector<double>& weights);

/// Same, over a flat row-major coordinate buffer (`count` points of
/// dimension `dim`). The allocation-free core: the iteration touches
/// only the caller's buffers plus O(dim) scratch. Preferred for hot
/// paths (surrogate construction reads the arena directly).
Result<GeometricMedianResult> WeightedGeometricMedianFlat(
    const double* coords, size_t count, size_t dim, const double* weights);

}  // namespace solver
}  // namespace ukc

#endif  // UKC_SOLVER_GEOMETRIC_MEDIAN_H_
