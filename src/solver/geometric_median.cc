#include "solver/geometric_median.h"

#include <cmath>

#include "geometry/point_view.h"

namespace ukc {
namespace solver {

using geometry::Point;

namespace {

double FlatObjective(const double* coords, size_t count, size_t dim,
                     const double* weights, const double* q) {
  double total = 0.0;
  for (size_t i = 0; i < count; ++i) {
    total += weights[i] * geometry::DistanceKernel(coords + i * dim, q, dim);
  }
  return total;
}

// Diagonal of the bounding box of `count` flat points.
double FlatBoundingDiagonal(const double* coords, size_t count, size_t dim) {
  double total = 0.0;
  for (size_t a = 0; a < dim; ++a) {
    double lo = coords[a];
    double hi = coords[a];
    for (size_t i = 1; i < count; ++i) {
      const double v = coords[i * dim + a];
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
    total += (hi - lo) * (hi - lo);
  }
  return std::sqrt(total);
}

}  // namespace

Result<GeometricMedianResult> WeightedGeometricMedianFlat(
    const double* coords, size_t count, size_t dim, const double* weights) {
  if (count == 0) {
    return Status::InvalidArgument("WeightedGeometricMedian: no points");
  }
  for (size_t i = 0; i < count; ++i) {
    if (!(weights[i] > 0.0)) {
      return Status::InvalidArgument(
          "WeightedGeometricMedian: weights must be positive");
    }
  }

  GeometricMedianResult result;
  if (count == 1) {
    result.median = geometry::PointView(coords, dim).ToPoint();
    result.objective = 0.0;
    result.converged = true;
    return result;
  }

  // Convergence threshold on the step size, relative to the points'
  // bounding-box diagonal.
  constexpr double kRelativeTolerance = 1e-10;
  constexpr size_t kMaxIterations = 1000;
  const double scale =
      std::max(FlatBoundingDiagonal(coords, count, dim), 1e-300);
  const double step_tolerance = scale * kRelativeTolerance;
  // Anchor-coincidence threshold: treat q as sitting on an anchor when
  // closer than this.
  const double snap = scale * 1e-14;

  // Start from the weighted centroid, which already minimizes the
  // squared-distance relaxation. All iteration state is flat scratch;
  // the loop performs no allocation.
  std::vector<double> q(dim, 0.0);
  double total_weight = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const double* p = coords + i * dim;
    for (size_t a = 0; a < dim; ++a) q[a] += weights[i] * p[a];
    total_weight += weights[i];
  }
  for (size_t a = 0; a < dim; ++a) q[a] /= total_weight;

  std::vector<double> numerator(dim);
  std::vector<double> pull(dim);
  for (result.iterations = 0; result.iterations < kMaxIterations;
       ++result.iterations) {
    // T(q) = sum w_i p_i / d_i / sum w_i / d_i over anchors away from q;
    // Vardi–Zhang: if q coincides with anchor a, step only if the pull
    // R of the other anchors exceeds w_a, scaled by (1 - w_a/|R|).
    std::fill(numerator.begin(), numerator.end(), 0.0);
    std::fill(pull.begin(), pull.end(), 0.0);
    double denominator = 0.0;
    double coincident_weight = 0.0;
    for (size_t i = 0; i < count; ++i) {
      const double* p = coords + i * dim;
      const double d = geometry::DistanceKernel(p, q.data(), dim);
      if (d <= snap) {
        coincident_weight += weights[i];
        continue;
      }
      const double w_over_d = weights[i] / d;
      for (size_t a = 0; a < dim; ++a) {
        numerator[a] += p[a] * w_over_d;
        pull[a] += (p[a] - q[a]) * w_over_d;
      }
      denominator += w_over_d;
    }
    if (denominator == 0.0) {
      // All mass sits exactly at q: q is the median.
      result.converged = true;
      break;
    }
    double damping = 1.0;
    if (coincident_weight > 0.0) {
      double pull_norm2 = 0.0;
      for (size_t a = 0; a < dim; ++a) pull_norm2 += pull[a] * pull[a];
      const double pull_norm = std::sqrt(pull_norm2);
      if (pull_norm <= coincident_weight) {
        // The anchor's weight dominates the drift: q is optimal.
        result.converged = true;
        break;
      }
      damping = 1.0 - coincident_weight / pull_norm;
    }
    double step2 = 0.0;
    for (size_t a = 0; a < dim; ++a) {
      const double target = numerator[a] / denominator;
      const double next = q[a] + (target - q[a]) * damping;
      const double delta = next - q[a];
      step2 += delta * delta;
      q[a] = next;
    }
    if (std::sqrt(step2) <= step_tolerance) {
      result.converged = true;
      break;
    }
  }

  result.median = geometry::PointView(q.data(), dim).ToPoint();
  result.objective = FlatObjective(coords, count, dim, weights, q.data());
  return result;
}

Result<GeometricMedianResult> WeightedGeometricMedian(
    const std::vector<Point>& points, const std::vector<double>& weights) {
  if (points.empty()) {
    return Status::InvalidArgument("WeightedGeometricMedian: no points");
  }
  if (points.size() != weights.size()) {
    return Status::InvalidArgument(
        "WeightedGeometricMedian: points/weights size mismatch");
  }
  const size_t dim = points[0].dim();
  std::vector<double> coords;
  coords.reserve(points.size() * dim);
  for (const Point& p : points) {
    if (p.dim() != dim) {
      return Status::InvalidArgument("WeightedGeometricMedian: mixed dimensions");
    }
    coords.insert(coords.end(), p.coords().begin(), p.coords().end());
  }
  return WeightedGeometricMedianFlat(coords.data(), points.size(), dim,
                                     weights.data());
}

}  // namespace solver
}  // namespace ukc
