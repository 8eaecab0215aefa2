// Flat (structure-of-arrays) geometry: non-owning coordinate views and
// dimension-specialized distance kernels.
//
// The heap-boxed Point type is convenient at API boundaries but hostile
// to hot loops: every distance evaluation chases two vector headers. All
// performance-critical code paths therefore operate on raw coordinate
// spans into a contiguous arena (metric::EuclideanSpace stores one, and
// geometry::KdTree reorders one) and evaluate distances through the
// kernels below, which are fully unrolled for the common d = 1/2/3 and
// never allocate.

#ifndef UKC_GEOMETRY_POINT_VIEW_H_
#define UKC_GEOMETRY_POINT_VIEW_H_

#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "geometry/point.h"

namespace ukc {
namespace geometry {

/// A non-owning view of one point's coordinates inside a flat arena.
/// Cheap to copy (pointer + size); the arena must outlive the view.
class PointView {
 public:
  PointView() = default;
  PointView(const double* data, size_t dim) : data_(data), dim_(dim) {}

  size_t dim() const { return dim_; }
  const double* data() const { return data_; }

  double operator[](size_t i) const {
    UKC_DCHECK_LT(i, dim_);
    return data_[i];
  }

  /// Materializes an owning Point (allocates; boundary use only).
  Point ToPoint() const {
    Point p(dim_);
    for (size_t i = 0; i < dim_; ++i) p[i] = data_[i];
    return p;
  }

 private:
  const double* data_ = nullptr;
  size_t dim_ = 0;
};

/// Squared L2 distance between two coordinate arrays of length `dim`.
/// Unrolled for d = 1/2/3; plain strided loop (auto-vectorizable)
/// otherwise. Never allocates.
inline double SquaredDistanceKernel(const double* a, const double* b,
                                    size_t dim) {
  switch (dim) {
    case 1: {
      const double d0 = a[0] - b[0];
      return d0 * d0;
    }
    case 2: {
      const double d0 = a[0] - b[0];
      const double d1 = a[1] - b[1];
      return d0 * d0 + d1 * d1;
    }
    case 3: {
      const double d0 = a[0] - b[0];
      const double d1 = a[1] - b[1];
      const double d2 = a[2] - b[2];
      return d0 * d0 + d1 * d1 + d2 * d2;
    }
    default: {
      double total = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        const double d = a[i] - b[i];
        total += d * d;
      }
      return total;
    }
  }
}

/// L2 distance between two coordinate arrays.
inline double DistanceKernel(const double* a, const double* b, size_t dim) {
  return std::sqrt(SquaredDistanceKernel(a, b, dim));
}

/// L1 (Manhattan) distance between two coordinate arrays.
inline double L1DistanceKernel(const double* a, const double* b, size_t dim) {
  switch (dim) {
    case 1:
      return std::abs(a[0] - b[0]);
    case 2:
      return std::abs(a[0] - b[0]) + std::abs(a[1] - b[1]);
    case 3:
      return std::abs(a[0] - b[0]) + std::abs(a[1] - b[1]) +
             std::abs(a[2] - b[2]);
    default: {
      double total = 0.0;
      for (size_t i = 0; i < dim; ++i) total += std::abs(a[i] - b[i]);
      return total;
    }
  }
}

/// L∞ (Chebyshev) distance between two coordinate arrays.
inline double LInfDistanceKernel(const double* a, const double* b, size_t dim) {
  double worst = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (d > worst) worst = d;
  }
  return worst;
}

/// View overloads mirroring the Point free functions.
inline double SquaredDistance(PointView a, PointView b) {
  UKC_DCHECK_EQ(a.dim(), b.dim());
  return SquaredDistanceKernel(a.data(), b.data(), a.dim());
}
inline double Distance(PointView a, PointView b) {
  UKC_DCHECK_EQ(a.dim(), b.dim());
  return DistanceKernel(a.data(), b.data(), a.dim());
}

}  // namespace geometry
}  // namespace ukc

#endif  // UKC_GEOMETRY_POINT_VIEW_H_
