// Dynamic-dimension Euclidean point/vector type.
//
// The paper's Euclidean results hold in any dimension, so Point carries
// its dimension at runtime. All arithmetic checks dimension agreement
// with UKC_DCHECK (programmer error, not user input).

#ifndef UKC_GEOMETRY_POINT_H_
#define UKC_GEOMETRY_POINT_H_

#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.h"

namespace ukc {
namespace geometry {

/// A point (equivalently, vector) in R^d with runtime dimension d >= 1.
class Point {
 public:
  /// An empty (dimension-0) point; assign before use.
  Point() = default;

  /// The origin of R^dim.
  explicit Point(size_t dim) : coords_(dim, 0.0) {}

  /// From explicit coordinates.
  Point(std::initializer_list<double> coords) : coords_(coords) {}
  explicit Point(std::vector<double> coords) : coords_(std::move(coords)) {}

  /// Dimension of the ambient space.
  size_t dim() const { return coords_.size(); }

  /// Coordinate access.
  double operator[](size_t i) const {
    UKC_DCHECK_LT(i, coords_.size());
    return coords_[i];
  }
  double& operator[](size_t i) {
    UKC_DCHECK_LT(i, coords_.size());
    return coords_[i];
  }

  const std::vector<double>& coords() const { return coords_; }

  /// Vector arithmetic. Dimensions must match.
  Point& operator+=(const Point& other);
  Point& operator-=(const Point& other);
  Point& operator*=(double scale);

  friend Point operator+(Point a, const Point& b) { return a += b; }
  friend Point operator-(Point a, const Point& b) { return a -= b; }
  friend Point operator*(Point a, double s) { return a *= s; }
  friend Point operator*(double s, Point a) { return a *= s; }

  friend bool operator==(const Point& a, const Point& b) {
    return a.coords_ == b.coords_;
  }
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }

  /// Euclidean norm and squared norm.
  double Norm() const;
  double SquaredNorm() const;

  /// Dot product; dimensions must match.
  double Dot(const Point& other) const;

  /// "(x, y, ...)" with %.6g coordinates.
  std::string ToString() const;

 private:
  std::vector<double> coords_;
};

std::ostream& operator<<(std::ostream& os, const Point& p);

/// Euclidean (L2) distance. Dimensions must match.
double Distance(const Point& a, const Point& b);

/// Squared Euclidean distance (no sqrt).
double SquaredDistance(const Point& a, const Point& b);

/// The arithmetic mean of a non-empty set of points.
Point Centroid(const std::vector<Point>& points);

}  // namespace geometry
}  // namespace ukc

#endif  // UKC_GEOMETRY_POINT_H_
