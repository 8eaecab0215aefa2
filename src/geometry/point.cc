#include "geometry/point.h"

#include <cmath>

#include "common/strings.h"
#include "geometry/point_view.h"

namespace ukc {
namespace geometry {

Point& Point::operator+=(const Point& other) {
  UKC_DCHECK_EQ(dim(), other.dim());
  for (size_t i = 0; i < coords_.size(); ++i) coords_[i] += other.coords_[i];
  return *this;
}

Point& Point::operator-=(const Point& other) {
  UKC_DCHECK_EQ(dim(), other.dim());
  for (size_t i = 0; i < coords_.size(); ++i) coords_[i] -= other.coords_[i];
  return *this;
}

Point& Point::operator*=(double scale) {
  for (double& c : coords_) c *= scale;
  return *this;
}

double Point::SquaredNorm() const {
  double total = 0.0;
  for (double c : coords_) total += c * c;
  return total;
}

double Point::Norm() const { return std::sqrt(SquaredNorm()); }

double Point::Dot(const Point& other) const {
  UKC_DCHECK_EQ(dim(), other.dim());
  double total = 0.0;
  for (size_t i = 0; i < coords_.size(); ++i) total += coords_[i] * other.coords_[i];
  return total;
}

std::string Point::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < coords_.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%.6g", coords_[i]);
  }
  out += ")";
  return out;
}

std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << p.ToString();
}

double SquaredDistance(const Point& a, const Point& b) {
  UKC_DCHECK_EQ(a.dim(), b.dim());
  return SquaredDistanceKernel(a.coords().data(), b.coords().data(), a.dim());
}

double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

Point Centroid(const std::vector<Point>& points) {
  UKC_CHECK(!points.empty());
  Point sum(points[0].dim());
  for (const Point& p : points) sum += p;
  return sum * (1.0 / static_cast<double>(points.size()));
}

}  // namespace geometry
}  // namespace ukc
