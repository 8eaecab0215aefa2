#include "metric/euclidean_space.h"

#include <limits>

#include "common/strings.h"

namespace ukc {
namespace metric {

std::string NormToString(Norm norm) {
  switch (norm) {
    case Norm::kL2:
      return "L2";
    case Norm::kL1:
      return "L1";
    case Norm::kLInf:
      return "LInf";
  }
  return "?";
}

EuclideanSpace::EuclideanSpace(size_t dim, Norm norm) : dim_(dim), norm_(norm) {
  UKC_CHECK_GE(dim, 1u);
}

EuclideanSpace::EuclideanSpace(size_t dim, std::vector<geometry::Point> points,
                               Norm norm)
    : dim_(dim), norm_(norm) {
  UKC_CHECK_GE(dim, 1u);
  coords_.reserve(points.size() * dim_);
  for (const auto& p : points) {
    UKC_CHECK_EQ(p.dim(), dim_) << "point dimension mismatch";
    coords_.insert(coords_.end(), p.coords().begin(), p.coords().end());
  }
  num_sites_ = static_cast<SiteId>(points.size());
}

std::string EuclideanSpace::Name() const {
  return StrFormat("%s(R^%zu, %d sites)", NormToString(norm_).c_str(), dim_,
                   static_cast<int>(num_sites_));
}

SiteId EuclideanSpace::AddPoint(const geometry::Point& point) {
  UKC_CHECK_EQ(point.dim(), dim_) << "point dimension mismatch";
  return AddCoords(point.coords().data());
}

SiteId EuclideanSpace::AddCoords(const double* data) {
  coords_.insert(coords_.end(), data, data + dim_);
  return num_sites_++;
}

void EuclideanSpace::CheckSite(SiteId id) const {
  UKC_CHECK(id >= 0 && id < num_sites_) << "site id out of range: " << id;
}

double EuclideanSpace::DistanceToSet(SiteId a,
                                     const std::vector<SiteId>& candidates) const {
  // Hard-check ids up front (the old boxed accessor checked every
  // access); the scan itself then runs unchecked over the arena.
  CheckSite(a);
  for (SiteId c : candidates) CheckSite(c);
  const double* from = coords(a);
  double best = std::numeric_limits<double>::infinity();
  for (SiteId c : candidates) {
    const double d = NormDistanceKernel(norm_, from, coords(c), dim_);
    if (d < best) best = d;
  }
  return best;
}

SiteId EuclideanSpace::NearestInSet(SiteId a,
                                    const std::vector<SiteId>& candidates) const {
  CheckSite(a);
  for (SiteId c : candidates) CheckSite(c);
  const double* from = coords(a);
  SiteId best = kInvalidSite;
  double best_distance = std::numeric_limits<double>::infinity();
  for (SiteId c : candidates) {
    const double d = NormDistanceKernel(norm_, from, coords(c), dim_);
    if (d < best_distance) {
      best_distance = d;
      best = c;
    }
  }
  return best;
}

void EuclideanSpace::GatherCoords(const std::vector<SiteId>& sites,
                                  std::vector<double>* out) const {
  UKC_CHECK(out != nullptr);
  for (SiteId s : sites) CheckSite(s);
  out->resize(sites.size() * dim_);
  double* dst = out->data();
  for (SiteId s : sites) {
    const double* src = coords(s);
    for (size_t a = 0; a < dim_; ++a) dst[a] = src[a];
    dst += dim_;
  }
}

}  // namespace metric
}  // namespace ukc
