// Euclidean (and general normed R^d) metric space over an extensible
// point set.
//
// Coordinates live in ONE flat std::vector<double> arena (structure of
// arrays, row-major: site id s occupies [s*dim, (s+1)*dim)), so distance
// evaluations touch contiguous memory and never chase per-point heap
// blocks. Hot paths access sites through geometry::PointView / raw
// coordinate pointers; the boxed geometry::Point accessors materialize a
// copy and are for API boundaries only.

#ifndef UKC_METRIC_EUCLIDEAN_SPACE_H_
#define UKC_METRIC_EUCLIDEAN_SPACE_H_

#include <string>
#include <vector>

#include "geometry/point.h"
#include "geometry/point_view.h"
#include "metric/metric_space.h"

namespace ukc {
namespace metric {

/// Which norm induces the distance. The paper's Euclidean theorems rely
/// only on Lemma 3.1 (d(P̄,Q) ≤ E d(P,Q)), which holds for any norm, so
/// L1 and L∞ are provided for ablation studies.
enum class Norm {
  kL2,
  kL1,
  kLInf,
};

/// Returns a short name ("L2", ...) for a norm.
std::string NormToString(Norm norm);

/// Distance between two raw coordinate arrays under a norm.
inline double NormDistanceKernel(Norm norm, const double* a, const double* b,
                                 size_t dim) {
  switch (norm) {
    case Norm::kL2:
      return geometry::DistanceKernel(a, b, dim);
    case Norm::kL1:
      return geometry::L1DistanceKernel(a, b, dim);
    case Norm::kLInf:
      return geometry::LInfDistanceKernel(a, b, dim);
  }
  return 0.0;
}

/// A normed space R^d over a growable list of points. Sites may be
/// appended (never removed), so SiteIds remain stable; this is how
/// constructed points such as expected points enter the space.
class EuclideanSpace : public MetricSpace {
 public:
  /// An empty space of the given dimension.
  explicit EuclideanSpace(size_t dim, Norm norm = Norm::kL2);

  /// A space populated with the given points (all of dimension dim).
  EuclideanSpace(size_t dim, std::vector<geometry::Point> points,
                 Norm norm = Norm::kL2);

  double Distance(SiteId a, SiteId b) const override {
    return NormDistanceKernel(norm_, coords(a), coords(b), dim_);
  }
  SiteId num_sites() const override { return num_sites_; }
  std::string Name() const override;

  /// Flat scans over the coordinate arena (no per-pair virtual calls).
  double DistanceToSet(SiteId a,
                       const std::vector<SiteId>& candidates) const override;
  SiteId NearestInSet(SiteId a,
                      const std::vector<SiteId>& candidates) const override;

  /// Dimension of the ambient space.
  size_t dim() const { return dim_; }

  /// The norm in use.
  Norm norm() const { return norm_; }

  /// Appends a point and returns its new site id. The point's dimension
  /// must match the space.
  SiteId AddPoint(const geometry::Point& point);

  /// Appends a point given by a raw coordinate array of length dim().
  SiteId AddCoords(const double* data);

  /// Raw coordinates of a site (length dim()). Stable until AddPoint
  /// (the arena may reallocate on growth, like vector iterators).
  const double* coords(SiteId id) const {
    UKC_DCHECK(id >= 0);
    UKC_DCHECK_LT(static_cast<size_t>(id), static_cast<size_t>(num_sites_));
    return coords_.data() + static_cast<size_t>(id) * dim_;
  }

  /// Non-owning view of a site (same lifetime caveat as coords()).
  geometry::PointView view(SiteId id) const {
    return geometry::PointView(coords(id), dim_);
  }

  /// The whole arena (num_sites() * dim() doubles, row-major).
  const std::vector<double>& coord_arena() const { return coords_; }

  /// The point backing a site, materialized as an owning copy. Boundary
  /// use only; hot loops should use view()/coords().
  geometry::Point point(SiteId id) const { return view(id).ToPoint(); }

  /// Distance between a site and a free (unregistered) point.
  double DistanceToPoint(SiteId a, const geometry::Point& p) const {
    UKC_DCHECK_EQ(p.dim(), dim_);
    return NormDistanceKernel(norm_, coords(a), p.coords().data(), dim_);
  }

  /// Copies the coordinates of `sites` into a contiguous row-major
  /// buffer (resized to sites.size() * dim()). Site ids are hard-checked
  /// (all build types). The gathered block is the standard prelude for
  /// solver loops over a site subset.
  void GatherCoords(const std::vector<SiteId>& sites,
                    std::vector<double>* out) const;

 private:
  /// Aborts on an out-of-range id (all build types; the flat scans
  /// validate once up front instead of per access).
  void CheckSite(SiteId id) const;
  size_t dim_;
  Norm norm_;
  SiteId num_sites_ = 0;
  std::vector<double> coords_;  // num_sites_ * dim_, row-major.
};

}  // namespace metric
}  // namespace ukc

#endif  // UKC_METRIC_EUCLIDEAN_SPACE_H_
