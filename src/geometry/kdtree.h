// Static kd-tree over points in R^d for nearest-neighbor queries.
//
// Used to accelerate the assignment phase of the pipeline (nearest
// center to each surrogate) and the Gonzalez relaxation on large
// Euclidean instances: brute force is O(n k), the tree answers nearest
// queries in roughly O(log k) for the small center sets k-center
// produces. Exact (no approximation), with standard median-split
// construction.
//
// Storage is fully flat (structure of arrays): the point coordinates are
// reordered once at build time into a single contiguous buffer laid out
// in *implicit median order* — the subtree over slot range [begin, end)
// has its root at slot begin + (end - begin) / 2 and splits on axis
// depth % d. There are no per-node Point copies, no child pointers, and
// queries touch only the coordinate buffer and one index array.

#ifndef UKC_GEOMETRY_KDTREE_H_
#define UKC_GEOMETRY_KDTREE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "geometry/point.h"
#include "geometry/point_view.h"

namespace ukc {
namespace geometry {

/// A nearest-neighbor answer: index into the construction array plus
/// the (squared) distance.
struct NearestResult {
  size_t index = 0;
  double squared_distance = 0.0;
};

/// Immutable kd-tree. Build once, query many times.
class KdTree {
 public:
  /// Builds the tree in O(n log n) from boxed points (flattened once).
  /// All points must share one dimension >= 1.
  static Result<KdTree> Build(const std::vector<Point>& points);

  /// Builds from a flat row-major coordinate buffer (count = coords.size
  /// / dim points). The preferred entry point: no boxing anywhere.
  static Result<KdTree> BuildFlat(std::vector<double> coords, size_t dim);

  /// The exact nearest point to `query` (ties broken arbitrarily).
  /// `query` must have length dim() / dimension dim().
  NearestResult Nearest(const double* query) const;
  NearestResult Nearest(const Point& query) const {
    UKC_DCHECK_EQ(query.dim(), dim_);
    return Nearest(query.coords().data());
  }

  /// All point indices within `radius` (inclusive) of `query`.
  std::vector<size_t> WithinRadius(const double* query, double radius) const;
  std::vector<size_t> WithinRadius(const Point& query, double radius) const {
    UKC_DCHECK_EQ(query.dim(), dim_);
    return WithinRadius(query.coords().data(), radius);
  }

  /// Number of indexed points.
  size_t size() const { return index_.size(); }

  /// Dimension of the indexed points.
  size_t dim() const { return dim_; }

  /// The point for an index returned by a query (i.e. an index into the
  /// construction array), materialized as an owning copy.
  Point point(size_t index) const;

 private:
  KdTree() = default;

  void NearestRecursive(size_t begin, size_t end, size_t depth,
                        const double* query, NearestResult* best) const;
  void RadiusRecursive(size_t begin, size_t end, size_t depth,
                       const double* query, double squared_radius,
                       std::vector<size_t>* out) const;

  // coords_[slot * dim_ ..] holds the point at tree slot `slot`;
  // index_[slot] is its index in the construction array.
  std::vector<double> coords_;
  std::vector<uint32_t> index_;
  size_t dim_ = 0;
};

}  // namespace geometry
}  // namespace ukc

#endif  // UKC_GEOMETRY_KDTREE_H_
