// Static kd-tree over points in R^d for nearest-neighbor queries.
//
// Its one caller is the unassigned expected-cost sweep
// (cost/expected_cost_evaluator.cc, UnassignedCost at k >=
// kDefaultKdTreeCutover centers): every location's nearest center is
// one query, roughly O(log k) instead of the O(k) linear scan. Exact
// (no approximation), with standard median-split construction.
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
  /// Builds the tree in O(n log n) from a flat row-major coordinate
  /// buffer (count = coords.size() / dim points, dim >= 1).
  static Result<KdTree> BuildFlat(std::vector<double> coords, size_t dim);

  /// The exact nearest point to `query` (ties broken arbitrarily).
  /// `query` must have length dim().
  NearestResult Nearest(const double* query) const;

  /// Number of indexed points.
  size_t size() const { return index_.size(); }

  /// Dimension of the indexed points.
  size_t dim() const { return dim_; }

 private:
  KdTree() = default;

  void NearestRecursive(size_t begin, size_t end, size_t depth,
                        const double* query, NearestResult* best) const;

  // coords_[slot * dim_ ..] holds the point at tree slot `slot`;
  // index_[slot] is its index in the construction array.
  std::vector<double> coords_;
  std::vector<uint32_t> index_;
  size_t dim_ = 0;
};

}  // namespace geometry
}  // namespace ukc

#endif  // UKC_GEOMETRY_KDTREE_H_
