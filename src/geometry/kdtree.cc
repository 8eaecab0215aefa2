#include "geometry/kdtree.h"

#include <algorithm>
#include <limits>

#include "geometry/point_view.h"

namespace ukc {
namespace geometry {

namespace {

// Arranges order[begin, end) into implicit median layout: the subtree
// over slot range [begin, end) has its root (the median along axis
// depth % dim) at the middle slot, recursively.
void ImplicitMedianLayout(std::vector<uint32_t>* order, const double* coords,
                          size_t dim, size_t begin, size_t end, size_t depth) {
  if (end - begin <= 1) return;
  const size_t axis = depth % dim;
  const size_t median = begin + (end - begin) / 2;
  std::nth_element(order->begin() + begin, order->begin() + median,
                   order->begin() + end, [&](uint32_t a, uint32_t b) {
                     return coords[a * dim + axis] < coords[b * dim + axis];
                   });
  ImplicitMedianLayout(order, coords, dim, begin, median, depth + 1);
  ImplicitMedianLayout(order, coords, dim, median + 1, end, depth + 1);
}

}  // namespace

Result<KdTree> KdTree::BuildFlat(std::vector<double> coords, size_t dim) {
  if (dim == 0) {
    return Status::InvalidArgument("KdTree: zero-dimensional points");
  }
  if (coords.empty()) {
    return Status::InvalidArgument("KdTree: no points");
  }
  if (coords.size() % dim != 0) {
    return Status::InvalidArgument("KdTree: coords not a multiple of dim");
  }
  const size_t count = coords.size() / dim;

  KdTree tree;
  tree.dim_ = dim;
  std::vector<uint32_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = static_cast<uint32_t>(i);
  ImplicitMedianLayout(&order, coords.data(), dim, 0, count, 0);

  // Gather the input coordinates into tree order.
  tree.coords_.resize(coords.size());
  for (size_t slot = 0; slot < count; ++slot) {
    const double* src = coords.data() + static_cast<size_t>(order[slot]) * dim;
    double* dst = tree.coords_.data() + slot * dim;
    for (size_t a = 0; a < dim; ++a) dst[a] = src[a];
  }
  tree.index_ = std::move(order);
  return tree;
}

NearestResult KdTree::Nearest(const double* query) const {
  NearestResult best;
  best.squared_distance = std::numeric_limits<double>::infinity();
  NearestRecursive(0, index_.size(), 0, query, &best);
  return best;
}

void KdTree::NearestRecursive(size_t begin, size_t end, size_t depth,
                              const double* query, NearestResult* best) const {
  if (begin >= end) return;
  const size_t mid = begin + (end - begin) / 2;
  const double* here = coords_.data() + mid * dim_;
  const double d2 = SquaredDistanceKernel(here, query, dim_);
  if (d2 < best->squared_distance) {
    best->squared_distance = d2;
    best->index = index_[mid];
  }
  if (end - begin == 1) return;
  const size_t axis = depth % dim_;
  const double delta = query[axis] - here[axis];
  if (delta <= 0.0) {
    NearestRecursive(begin, mid, depth + 1, query, best);
    // The far side can only help if the splitting plane is closer than
    // the incumbent.
    if (delta * delta < best->squared_distance) {
      NearestRecursive(mid + 1, end, depth + 1, query, best);
    }
  } else {
    NearestRecursive(mid + 1, end, depth + 1, query, best);
    if (delta * delta < best->squared_distance) {
      NearestRecursive(begin, mid, depth + 1, query, best);
    }
  }
}

}  // namespace geometry
}  // namespace ukc
