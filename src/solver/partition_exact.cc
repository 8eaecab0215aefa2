#include "solver/partition_exact.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"
#include "solver/enclosing_ball.h"

namespace ukc {
namespace solver {

using geometry::Point;

uint64_t PartitionCount(size_t n, size_t k) {
  // stirling[j] = S(i, j) for the current i, built incrementally.
  // S(i, j) = j*S(i-1, j) + S(i-1, j-1).
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> stirling(k + 1, 0);
  stirling[0] = 1;  // S(0,0)=1.
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = std::min(i, k); j >= 1; --j) {
      const uint64_t a = stirling[j];
      const uint64_t b = stirling[j - 1];
      if (a > (kMax - b) / j) return kMax;  // Saturate.
      stirling[j] = j * a + b;
    }
    stirling[0] = 0;
  }
  uint64_t total = 0;
  for (size_t j = 1; j <= k; ++j) {
    if (total > kMax - stirling[j]) return kMax;
    total += stirling[j];
  }
  return total;
}

namespace {

// Restricted-growth-string enumeration with branch-and-bound: maintains
// per-cluster point lists; computes cluster balls only at leaves, but
// prunes using the incremental farthest-pair lower bound (half the
// cluster diameter lower-bounds its enclosing-ball radius).
class PartitionSearch {
 public:
  PartitionSearch(const std::vector<Point>& points, size_t k, uint64_t seed)
      : points_(points), k_(k), rng_(seed) {}

  Result<ContinuousKCenterSolution> Run() {
    best_radius_ = std::numeric_limits<double>::infinity();
    labels_.assign(points_.size(), 0);
    cluster_members_.assign(k_, {});
    cluster_diameter_.assign(k_, 0.0);
    UKC_RETURN_IF_ERROR(Recurse(0, 0));
    ContinuousKCenterSolution solution;
    solution.radius = best_radius_;
    solution.cluster_of = best_labels_;
    // Rebuild the centers from the winning labeling.
    size_t num_clusters = 0;
    for (size_t label : best_labels_) {
      num_clusters = std::max(num_clusters, label + 1);
    }
    for (size_t c = 0; c < num_clusters; ++c) {
      std::vector<Point> members;
      for (size_t i = 0; i < points_.size(); ++i) {
        if (best_labels_[i] == c) members.push_back(points_[i]);
      }
      UKC_ASSIGN_OR_RETURN(Ball ball, WelzlMinBall(members, rng_));
      solution.centers.push_back(ball.center);
    }
    return solution;
  }

 private:
  Status Recurse(size_t i, size_t used) {
    if (i == points_.size()) {
      double radius = 0.0;
      for (size_t c = 0; c < used; ++c) {
        UKC_ASSIGN_OR_RETURN(Ball ball, ClusterBall(c));
        radius = std::max(radius, ball.radius);
        if (radius >= best_radius_) return Status::OK();
      }
      if (radius < best_radius_) {
        best_radius_ = radius;
        best_labels_ = labels_;
      }
      return Status::OK();
    }
    const size_t limit = std::min(used + 1, k_);
    for (size_t c = 0; c < limit; ++c) {
      // Incremental diameter bound: ball radius >= diameter / 2.
      const double saved_diameter = cluster_diameter_[c];
      double diameter = saved_diameter;
      for (size_t member : cluster_members_[c]) {
        diameter = std::max(
            diameter, geometry::Distance(points_[member], points_[i]));
      }
      if (diameter / 2.0 >= best_radius_) continue;

      labels_[i] = c;
      cluster_members_[c].push_back(i);
      cluster_diameter_[c] = diameter;
      UKC_RETURN_IF_ERROR(Recurse(i + 1, std::max(used, c + 1)));
      cluster_members_[c].pop_back();
      cluster_diameter_[c] = saved_diameter;
    }
    return Status::OK();
  }

  Result<Ball> ClusterBall(size_t c) {
    std::vector<Point> members;
    members.reserve(cluster_members_[c].size());
    for (size_t member : cluster_members_[c]) members.push_back(points_[member]);
    return WelzlMinBall(members, rng_);
  }

  const std::vector<Point>& points_;
  const size_t k_;
  Rng rng_;
  double best_radius_ = 0.0;
  std::vector<size_t> labels_;
  std::vector<size_t> best_labels_;
  std::vector<std::vector<size_t>> cluster_members_;
  std::vector<double> cluster_diameter_;
};

}  // namespace

Result<ContinuousKCenterSolution> ExactPartitionKCenter(
    const std::vector<Point>& points, size_t k,
    const PartitionExactOptions& options) {
  if (k == 0) {
    return Status::InvalidArgument("ExactPartitionKCenter: k must be >= 1");
  }
  if (points.empty()) {
    return Status::InvalidArgument("ExactPartitionKCenter: no points");
  }
  const size_t dim = points[0].dim();
  for (const Point& p : points) {
    if (p.dim() != dim) {
      return Status::InvalidArgument("ExactPartitionKCenter: mixed dimensions");
    }
  }
  constexpr uint64_t kMaxPartitions = 20'000'000;
  const uint64_t partitions = PartitionCount(points.size(), k);
  if (partitions > kMaxPartitions) {
    return Status::InvalidArgument(
        StrFormat("ExactPartitionKCenter: %llu partitions exceeds the limit "
                  "%llu (n=%zu, k=%zu)",
                  static_cast<unsigned long long>(partitions),
                  static_cast<unsigned long long>(kMaxPartitions),
                  points.size(), k));
  }
  PartitionSearch search(points, k, options.seed);
  return search.Run();
}

}  // namespace solver
}  // namespace ukc
