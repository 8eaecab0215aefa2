// Exact continuous Euclidean k-center for tiny instances, by
// enumerating all partitions of the points into at most k clusters
// (restricted-growth enumeration, so label permutations are not
// revisited) and taking each cluster's exact minimum enclosing ball.
//
// This is the epsilon = 0 instantiation of the paper's "(1+eps)-
// approximation algorithm for certain points" on instances small enough
// to afford it, and the ground truth against which the experiment
// harness measures every Euclidean approximation ratio.

#ifndef UKC_SOLVER_PARTITION_EXACT_H_
#define UKC_SOLVER_PARTITION_EXACT_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "geometry/point.h"

namespace ukc {
namespace solver {

/// Exact continuous k-center solution over points in R^d.
struct ContinuousKCenterSolution {
  std::vector<geometry::Point> centers;
  double radius = 0.0;
  /// cluster_of[i] = index into centers for point i.
  std::vector<size_t> cluster_of;
};

/// Options for ExactPartitionKCenter.
struct PartitionExactOptions {
  uint64_t seed = 17;  // Drives the Welzl shuffles.
};

/// Finds the optimal continuous k-center of `points` exactly. Intended
/// for n <= ~14 with k <= 4; the partition count is checked up front,
/// and instances with more than 20'000'000 partitions are refused.
Result<ContinuousKCenterSolution> ExactPartitionKCenter(
    const std::vector<geometry::Point>& points, size_t k,
    const PartitionExactOptions& options = {});

/// Number of partitions of n items into at most k non-empty unlabeled
/// blocks (sum of Stirling numbers of the second kind), saturating.
uint64_t PartitionCount(size_t n, size_t k);

}  // namespace solver
}  // namespace ukc

#endif  // UKC_SOLVER_PARTITION_EXACT_H_
