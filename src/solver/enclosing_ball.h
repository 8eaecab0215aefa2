// Minimum enclosing ball (the Euclidean 1-center of certain points).
//
// WelzlMinBall is the exact expected-linear-time randomized algorithm
// [Welzl 1991], implemented for arbitrary dimension via
// circumscribed-ball solves on affinely independent support sets.

#ifndef UKC_SOLVER_ENCLOSING_BALL_H_
#define UKC_SOLVER_ENCLOSING_BALL_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "geometry/point.h"

namespace ukc {
namespace solver {

/// A ball in R^d.
struct Ball {
  geometry::Point center;
  double radius = 0.0;

  /// Whether p lies inside, up to a fixed round-off tolerance
  /// (enclosing_ball.cc).
  bool Contains(const geometry::Point& p) const;
};

/// Exact minimum enclosing ball via Welzl's algorithm. The input must be
/// non-empty and of uniform dimension. `rng` drives the random
/// permutation that makes the expected runtime linear.
Result<Ball> WelzlMinBall(const std::vector<geometry::Point>& points, Rng& rng);

/// The exact smallest ball with all of `support` on its boundary, for an
/// affinely independent support set of size <= d+1 (internal to Welzl,
/// exposed for testing). Degenerate (affinely dependent) supports fail.
Result<Ball> CircumscribedBall(const std::vector<geometry::Point>& support);

}  // namespace solver
}  // namespace ukc

#endif  // UKC_SOLVER_ENCLOSING_BALL_H_
