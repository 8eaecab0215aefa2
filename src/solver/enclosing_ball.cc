#include "solver/enclosing_ball.h"

#include <algorithm>
#include <cmath>

namespace ukc {
namespace solver {

using geometry::Point;

namespace {

// Round-off tolerance of Ball::Contains: a point counts as inside when
// its distance is at most radius * (1 + kContainsRelativeSlack) +
// kContainsAbsoluteSlack.
constexpr double kContainsRelativeSlack = 1e-9;
constexpr double kContainsAbsoluteSlack = 1e-12;

}  // namespace

bool Ball::Contains(const geometry::Point& p) const {
  const double limit =
      radius * (1.0 + kContainsRelativeSlack) + kContainsAbsoluteSlack;
  return geometry::Distance(center, p) <= limit;
}

Result<Ball> CircumscribedBall(const std::vector<Point>& support) {
  if (support.empty()) {
    return Status::InvalidArgument("CircumscribedBall: empty support");
  }
  const size_t dim = support[0].dim();
  if (support.size() > dim + 1) {
    return Status::InvalidArgument(
        "CircumscribedBall: support larger than dim+1");
  }
  if (support.size() == 1) {
    return Ball{support[0], 0.0};
  }

  // Solve the Gram system: center = p0 + sum_j lambda_j v_j with
  // (center - p0) . v_i = |v_i|^2 / 2, where v_i = p_i - p0.
  const size_t m = support.size() - 1;
  std::vector<Point> v;
  v.reserve(m);
  for (size_t i = 1; i < support.size(); ++i) {
    v.push_back(support[i] - support[0]);
  }
  // Augmented matrix [G | b].
  std::vector<std::vector<double>> a(m, std::vector<double>(m + 1, 0.0));
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) a[i][j] = v[i].Dot(v[j]);
    a[i][m] = v[i].SquaredNorm() / 2.0;
  }
  // Gaussian elimination with partial pivoting.
  for (size_t col = 0; col < m; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < m; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (std::abs(a[pivot][col]) < 1e-12) {
      return Status::FailedPrecondition(
          "CircumscribedBall: affinely dependent (degenerate) support");
    }
    std::swap(a[col], a[pivot]);
    for (size_t row = col + 1; row < m; ++row) {
      const double factor = a[row][col] / a[col][col];
      for (size_t j = col; j <= m; ++j) a[row][j] -= factor * a[col][j];
    }
  }
  std::vector<double> lambda(m, 0.0);
  for (size_t row = m; row-- > 0;) {
    double value = a[row][m];
    for (size_t j = row + 1; j < m; ++j) value -= a[row][j] * lambda[j];
    lambda[row] = value / a[row][row];
  }

  Point center = support[0];
  for (size_t j = 0; j < m; ++j) center += v[j] * lambda[j];
  return Ball{center, geometry::Distance(center, support[0])};
}

namespace {

// Smallest ball with all support points on the boundary; the "empty"
// ball (radius -1, contains nothing) for an empty support.
Ball TrivialBall(const std::vector<Point>& support, size_t dim) {
  if (support.empty()) {
    Ball ball;
    ball.center = Point(dim);
    ball.radius = -1.0;
    return ball;
  }
  auto ball = CircumscribedBall(support);
  if (ball.ok()) return std::move(ball).value();
  // Degenerate support (possible only through round-off, since callers
  // add support points one at a time and only when strictly outside):
  // fall back to the two extreme points.
  Ball fallback;
  fallback.center = support[0];
  fallback.radius = 0.0;
  for (const Point& p : support) {
    fallback.radius = std::max(fallback.radius,
                               geometry::Distance(fallback.center, p));
  }
  return fallback;
}

// Welzl with move-to-front [Gärtner 1999 style]: the recursion is over
// the support only (depth <= dim+2); the point list is scanned
// iteratively with successful boundary points moved to the front.
class WelzlSolver {
 public:
  WelzlSolver(std::vector<Point> points, size_t dim)
      : points_(std::move(points)), dim_(dim) {}

  Ball Run() {
    std::vector<Point> support;
    return MinBall(points_.size(), &support);
  }

 private:
  Ball MinBall(size_t prefix, std::vector<Point>* support) {
    Ball ball = TrivialBall(*support, dim_);
    if (support->size() == dim_ + 1) return ball;
    for (size_t i = 0; i < prefix; ++i) {
      if (ball.Contains(points_[i])) continue;
      support->push_back(points_[i]);
      ball = MinBall(i, support);
      support->pop_back();
      // Move-to-front: keeps hard points early, making the expected
      // number of restarts linear.
      std::rotate(points_.begin(), points_.begin() + i,
                  points_.begin() + i + 1);
    }
    return ball;
  }

  std::vector<Point> points_;
  size_t dim_;
};

}  // namespace

Result<Ball> WelzlMinBall(const std::vector<Point>& points, Rng& rng) {
  if (points.empty()) {
    return Status::InvalidArgument("WelzlMinBall: no points");
  }
  const size_t dim = points[0].dim();
  for (const Point& p : points) {
    if (p.dim() != dim) {
      return Status::InvalidArgument("WelzlMinBall: mixed dimensions");
    }
  }
  std::vector<Point> shuffled(points);
  rng.Shuffle(&shuffled);
  WelzlSolver solver(std::move(shuffled), dim);
  return solver.Run();
}

}  // namespace solver
}  // namespace ukc
