// Tests for the continuous 1-center substrate: circumscribed balls,
// Welzl's exact minimum enclosing ball, the exact partition k-center,
// and the weighted geometric median.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "geometry/point.h"
#include "metric/euclidean_space.h"
#include "solver/brute_force.h"
#include "solver/enclosing_ball.h"
#include "solver/geometric_median.h"
#include "solver/partition_exact.h"

namespace ukc {
namespace solver {
namespace {

using geometry::Point;

std::vector<Point> RandomPoints(size_t n, size_t dim, uint64_t seed,
                                double scale = 10.0) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point p(dim);
    for (size_t a = 0; a < dim; ++a) p[a] = rng.UniformDouble(0.0, scale);
    points.push_back(std::move(p));
  }
  return points;
}

// --- CircumscribedBall ---

TEST(CircumscribedBallTest, SinglePoint) {
  auto ball = CircumscribedBall({Point{1.0, 2.0}});
  ASSERT_TRUE(ball.ok());
  EXPECT_EQ(ball->center, (Point{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(ball->radius, 0.0);
}

TEST(CircumscribedBallTest, TwoPointsMidpoint) {
  auto ball = CircumscribedBall({Point{0.0, 0.0}, Point{2.0, 0.0}});
  ASSERT_TRUE(ball.ok());
  EXPECT_EQ(ball->center, (Point{1.0, 0.0}));
  EXPECT_DOUBLE_EQ(ball->radius, 1.0);
}

TEST(CircumscribedBallTest, RightTriangleHypotenuse) {
  // Circumcenter of a right triangle is the hypotenuse midpoint.
  auto ball = CircumscribedBall(
      {Point{0.0, 0.0}, Point{4.0, 0.0}, Point{0.0, 3.0}});
  ASSERT_TRUE(ball.ok());
  EXPECT_NEAR(ball->center[0], 2.0, 1e-9);
  EXPECT_NEAR(ball->center[1], 1.5, 1e-9);
  EXPECT_NEAR(ball->radius, 2.5, 1e-9);
}

TEST(CircumscribedBallTest, EquidistantFromAllSupport) {
  Rng rng(1);
  for (size_t dim : {2u, 3u, 5u}) {
    const auto support = RandomPoints(dim + 1, dim, 100 + dim);
    auto ball = CircumscribedBall(support);
    ASSERT_TRUE(ball.ok());
    for (const Point& p : support) {
      EXPECT_NEAR(geometry::Distance(ball->center, p), ball->radius, 1e-6);
    }
  }
}

TEST(CircumscribedBallTest, RejectsDegenerateSupport) {
  // Three collinear points have no circumscribed circle.
  auto ball = CircumscribedBall(
      {Point{0.0, 0.0}, Point{1.0, 0.0}, Point{2.0, 0.0}});
  EXPECT_FALSE(ball.ok());
  EXPECT_FALSE(CircumscribedBall({}).ok());
  EXPECT_FALSE(
      CircumscribedBall({Point{0.0}, Point{1.0}, Point{2.0}}).ok());  // > d+1.
}

// --- Welzl ---

TEST(WelzlTest, RejectsBadInput) {
  Rng rng(2);
  EXPECT_FALSE(WelzlMinBall({}, rng).ok());
  EXPECT_FALSE(WelzlMinBall({Point{0.0}, Point{0.0, 1.0}}, rng).ok());
}

TEST(WelzlTest, SinglePoint) {
  Rng rng(3);
  auto ball = WelzlMinBall({Point{5.0, 5.0}}, rng);
  ASSERT_TRUE(ball.ok());
  EXPECT_DOUBLE_EQ(ball->radius, 0.0);
}

TEST(WelzlTest, TwoPoints) {
  Rng rng(4);
  auto ball = WelzlMinBall({Point{0.0, 0.0}, Point{0.0, 6.0}}, rng);
  ASSERT_TRUE(ball.ok());
  EXPECT_NEAR(ball->radius, 3.0, 1e-9);
  EXPECT_NEAR(ball->center[1], 3.0, 1e-9);
}

TEST(WelzlTest, InteriorPointsDoNotMatter) {
  Rng rng(5);
  std::vector<Point> points = {Point{0.0, 0.0}, Point{10.0, 0.0}};
  for (int i = 1; i < 10; ++i) {
    points.push_back(Point{static_cast<double>(i), 0.1});
  }
  auto ball = WelzlMinBall(points, rng);
  ASSERT_TRUE(ball.ok());
  EXPECT_NEAR(ball->radius, 5.0, 1e-6);
}

TEST(WelzlTest, ObtuseTriangleUsesLongestEdge) {
  Rng rng(6);
  auto ball = WelzlMinBall(
      {Point{0.0, 0.0}, Point{10.0, 0.0}, Point{5.0, 0.5}}, rng);
  ASSERT_TRUE(ball.ok());
  EXPECT_NEAR(ball->radius, 5.0, 1e-9);  // Diametral pair dominates.
}

TEST(WelzlTest, ContainsAllPointsAndIsMinimal) {
  for (uint64_t seed = 10; seed < 20; ++seed) {
    for (size_t dim : {1u, 2u, 3u, 4u}) {
      Rng rng(seed);
      const auto points = RandomPoints(40, dim, seed * 13 + dim);
      auto ball = WelzlMinBall(points, rng);
      ASSERT_TRUE(ball.ok());
      double farthest = 0.0;
      for (const Point& p : points) {
        farthest =
            std::max(farthest, geometry::Distance(ball->center, p));
      }
      // Containment (radius equals the farthest distance).
      EXPECT_NEAR(ball->radius, farthest, 1e-7);
      // Minimality via a universal lower bound: no enclosing ball can be
      // smaller than half the diameter.
      double diameter = 0.0;
      for (size_t i = 0; i < points.size(); ++i) {
        for (size_t j = i + 1; j < points.size(); ++j) {
          diameter = std::max(diameter,
                              geometry::Distance(points[i], points[j]));
        }
      }
      EXPECT_GE(ball->radius, diameter / 2.0 - 1e-9);
    }
  }
}

TEST(WelzlTest, DeterministicGivenSeedAndAgreesAcrossShuffles) {
  const auto points = RandomPoints(60, 2, 777);
  Rng rng_a(1);
  Rng rng_b(2);
  auto ball_a = WelzlMinBall(points, rng_a);
  auto ball_b = WelzlMinBall(points, rng_b);
  ASSERT_TRUE(ball_a.ok());
  ASSERT_TRUE(ball_b.ok());
  // The minimum enclosing ball is unique: different shuffles agree.
  EXPECT_NEAR(ball_a->radius, ball_b->radius, 1e-7);
  EXPECT_NEAR(geometry::Distance(ball_a->center, ball_b->center), 0.0, 1e-6);
}

TEST(WelzlTest, DuplicatedPointsHandled) {
  Rng rng(7);
  std::vector<Point> points(5, Point{3.0, 4.0});
  points.push_back(Point{5.0, 4.0});
  auto ball = WelzlMinBall(points, rng);
  ASSERT_TRUE(ball.ok());
  EXPECT_NEAR(ball->radius, 1.0, 1e-9);
}

// --- Exact partition k-center ---

TEST(PartitionCountTest, KnownValues) {
  EXPECT_EQ(PartitionCount(3, 3), 5u);   // Bell(3).
  EXPECT_EQ(PartitionCount(4, 2), 8u);   // S(4,1)+S(4,2)=1+7.
  EXPECT_EQ(PartitionCount(5, 1), 1u);
  EXPECT_EQ(PartitionCount(10, 3), 1u + 511u + 9330u);
}

TEST(PartitionExactTest, RejectsBadInput) {
  EXPECT_FALSE(ExactPartitionKCenter({}, 1).ok());
  EXPECT_FALSE(ExactPartitionKCenter({Point{0.0}}, 0).ok());
  // 15 points into at most 4 blocks: 1 + 16'383 + 2'375'101 + 42'355'950
  // = 44'747'435 partitions, refused before any enumeration.
  const auto refused = ExactPartitionKCenter(RandomPoints(15, 2, 1), 4);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("exceeds the limit 20000000"),
            std::string::npos)
      << refused.status();
}

TEST(PartitionExactTest, SingleClusterEqualsWelzl) {
  const auto points = RandomPoints(10, 2, 50);
  auto partition = ExactPartitionKCenter(points, 1);
  Rng rng(50);
  auto ball = WelzlMinBall(points, rng);
  ASSERT_TRUE(partition.ok());
  ASSERT_TRUE(ball.ok());
  EXPECT_NEAR(partition->radius, ball->radius, 1e-9);
}

TEST(PartitionExactTest, SeparatedClustersFoundExactly) {
  std::vector<Point> points = {Point{0.0, 0.0}, Point{2.0, 0.0},
                               Point{100.0, 0.0}, Point{102.0, 0.0}};
  auto solution = ExactPartitionKCenter(points, 2);
  ASSERT_TRUE(solution.ok());
  EXPECT_NEAR(solution->radius, 1.0, 1e-9);
  EXPECT_EQ(solution->cluster_of[0], solution->cluster_of[1]);
  EXPECT_EQ(solution->cluster_of[2], solution->cluster_of[3]);
  EXPECT_NE(solution->cluster_of[0], solution->cluster_of[2]);
}

TEST(PartitionExactTest, NeverWorseThanAnyDiscreteSolution) {
  for (uint64_t seed = 60; seed < 66; ++seed) {
    const auto points = RandomPoints(9, 2, seed);
    auto continuous = ExactPartitionKCenter(points, 2);
    ASSERT_TRUE(continuous.ok());
    // The continuous optimum is no worse than centers at input points.
    metric::EuclideanSpace space(2, points);
    std::vector<metric::SiteId> sites;
    for (size_t i = 0; i < points.size(); ++i) {
      sites.push_back(static_cast<metric::SiteId>(i));
    }
    auto discrete = ExactDiscreteKCenter(space, sites, sites, 2);
    ASSERT_TRUE(discrete.ok());
    EXPECT_LE(continuous->radius, discrete->radius + 1e-9);
    // And at least half of it (any metric k-center argument).
    EXPECT_GE(continuous->radius, discrete->radius / 2.0 - 1e-9);
  }
}

// --- Weighted geometric median ---

TEST(GeometricMedianTest, RejectsBadInput) {
  EXPECT_FALSE(WeightedGeometricMedian({}, {}).ok());
  EXPECT_FALSE(WeightedGeometricMedian({Point{0.0}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(WeightedGeometricMedian({Point{0.0}}, {0.0}).ok());
  EXPECT_FALSE(WeightedGeometricMedian({Point{0.0}}, {-1.0}).ok());
}

TEST(GeometricMedianTest, SinglePoint) {
  auto median = WeightedGeometricMedian({Point{2.0, 3.0}}, {1.0});
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(median->median, (Point{2.0, 3.0}));
  EXPECT_DOUBLE_EQ(median->objective, 0.0);
}

TEST(GeometricMedianTest, TwoPointsAnyPointOnSegmentIsOptimal) {
  auto median =
      WeightedGeometricMedian({Point{0.0, 0.0}, Point{4.0, 0.0}}, {1.0, 1.0});
  ASSERT_TRUE(median.ok());
  EXPECT_NEAR(median->objective, 4.0, 1e-9);
}

TEST(GeometricMedianTest, HeavyWeightPullsToAnchor) {
  // With w0 dominating (w0 >= sum of others), the optimum is p0 itself.
  auto median = WeightedGeometricMedian(
      {Point{0.0, 0.0}, Point{1.0, 0.0}, Point{0.0, 1.0}}, {10.0, 1.0, 1.0});
  ASSERT_TRUE(median.ok());
  EXPECT_NEAR(geometry::Distance(median->median, Point{0.0, 0.0}), 0.0, 1e-6);
}

TEST(GeometricMedianTest, EquilateralTriangleCentroid) {
  // For an equilateral triangle with equal weights, the geometric
  // median is the centroid.
  std::vector<Point> points = {Point{0.0, 0.0}, Point{1.0, 0.0},
                               Point{0.5, std::sqrt(3.0) / 2.0}};
  auto median = WeightedGeometricMedian(points, {1.0, 1.0, 1.0});
  ASSERT_TRUE(median.ok());
  const Point centroid = geometry::Centroid(points);
  EXPECT_NEAR(geometry::Distance(median->median, centroid), 0.0, 1e-7);
}

TEST(GeometricMedianTest, FirstOrderOptimalityOnRandomInstances) {
  // At the optimum, the objective cannot be improved by small steps in
  // any coordinate direction.
  for (uint64_t seed = 70; seed < 76; ++seed) {
    const auto points = RandomPoints(12, 3, seed);
    Rng rng(seed);
    std::vector<double> weights(points.size());
    for (double& w : weights) w = rng.UniformDouble(0.1, 2.0);
    auto median = WeightedGeometricMedian(points, weights);
    ASSERT_TRUE(median.ok());
    auto objective = [&](const Point& q) {
      double total = 0.0;
      for (size_t i = 0; i < points.size(); ++i) {
        total += weights[i] * geometry::Distance(points[i], q);
      }
      return total;
    };
    const double h = 1e-5;
    for (size_t axis = 0; axis < 3; ++axis) {
      for (double sign : {+1.0, -1.0}) {
        Point trial = median->median;
        trial[axis] += sign * h;
        EXPECT_GE(objective(trial), median->objective - 1e-7)
            << "seed=" << seed << " axis=" << axis;
      }
    }
  }
}

TEST(GeometricMedianTest, ObjectiveMatchesDefinition) {
  const auto points = RandomPoints(5, 2, 80);
  std::vector<double> weights = {1.0, 2.0, 0.5, 1.5, 3.0};
  auto median = WeightedGeometricMedian(points, weights);
  ASSERT_TRUE(median.ok());
  double recomputed = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    recomputed += weights[i] * geometry::Distance(points[i], median->median);
  }
  EXPECT_NEAR(median->objective, recomputed, 1e-12);
}

}  // namespace
}  // namespace solver
}  // namespace ukc
