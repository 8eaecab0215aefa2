#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/point.h"
#include "geometry/point_view.h"

namespace ukc {
namespace geometry {
namespace {

TEST(PointTest, ConstructionAndAccess) {
  Point p{1.0, 2.0, 3.0};
  EXPECT_EQ(p.dim(), 3u);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 3.0);
  p[1] = -4.0;
  EXPECT_DOUBLE_EQ(p[1], -4.0);
}

TEST(PointTest, OriginConstructor) {
  Point p(4);
  EXPECT_EQ(p.dim(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(p[i], 0.0);
}

TEST(PointTest, VectorArithmetic) {
  Point a{1.0, 2.0};
  Point b{3.0, -1.0};
  EXPECT_EQ(a + b, (Point{4.0, 1.0}));
  EXPECT_EQ(a - b, (Point{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Point{2.0, 4.0}));
}

TEST(PointTest, CompoundOperators) {
  Point p{1.0, 1.0};
  p += Point{2.0, 3.0};
  EXPECT_EQ(p, (Point{3.0, 4.0}));
  p -= Point{1.0, 1.0};
  EXPECT_EQ(p, (Point{2.0, 3.0}));
  p *= 0.5;
  EXPECT_EQ(p, (Point{1.0, 1.5}));
}

TEST(PointTest, NormAndDot) {
  Point p{3.0, 4.0};
  EXPECT_DOUBLE_EQ(p.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(p.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(p.Dot(Point{1.0, 1.0}), 7.0);
}

TEST(PointTest, ToStringFormatsCoordinates) {
  EXPECT_EQ((Point{1.0, -2.5}).ToString(), "(1, -2.5)");
}

TEST(DistanceTest, EuclideanBasics) {
  Point a{0.0, 0.0};
  Point b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(Distance(a, a), 0.0);
}

// The L1 / L∞ kernels over two points' coordinates.
double L1Distance(const Point& a, const Point& b) {
  return L1DistanceKernel(a.coords().data(), b.coords().data(), a.dim());
}

double LInfDistance(const Point& a, const Point& b) {
  return LInfDistanceKernel(a.coords().data(), b.coords().data(), a.dim());
}

TEST(DistanceTest, L1AndLInf) {
  Point a{1.0, 2.0, 3.0};
  Point b{4.0, 0.0, 3.5};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), 3.0 + 2.0 + 0.5);
  EXPECT_DOUBLE_EQ(LInfDistance(a, b), 3.0);
}

TEST(DistanceTest, TriangleInequalityRandom) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    Point a{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
    Point b{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
    Point c{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
    EXPECT_LE(Distance(a, b), Distance(a, c) + Distance(c, b) + 1e-12);
    EXPECT_LE(L1Distance(a, b), L1Distance(a, c) + L1Distance(c, b) + 1e-12);
    EXPECT_LE(LInfDistance(a, b),
              LInfDistance(a, c) + LInfDistance(c, b) + 1e-12);
  }
}

TEST(CentroidTest, Mean) {
  std::vector<Point> points = {{0.0, 0.0}, {2.0, 0.0}, {1.0, 3.0}};
  EXPECT_EQ(Centroid(points), (Point{1.0, 1.0}));
}

}  // namespace
}  // namespace geometry
}  // namespace ukc
