#include "geometry/kdtree.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.h"
#include "geometry/point_view.h"

namespace ukc {
namespace geometry {
namespace {

// n random points in [-10, 10]^dim, flat row-major.
std::vector<double> RandomCoords(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> coords(n * dim);
  for (double& c : coords) c = rng.UniformDouble(-10.0, 10.0);
  return coords;
}

size_t BruteNearest(const std::vector<double>& coords, size_t dim,
                    const double* query) {
  size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i * dim < coords.size(); ++i) {
    const double d2 =
        SquaredDistanceKernel(coords.data() + i * dim, query, dim);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  return best;
}

TEST(KdTreeTest, RejectsBadInput) {
  EXPECT_FALSE(KdTree::BuildFlat({}, 2).ok());
  EXPECT_FALSE(KdTree::BuildFlat({0.0, 1.0, 2.0}, 2).ok());
  EXPECT_FALSE(KdTree::BuildFlat({0.0, 1.0}, 0).ok());
}

TEST(KdTreeTest, SinglePoint) {
  auto tree = KdTree::BuildFlat({3.0, 4.0}, 2);
  ASSERT_TRUE(tree.ok());
  const double origin[] = {0.0, 0.0};
  const auto nearest = tree->Nearest(origin);
  EXPECT_EQ(nearest.index, 0u);
  EXPECT_DOUBLE_EQ(nearest.squared_distance, 25.0);
}

TEST(KdTreeTest, NearestMatchesBruteForceRandom) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (size_t dim : {1u, 2u, 3u, 5u}) {
      const auto coords = RandomCoords(200, dim, seed * 10 + dim);
      auto tree = KdTree::BuildFlat(coords, dim);
      ASSERT_TRUE(tree.ok());
      Rng rng(seed * 100 + dim);
      std::vector<double> query(dim);
      for (int q = 0; q < 50; ++q) {
        for (double& a : query) a = rng.UniformDouble(-12.0, 12.0);
        const auto result = tree->Nearest(query.data());
        const size_t brute = BruteNearest(coords, dim, query.data());
        EXPECT_NEAR(result.squared_distance,
                    SquaredDistanceKernel(coords.data() + brute * dim,
                                          query.data(), dim),
                    1e-12)
            << "seed=" << seed << " dim=" << dim;
      }
    }
  }
}

TEST(KdTreeTest, NearestOfIndexedPointIsItself) {
  const auto coords = RandomCoords(100, 2, 7);
  auto tree = KdTree::BuildFlat(coords, 2);
  ASSERT_TRUE(tree.ok());
  for (size_t i = 0; i < 100; i += 7) {
    const auto result = tree->Nearest(coords.data() + i * 2);
    EXPECT_DOUBLE_EQ(result.squared_distance, 0.0);
    EXPECT_EQ(result.index, i);
  }
}

TEST(KdTreeTest, DuplicatePointsHandled) {
  std::vector<double> coords;
  for (int i = 0; i < 10; ++i) coords.insert(coords.end(), {1.0, 1.0});
  coords.insert(coords.end(), {5.0, 5.0});
  auto tree = KdTree::BuildFlat(coords, 2);
  ASSERT_TRUE(tree.ok());
  const double query[] = {4.9, 5.0};
  EXPECT_EQ(tree->Nearest(query).index, 10u);
}

TEST(KdTreeTest, SizeAndAccessors) {
  auto tree = KdTree::BuildFlat(RandomCoords(42, 2, 13), 2);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 42u);
  EXPECT_EQ(tree->dim(), 2u);
}

}  // namespace
}  // namespace geometry
}  // namespace ukc
