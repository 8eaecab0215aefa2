// Tests for the grid-discretized (1+eps) Euclidean k-center solver —
// the genuine "(1+eps) algorithm for certain points" plug of the
// paper's theorems.

#include "solver/grid_kcenter.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/uncertain_kcenter.h"
#include "solver/gonzalez.h"
#include "solver/partition_exact.h"
#include "uncertain/generators.h"

namespace ukc {
namespace solver {
namespace {

using geometry::Point;

std::vector<Point> RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (size_t i = 0; i < n; ++i) {
    Point p(dim);
    for (size_t a = 0; a < dim; ++a) p[a] = rng.UniformDouble(0.0, 10.0);
    points.push_back(std::move(p));
  }
  return points;
}

TEST(GridKCenterTest, RejectsBadInput) {
  EXPECT_FALSE(GridKCenter({}, 1).ok());
  EXPECT_FALSE(GridKCenter({Point{0.0}}, 0).ok());
  GridKCenterOptions bad_eps;
  bad_eps.eps = 0.0;
  EXPECT_FALSE(GridKCenter({Point{0.0}}, 1, bad_eps).ok());
  bad_eps.eps = 2.0;
  EXPECT_FALSE(GridKCenter({Point{0.0}}, 1, bad_eps).ok());
  EXPECT_FALSE(GridKCenter({Point{0.0}, Point{0.0, 1.0}}, 1).ok());
}

TEST(GridKCenterTest, CoincidentPointsGiveZeroRadius) {
  std::vector<Point> points(5, Point{2.0, 2.0});
  auto solution = GridKCenter(points, 2);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->radius, 0.0);
}

TEST(GridKCenterTest, KAtLeastNGivesZeroRadius) {
  const auto points = RandomPoints(4, 2, 1);
  auto solution = GridKCenter(points, 6);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->radius, 0.0);
}

// The core guarantee: radius <= (1+eps) * exact continuous optimum.
class GridRatioSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GridRatioSweep, WithinOnePlusEpsOfExact) {
  const int seed = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  const double eps = 0.25;
  const auto points = RandomPoints(10, 2, static_cast<uint64_t>(seed) + 500);
  GridKCenterOptions options;
  options.eps = eps;
  auto grid = GridKCenter(points, static_cast<size_t>(k), options);
  ASSERT_TRUE(grid.ok()) << grid.status();
  auto exact = ExactPartitionKCenter(points, static_cast<size_t>(k));
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(grid->radius, (1.0 + eps) * exact->radius + 1e-9)
      << "seed=" << seed << " k=" << k;
  EXPECT_GE(grid->radius, exact->radius - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GridRatioSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                                            ::testing::Values(1, 2, 3)));

TEST(GridKCenterTest, TighterEpsHelps) {
  const auto points = RandomPoints(12, 2, 42);
  GridKCenterOptions loose;
  loose.eps = 0.8;
  GridKCenterOptions tight;
  tight.eps = 0.1;
  auto a = GridKCenter(points, 2, loose);
  auto b = GridKCenter(points, 2, tight);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto exact = ExactPartitionKCenter(points, 2);
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(b->radius, (1.0 + 0.1) * exact->radius + 1e-9);
  EXPECT_LE(b->radius, a->radius + 1e-9);
}

TEST(GridKCenterTest, BeatsOrMatchesGonzalezAtModerateSize) {
  const auto points = RandomPoints(100, 2, 7);
  metric::EuclideanSpace space(2, points);
  std::vector<metric::SiteId> sites(points.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    sites[i] = static_cast<metric::SiteId>(i);
  }
  auto greedy = Gonzalez(space, sites, 3);
  ASSERT_TRUE(greedy.ok());
  GridKCenterOptions options;
  options.eps = 0.25;
  auto grid = GridKCenter(points, 3, options);
  ASSERT_TRUE(grid.ok()) << grid.status();
  // (1+eps) < 2, so the grid solver must not be worse than Gonzalez by
  // more than rounding at its guarantee level; in practice it wins.
  EXPECT_LE(grid->radius, greedy.value().radius * 1.05 + 1e-9);
}

TEST(GridKCenterTest, ThreeDimensionsWork) {
  const auto points = RandomPoints(9, 3, 11);
  GridKCenterOptions options;
  options.eps = 0.5;
  auto grid = GridKCenter(points, 2, options);
  ASSERT_TRUE(grid.ok()) << grid.status();
  auto exact = ExactPartitionKCenter(points, 2);
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(grid->radius, 1.5 * exact->radius + 1e-9);
}

TEST(GridKCenterTest, CandidateCapFailsCleanly) {
  const auto points = RandomPoints(50, 3, 13);
  GridKCenterOptions options;
  options.eps = 0.05;
  const auto refused = GridKCenter(points, 2, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("more than 200000 candidates"),
            std::string::npos)
      << refused.status();
}

// End-to-end: the facade with the kGridEpsilon plug certifies the
// paper's 5+eps / 3+eps factors.
TEST(GridKCenterTest, FacadeCertifiesEpsilonFactors) {
  uncertain::EuclideanInstanceOptions generator;
  generator.n = 20;
  generator.z = 3;
  generator.dim = 2;
  generator.seed = 17;
  auto dataset = uncertain::GenerateClusteredInstance(generator, 2);
  ASSERT_TRUE(dataset.ok());
  core::UncertainKCenterOptions options;
  options.k = 2;
  options.rule = cost::AssignmentRule::kExpectedDistance;
  options.certain.kind = CertainSolverKind::kGridEpsilon;
  options.certain.epsilon = 0.25;
  auto solution = core::SolveUncertainKCenter(&dataset.value(), options);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_EQ(solution->certain_algorithm, "grid-epsilon");
  ASSERT_FALSE(solution->bounds.empty());
  // 4 + f with f = 1.25: the paper's 5 + eps.
  EXPECT_DOUBLE_EQ(solution->bounds[0].factor, 5.25);
}

}  // namespace
}  // namespace solver
}  // namespace ukc
