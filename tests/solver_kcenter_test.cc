// Tests for the deterministic k-center substrate: Gonzalez,
// Hochbaum–Shmoys, exact brute force, 1D exact, refinement, and the
// dispatcher — including parameterized approximation-ratio sweeps
// against the exact optimum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "metric/euclidean_space.h"
#include "metric/matrix_space.h"
#include "solver/brute_force.h"
#include "solver/certain_solver.h"
#include "solver/gonzalez.h"
#include "solver/hochbaum_shmoys.h"
#include "solver/kcenter_1d.h"
#include "solver/refine.h"

namespace ukc {
namespace solver {
namespace {

using geometry::Point;
using metric::EuclideanSpace;
using metric::SiteId;

std::vector<SiteId> AllSites(const metric::MetricSpace& space) {
  std::vector<SiteId> sites(static_cast<size_t>(space.num_sites()));
  for (size_t i = 0; i < sites.size(); ++i) sites[i] = static_cast<SiteId>(i);
  return sites;
}

EuclideanSpace RandomSpace(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  EuclideanSpace space(dim);
  for (size_t i = 0; i < n; ++i) {
    Point p(dim);
    for (size_t a = 0; a < dim; ++a) p[a] = rng.UniformDouble(0.0, 10.0);
    space.AddPoint(std::move(p));
  }
  return space;
}

// --- Gonzalez ---

TEST(GonzalezTest, RejectsBadInput) {
  EuclideanSpace space = RandomSpace(5, 2, 1);
  EXPECT_FALSE(Gonzalez(space, AllSites(space), 0).ok());
  EXPECT_FALSE(Gonzalez(space, {}, 2).ok());
}

TEST(GonzalezTest, SingleCenterPicksFirstAndComputesRadius) {
  EuclideanSpace space(1);
  const SiteId a = space.AddPoint(Point{0.0});
  space.AddPoint(Point{4.0});
  space.AddPoint(Point{10.0});
  auto solution = Gonzalez(space, AllSites(space), 1);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->centers, (std::vector<SiteId>{a}));
  EXPECT_DOUBLE_EQ(solution->radius, 10.0);
}

TEST(GonzalezTest, PicksFarthestSecond) {
  EuclideanSpace space(1);
  const SiteId a = space.AddPoint(Point{0.0});
  space.AddPoint(Point{4.0});
  const SiteId c = space.AddPoint(Point{10.0});
  auto solution = Gonzalez(space, AllSites(space), 2);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->centers, (std::vector<SiteId>{a, c}));
  EXPECT_DOUBLE_EQ(solution->radius, 4.0);
}

TEST(GonzalezTest, KAtLeastNGivesZeroRadius) {
  EuclideanSpace space = RandomSpace(4, 2, 2);
  auto solution = Gonzalez(space, AllSites(space), 10);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->centers.size(), 4u);
  EXPECT_DOUBLE_EQ(solution->radius, 0.0);
}

TEST(GonzalezTest, RadiusMatchesCoveringRadius) {
  EuclideanSpace space = RandomSpace(40, 3, 3);
  const auto sites = AllSites(space);
  for (size_t k : {1u, 2u, 5u, 8u}) {
    auto solution = Gonzalez(space, sites, k);
    ASSERT_TRUE(solution.ok());
    EXPECT_NEAR(solution->radius,
                CoveringRadius(space, sites, solution->centers), 1e-12);
  }
}

TEST(GonzalezTest, CentersAreDistinctSites) {
  EuclideanSpace space = RandomSpace(30, 2, 4);
  auto solution = Gonzalez(space, AllSites(space), 6);
  ASSERT_TRUE(solution.ok());
  auto centers = solution->centers;
  std::sort(centers.begin(), centers.end());
  EXPECT_EQ(std::unique(centers.begin(), centers.end()), centers.end());
}

// Parameterized 2-approximation sweep: Gonzalez radius <= 2 * discrete
// optimum on random instances, across seeds and k.
class GonzalezRatioTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GonzalezRatioTest, WithinTwiceDiscreteOptimum) {
  const int seed = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  EuclideanSpace space = RandomSpace(14, 2, static_cast<uint64_t>(seed));
  const auto sites = AllSites(space);
  auto greedy = Gonzalez(space, sites, static_cast<size_t>(k));
  ASSERT_TRUE(greedy.ok());
  auto exact =
      ExactDiscreteKCenter(space, sites, sites, static_cast<size_t>(k));
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(greedy->radius, 2.0 * exact->radius + 1e-9)
      << "seed=" << seed << " k=" << k;
  EXPECT_GE(greedy->radius, exact->radius - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GonzalezRatioTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(1, 2, 3)));

// --- Hochbaum–Shmoys ---

TEST(HochbaumShmoysTest, RejectsBadInput) {
  EuclideanSpace space = RandomSpace(5, 2, 5);
  EXPECT_FALSE(HochbaumShmoys(space, AllSites(space), 0).ok());
  EXPECT_FALSE(HochbaumShmoys(space, {}, 1).ok());
}

TEST(HochbaumShmoysTest, BoundsBracketOptimum) {
  for (uint64_t seed = 10; seed < 18; ++seed) {
    EuclideanSpace space = RandomSpace(13, 2, seed);
    const auto sites = AllSites(space);
    for (size_t k : {1u, 2u, 3u}) {
      auto threshold = HochbaumShmoys(space, sites, k);
      ASSERT_TRUE(threshold.ok());
      auto exact = ExactDiscreteKCenter(space, sites, sites, k);
      ASSERT_TRUE(exact.ok());
      EXPECT_LE(threshold->lower_bound, exact->radius + 1e-9);
      EXPECT_LE(threshold->continuous_lower_bound, exact->radius + 1e-9);
      EXPECT_LE(threshold->solution.radius, 2.0 * exact->radius + 1e-9);
      EXPECT_GE(threshold->solution.radius, exact->radius - 1e-9);
    }
  }
}

TEST(HochbaumShmoysTest, CoincidentPointsGiveZero) {
  EuclideanSpace space(2);
  for (int i = 0; i < 4; ++i) space.AddPoint(Point{1.0, 1.0});
  auto threshold = HochbaumShmoys(space, AllSites(space), 1);
  ASSERT_TRUE(threshold.ok());
  EXPECT_DOUBLE_EQ(threshold->solution.radius, 0.0);
  EXPECT_DOUBLE_EQ(threshold->lower_bound, 0.0);
}

// --- Exact discrete brute force ---

TEST(ExactDiscreteTest, RejectsBadInput) {
  EuclideanSpace space = RandomSpace(5, 2, 6);
  const auto sites = AllSites(space);
  EXPECT_FALSE(ExactDiscreteKCenter(space, sites, sites, 0).ok());
  EXPECT_FALSE(ExactDiscreteKCenter(space, {}, sites, 1).ok());
  // C(60, 6) = 50'063'860 subsets: refused before any enumeration.
  EuclideanSpace large = RandomSpace(60, 2, 6);
  const auto many = AllSites(large);
  const auto refused = ExactDiscreteKCenter(large, many, many, 6);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("exceeds the limit 20000000"),
            std::string::npos)
      << refused.status();
}

TEST(ExactDiscreteTest, KnownTwoClusterInstance) {
  EuclideanSpace space(1);
  for (double x : {0.0, 1.0, 2.0, 10.0, 11.0, 12.0}) {
    space.AddPoint(Point{x});
  }
  auto exact = ExactDiscreteKCenter(space, AllSites(space), AllSites(space), 2);
  ASSERT_TRUE(exact.ok());
  // Optimal discrete centers are 1 and 11: radius 1.
  EXPECT_DOUBLE_EQ(exact->radius, 1.0);
}

TEST(ExactDiscreteTest, KGreaterThanCandidates) {
  EuclideanSpace space = RandomSpace(3, 2, 7);
  auto exact = ExactDiscreteKCenter(space, AllSites(space), AllSites(space), 9);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->radius, 0.0);
}

TEST(ExactDiscreteTest, NeverWorseThanGonzalez) {
  for (uint64_t seed = 30; seed < 36; ++seed) {
    EuclideanSpace space = RandomSpace(12, 3, seed);
    const auto sites = AllSites(space);
    auto exact = ExactDiscreteKCenter(space, sites, sites, 3);
    auto greedy = Gonzalez(space, sites, 3);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(greedy.ok());
    EXPECT_LE(exact->radius, greedy->radius + 1e-12);
  }
}

TEST(BinomialCountTest, KnownValues) {
  EXPECT_EQ(BinomialCount(5, 2), 10u);
  EXPECT_EQ(BinomialCount(10, 0), 1u);
  EXPECT_EQ(BinomialCount(10, 10), 1u);
  EXPECT_EQ(BinomialCount(10, 11), 0u);
  EXPECT_EQ(BinomialCount(52, 5), 2598960u);
  // Saturates instead of overflowing.
  EXPECT_EQ(BinomialCount(200, 100), std::numeric_limits<uint64_t>::max());
}

// --- 1D exact ---

TEST(KCenter1DTest, RejectsBadInput) {
  EXPECT_FALSE(KCenter1D({}, 1).ok());
  EXPECT_FALSE(KCenter1D({1.0}, 0).ok());
  EXPECT_FALSE(KCenter1DDP({}, 1).ok());
}

TEST(KCenter1DTest, SingleCluster) {
  auto solution = KCenter1D({3.0, 1.0, 5.0}, 1);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->radius, 2.0);
  ASSERT_EQ(solution->centers.size(), 1u);
  EXPECT_DOUBLE_EQ(solution->centers[0], 3.0);
}

TEST(KCenter1DTest, KnownTwoClusters) {
  auto solution = KCenter1D({0.0, 1.0, 10.0, 12.0}, 2);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->radius, 1.0);
  EXPECT_EQ(solution->cluster_of, (std::vector<size_t>{0, 0, 1, 1}));
}

TEST(KCenter1DTest, KAtLeastN) {
  auto solution = KCenter1D({5.0, 7.0}, 5);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->radius, 0.0);
  EXPECT_EQ(solution->centers.size(), 2u);
}

TEST(KCenter1DTest, DuplicateValues) {
  auto solution = KCenter1D({2.0, 2.0, 2.0, 8.0}, 2);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->radius, 0.0);
}

// Property: the binary-search solver agrees exactly with the DP solver.
class KCenter1DAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KCenter1DAgreementTest, SearchMatchesDP) {
  const int seed = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(seed) * 71 + 3);
  std::vector<double> values(20);
  for (double& v : values) v = rng.UniformDouble(0.0, 100.0);
  auto fast = KCenter1D(values, static_cast<size_t>(k));
  auto reference = KCenter1DDP(values, static_cast<size_t>(k));
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_NEAR(fast->radius, reference->radius, 1e-12)
      << "seed=" << seed << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KCenter1DAgreementTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(1, 2, 3, 4, 7)));

// 1D exact also matches the generic discrete brute force (centers at
// input points cannot beat midpoints, so compare against half the
// pairwise-gap optimum via the DP).
TEST(KCenter1DTest, MatchesBruteForcePartitioning) {
  Rng rng(99);
  std::vector<double> values(9);
  for (double& v : values) v = rng.UniformDouble(0.0, 50.0);
  for (size_t k = 1; k <= 4; ++k) {
    auto solution = KCenter1D(values, k);
    ASSERT_TRUE(solution.ok());
    // Brute force over all contiguous partitions via DP is the
    // reference; additionally verify achievability: every point within
    // radius of its center.
    std::vector<double> sorted(values);
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i) {
      const double c = solution->centers[solution->cluster_of[i]];
      EXPECT_LE(std::abs(sorted[i] - c), solution->radius + 1e-12);
    }
  }
}

// --- Refinement ---

TEST(RefineTest, NeverIncreasesRadius) {
  for (uint64_t seed = 50; seed < 56; ++seed) {
    EuclideanSpace space = RandomSpace(30, 2, seed);
    const auto sites = AllSites(space);
    auto seed_solution = Gonzalez(space, sites, 4);
    ASSERT_TRUE(seed_solution.ok());
    auto refined = RefineKCenter(&space, sites, *seed_solution);
    ASSERT_TRUE(refined.ok());
    EXPECT_LE(refined->radius, seed_solution->radius + 1e-12);
    EXPECT_EQ(refined->centers.size(), seed_solution->centers.size());
  }
}

TEST(RefineTest, WorksOnFiniteMetric) {
  auto matrix = metric::MatrixSpace::Build({{0, 2, 4, 6},
                                            {2, 0, 2, 4},
                                            {4, 2, 0, 2},
                                            {6, 4, 2, 0}});
  ASSERT_TRUE(matrix.ok());
  const auto sites = AllSites(**matrix);
  auto seed_solution = Gonzalez(**matrix, sites, 2);
  ASSERT_TRUE(seed_solution.ok());
  auto refined = RefineKCenter(matrix->get(), sites, *seed_solution);
  ASSERT_TRUE(refined.ok());
  EXPECT_LE(refined->radius, seed_solution->radius + 1e-12);
}

TEST(RefineTest, RejectsBadInput) {
  EuclideanSpace space = RandomSpace(5, 2, 60);
  KCenterSolution empty_seed;
  EXPECT_FALSE(RefineKCenter(&space, AllSites(space), empty_seed).ok());
  EXPECT_FALSE(RefineKCenter(nullptr, AllSites(space), empty_seed).ok());
}

// --- Dispatcher ---

TEST(CertainSolverTest, AllKindsRun) {
  for (auto kind :
       {CertainSolverKind::kGonzalez, CertainSolverKind::kHochbaumShmoys,
        CertainSolverKind::kGonzalezRefined, CertainSolverKind::kExact}) {
    EuclideanSpace space = RandomSpace(9, 2, 70);
    const auto sites = AllSites(space);
    CertainSolverOptions options;
    options.kind = kind;
    auto solution = SolveCertainKCenter(&space, sites, 2, options);
    ASSERT_TRUE(solution.ok()) << CertainSolverKindToString(kind);
    EXPECT_EQ(solution->centers.size(), 2u);
    EXPECT_GT(solution->radius, 0.0);
    EXPECT_GE(solution->approx_factor, 1.0);
  }
}

TEST(CertainSolverTest, ExactBeatsGreedyOnEuclidean) {
  EuclideanSpace space = RandomSpace(10, 2, 71);
  const auto sites = AllSites(space);
  CertainSolverOptions exact_options;
  exact_options.kind = CertainSolverKind::kExact;
  auto exact = SolveCertainKCenter(&space, sites, 3, exact_options);
  auto greedy = SolveCertainKCenter(&space, sites, 3, {});
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(greedy.ok());
  EXPECT_LE(exact->radius, greedy->radius + 1e-12);
  EXPECT_DOUBLE_EQ(exact->approx_factor, 1.0);
}

TEST(CertainSolverTest, ExactOnFiniteMetricUsesDiscrete) {
  auto matrix = metric::MatrixSpace::Build(
      {{0, 1, 5}, {1, 0, 5}, {5, 5, 0}});
  ASSERT_TRUE(matrix.ok());
  CertainSolverOptions options;
  options.kind = CertainSolverKind::kExact;
  auto solution =
      SolveCertainKCenter(matrix->get(), AllSites(**matrix), 2, options);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->radius, 1.0);
}

TEST(CertainSolverTest, KindNames) {
  EXPECT_EQ(CertainSolverKindToString(CertainSolverKind::kGonzalez), "gonzalez");
  EXPECT_EQ(CertainSolverKindToString(CertainSolverKind::kExact), "exact");
}

}  // namespace
}  // namespace solver
}  // namespace ukc
