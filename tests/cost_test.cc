// Tests for the expected-cost engine: the exact E[max] sweep against
// brute-force enumeration and Monte Carlo, plus the assignment rules.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.h"
#include "cost/assignment.h"
#include "cost/expected_cost.h"
#include "cost/lower_bounds.h"
#include "metric/euclidean_space.h"
#include "metric/matrix_space.h"
#include "uncertain/generators.h"

namespace ukc {
namespace cost {
namespace {

using geometry::Point;
using metric::EuclideanSpace;
using metric::SiteId;
using uncertain::UncertainDataset;
using uncertain::UncertainPoint;

// --- ExpectedMaxOfIndependent ---

TEST(ExpectedMaxTest, SingleDeterministicVariable) {
  EXPECT_DOUBLE_EQ(ExpectedMaxOfIndependent({{{3.0, 1.0}}}), 3.0);
}

TEST(ExpectedMaxTest, SingleVariableIsItsMean) {
  // E[max(X)] = E[X].
  EXPECT_DOUBLE_EQ(
      ExpectedMaxOfIndependent({{{1.0, 0.5}, {5.0, 0.25}, {9.0, 0.25}}}),
      0.5 * 1 + 0.25 * 5 + 0.25 * 9);
}

TEST(ExpectedMaxTest, TwoCoins) {
  // X, Y uniform on {0, 1}: max is 1 unless both are 0.
  EXPECT_DOUBLE_EQ(
      ExpectedMaxOfIndependent({{{0.0, 0.5}, {1.0, 0.5}},
                                {{0.0, 0.5}, {1.0, 0.5}}}),
      0.75);
}

TEST(ExpectedMaxTest, DeterministicDominates) {
  // One variable is always 10, the other at most 5.
  EXPECT_DOUBLE_EQ(ExpectedMaxOfIndependent(
                       {{{10.0, 1.0}}, {{1.0, 0.5}, {5.0, 0.5}}}),
                   10.0);
}

TEST(ExpectedMaxTest, TiedValuesAcrossVariables) {
  // Both variables take the value 2 with positive probability.
  const double value = ExpectedMaxOfIndependent(
      {{{2.0, 0.5}, {4.0, 0.5}}, {{2.0, 0.5}, {3.0, 0.5}}});
  // Enumerate: (2,2)->2 .25, (2,3)->3 .25, (4,2)->4 .25, (4,3)->4 .25.
  EXPECT_DOUBLE_EQ(value, 0.25 * 2 + 0.25 * 3 + 0.5 * 4);
}

TEST(ExpectedMaxTest, NegativeValuesSupported) {
  const double value = ExpectedMaxOfIndependent(
      {{{-3.0, 0.5}, {-1.0, 0.5}}, {{-2.0, 1.0}}});
  // max(-3,-2) = -2 w.p. .5; max(-1,-2) = -1 w.p. .5.
  EXPECT_DOUBLE_EQ(value, -1.5);
}

TEST(ExpectedMaxTest, ManyVariablesApproachUpperEnd) {
  // 30 iid uniform{0,1} coins: E[max] = 1 - 2^-30.
  std::vector<DiscreteDistribution> distributions(
      30, DiscreteDistribution{{0.0, 0.5}, {1.0, 0.5}});
  EXPECT_NEAR(ExpectedMaxOfIndependent(distributions),
              1.0 - std::pow(2.0, -30), 1e-12);
}

// Random cross-validation: the sweep equals brute-force enumeration.
class ExpectedMaxRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ExpectedMaxRandomTest, MatchesEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  const size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
  std::vector<DiscreteDistribution> distributions(n);
  for (auto& d : distributions) {
    const size_t z = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    const auto probabilities = uncertain::MakeProbabilities(
        z, uncertain::ProbabilityShape::kRandom, rng);
    for (size_t j = 0; j < z; ++j) {
      d.emplace_back(rng.UniformDouble(0.0, 10.0), probabilities[j]);
    }
  }
  // Brute force over all combinations.
  std::vector<size_t> choice(n, 0);
  double expectation = 0.0;
  while (true) {
    double probability = 1.0;
    double worst = -1e300;
    for (size_t i = 0; i < n; ++i) {
      probability *= distributions[i][choice[i]].second;
      worst = std::max(worst, distributions[i][choice[i]].first);
    }
    expectation += probability * worst;
    size_t i = 0;
    for (; i < n; ++i) {
      if (++choice[i] < distributions[i].size()) break;
      choice[i] = 0;
    }
    if (i == n) break;
  }
  EXPECT_NEAR(ExpectedMaxOfIndependent(distributions), expectation, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExpectedMaxRandomTest,
                         ::testing::Range(0, 25));

// --- Dataset-level costs ---

// Fixture: 3 uncertain points on a line with locations {0..5}.
class CostFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto space = std::make_shared<EuclideanSpace>(1);
    for (int x = 0; x <= 5; ++x) {
      space->AddPoint(Point{static_cast<double>(x)});
    }
    std::vector<UncertainPoint> points;
    points.push_back(*UncertainPoint::Build({{0, 0.5}, {1, 0.5}}));
    points.push_back(*UncertainPoint::Build({{2, 0.25}, {3, 0.75}}));
    points.push_back(*UncertainPoint::Build({{4, 0.1}, {5, 0.9}}));
    dataset_ = std::make_unique<UncertainDataset>(
        std::move(UncertainDataset::Build(space, std::move(points))).value());
  }

  std::unique_ptr<UncertainDataset> dataset_;
};

TEST_F(CostFixture, ExactMatchesBruteForceAssigned) {
  const Assignment assignment = {1, 3, 4};
  auto exact = ExactAssignedCost(*dataset_, assignment);
  auto brute = BruteForceAssignedCost(*dataset_, assignment);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(brute.ok());
  EXPECT_NEAR(*exact, *brute, 1e-12);
}

TEST_F(CostFixture, ExactMatchesBruteForceUnassigned) {
  const std::vector<SiteId> centers = {1, 4};
  auto exact = ExactUnassignedCost(*dataset_, centers);
  auto brute = BruteForceUnassignedCost(*dataset_, centers);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(brute.ok());
  EXPECT_NEAR(*exact, *brute, 1e-12);
}

TEST_F(CostFixture, UnassignedNeverExceedsAssigned) {
  const std::vector<SiteId> centers = {1, 4};
  auto assignment = AssignExpectedDistance(*dataset_, centers);
  ASSERT_TRUE(assignment.ok());
  auto assigned = ExactAssignedCost(*dataset_, *assignment);
  auto unassigned = ExactUnassignedCost(*dataset_, centers);
  ASSERT_TRUE(assigned.ok());
  ASSERT_TRUE(unassigned.ok());
  EXPECT_LE(*unassigned, *assigned + 1e-12);
}

TEST_F(CostFixture, MonteCarloAgreesWithExact) {
  const Assignment assignment = {0, 2, 5};
  auto exact = ExactAssignedCost(*dataset_, assignment);
  ASSERT_TRUE(exact.ok());
  Rng rng(9);
  auto estimate = MonteCarloAssignedCost(*dataset_, assignment, 200000, rng);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate->mean, *exact, 5.0 * estimate->std_error + 1e-9);
  EXPECT_GT(estimate->std_error, 0.0);
  EXPECT_EQ(estimate->samples, 200000);

  // Deterministic: the same seed reproduces the mean.
  Rng rng_again(9);
  auto again = MonteCarloAssignedCost(*dataset_, assignment, 200000, rng_again);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(estimate->mean, again->mean);
}

TEST_F(CostFixture, MonteCarloUnassignedAgreesWithExact) {
  const std::vector<SiteId> centers = {1, 5};
  auto exact = ExactUnassignedCost(*dataset_, centers);
  ASSERT_TRUE(exact.ok());
  Rng rng(10);
  auto estimate = MonteCarloUnassignedCost(*dataset_, centers, 200000, rng);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate->mean, *exact, 5.0 * estimate->std_error + 1e-9);
}

TEST_F(CostFixture, InputValidation) {
  EXPECT_FALSE(ExactAssignedCost(*dataset_, {1, 2}).ok());        // Wrong size.
  EXPECT_FALSE(ExactAssignedCost(*dataset_, {1, 2, 99}).ok());    // Bad site.
  EXPECT_FALSE(ExactUnassignedCost(*dataset_, {}).ok());          // No centers.
  EXPECT_FALSE(ExactUnassignedCost(*dataset_, {-1}).ok());        // Bad site.
  Rng rng(11);
  EXPECT_FALSE(MonteCarloAssignedCost(*dataset_, {1, 2, 3}, 0, rng).ok());
}

TEST_F(CostFixture, BruteForceRespectsCap) {
  BruteForceCostOptions tight;
  tight.max_realizations = 2;
  EXPECT_FALSE(BruteForceAssignedCost(*dataset_, {1, 3, 4}, tight).ok());
}

// Larger randomized agreement test across generated instances.
class CostAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(CostAgreementTest, ExactEqualsBruteForceOnRandomInstances) {
  uncertain::EuclideanInstanceOptions options;
  options.n = 6;
  options.z = 3;
  options.dim = 2;
  options.seed = static_cast<uint64_t>(GetParam()) * 91 + 5;
  auto dataset = uncertain::GenerateClusteredInstance(options, 2);
  ASSERT_TRUE(dataset.ok());
  const auto sites = dataset->LocationSites();
  const std::vector<SiteId> centers = {sites[0], sites[sites.size() / 2]};
  auto assignment = AssignExpectedDistance(*dataset, centers);
  ASSERT_TRUE(assignment.ok());
  auto exact = ExactAssignedCost(*dataset, *assignment);
  auto brute = BruteForceAssignedCost(*dataset, *assignment);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(brute.ok());
  EXPECT_NEAR(*exact, *brute, 1e-10 * (1.0 + std::abs(*brute)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CostAgreementTest, ::testing::Range(0, 10));

// --- Assignment rules ---

TEST_F(CostFixture, AssignExpectedDistancePicksMinimizer) {
  // Centers at 0 and 5.
  auto assignment = AssignExpectedDistance(*dataset_, {0, 5});
  ASSERT_TRUE(assignment.ok());
  // Point 0 (mass at 0,1) -> center 0; point 2 (mass at 4,5) -> center 5.
  EXPECT_EQ((*assignment)[0], 0);
  EXPECT_EQ((*assignment)[2], 5);
  EXPECT_TRUE(ValidateAssignment(*dataset_, {0, 5}, *assignment).ok());
}

TEST_F(CostFixture, AssignBySurrogateUsesNearestCenter) {
  const std::vector<SiteId> surrogates = {0, 3, 5};
  auto assignment = AssignBySurrogate(*dataset_, surrogates, {1, 4});
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ((*assignment)[0], 1);  // Surrogate 0 closer to 1.
  EXPECT_EQ((*assignment)[1], 4);  // Surrogate 3 closer to 4.
  EXPECT_EQ((*assignment)[2], 4);
}

TEST_F(CostFixture, AssignmentValidation) {
  EXPECT_FALSE(AssignExpectedDistance(*dataset_, {}).ok());
  EXPECT_FALSE(AssignBySurrogate(*dataset_, {0, 1}, {2}).ok());  // Size.
  EXPECT_FALSE(ValidateAssignment(*dataset_, {0, 5}, {0, 5}).ok());
  EXPECT_FALSE(ValidateAssignment(*dataset_, {0, 5}, {0, 5, 3}).ok());
}

TEST(AssignmentRuleTest, Names) {
  EXPECT_EQ(AssignmentRuleToString(AssignmentRule::kExpectedDistance), "ED");
  EXPECT_EQ(AssignmentRuleToString(AssignmentRule::kExpectedPoint), "EP");
  EXPECT_EQ(AssignmentRuleToString(AssignmentRule::kOneCenter), "OC");
}

// --- Lower bounds ---

TEST_F(CostFixture, PerPointLowerBoundIsALowerBound) {
  auto bound = PerPointLowerBound(*dataset_);
  ASSERT_TRUE(bound.ok());
  EXPECT_GT(*bound, 0.0);
  // Any concrete solution costs at least the bound.
  const std::vector<SiteId> centers = {1, 4};
  auto assignment = AssignExpectedDistance(*dataset_, centers);
  ASSERT_TRUE(assignment.ok());
  auto value = ExactAssignedCost(*dataset_, *assignment);
  ASSERT_TRUE(value.ok());
  EXPECT_LE(*bound, *value + 1e-9);
}

TEST_F(CostFixture, PointFloorIsBelowAnyCenter) {
  for (size_t i = 0; i < dataset_->n(); ++i) {
    auto floor = PointExpectedDistanceFloor(*dataset_, i);
    ASSERT_TRUE(floor.ok());
    for (SiteId c = 0; c < dataset_->space().num_sites(); ++c) {
      EXPECT_LE(*floor,
                dataset_->point(i).ExpectedDistanceTo(dataset_->space(), c) +
                    1e-7);
    }
  }
}

TEST(LowerBoundTest, FiniteMetricFloorSearchesAllSites) {
  auto matrix = metric::MatrixSpace::Build(
      {{0, 1, 4}, {1, 0, 4}, {4, 4, 0}});
  ASSERT_TRUE(matrix.ok());
  std::vector<UncertainPoint> points;
  points.push_back(*UncertainPoint::Build({{0, 0.5}, {2, 0.5}}));
  auto dataset = UncertainDataset::Build(*matrix, std::move(points));
  ASSERT_TRUE(dataset.ok());
  auto floor = PointExpectedDistanceFloor(*dataset, 0);
  ASSERT_TRUE(floor.ok());
  // Site 0: 0.5*0 + 0.5*4 = 2; site 1: 0.5*1+0.5*4 = 2.5; site 2: 2.
  EXPECT_DOUBLE_EQ(*floor, 2.0);
}


// The kd-tree fast path for the unassigned cost (Euclidean L2, at least
// kDefaultKdTreeCutover centers) must agree exactly with the
// brute-force distance scan.
TEST(UnassignedKdPathTest, AgreesWithLinearScan) {
  uncertain::EuclideanInstanceOptions options;
  options.n = 40;
  options.z = 3;
  options.dim = 2;
  options.seed = 77;
  auto dataset = uncertain::GenerateClusteredInstance(options, 4);
  ASSERT_TRUE(dataset.ok());
  const auto sites = dataset->LocationSites();
  ASSERT_GE(sites.size(), kDefaultKdTreeCutover + 4);
  // Enough centers to trigger the kd-tree path.
  std::vector<SiteId> centers(sites.begin(),
                              sites.begin() + kDefaultKdTreeCutover + 4);
  auto fast = ExactUnassignedCost(*dataset, centers);
  ASSERT_TRUE(fast.ok());
  // Reference: rebuild via the generic machinery with a manual scan.
  std::vector<DiscreteDistribution> distributions(dataset->n());
  for (size_t i = 0; i < dataset->n(); ++i) {
    for (const auto& loc : dataset->point(i).locations()) {
      distributions[i].emplace_back(
          dataset->space().DistanceToSet(loc.site, centers), loc.probability);
    }
  }
  EXPECT_NEAR(*fast, ExpectedMaxOfIndependent(distributions), 1e-10);
}

// The kd path must NOT fire for non-L2 norms (it would compute the
// wrong metric); verify the result still matches the norm's semantics.
TEST(UnassignedKdPathTest, L1NormStaysOnLinearScan) {
  auto space = std::make_shared<EuclideanSpace>(2, metric::Norm::kL1);
  std::vector<SiteId> sites;
  Rng rng(78);
  for (int i = 0; i < 30; ++i) {
    sites.push_back(space->AddPoint(Point{rng.Gaussian(), rng.Gaussian()}));
  }
  std::vector<UncertainPoint> points;
  points.push_back(*UncertainPoint::Build({{sites[0], 0.5}, {sites[1], 0.5}}));
  auto dataset = UncertainDataset::Build(space, std::move(points));
  ASSERT_TRUE(dataset.ok());
  std::vector<SiteId> centers(sites.begin() + 2, sites.begin() + 22);
  auto value = ExactUnassignedCost(*dataset, centers);
  ASSERT_TRUE(value.ok());
  double expected = 0.0;
  for (const auto& loc : dataset->point(0).locations()) {
    expected +=
        loc.probability * dataset->space().DistanceToSet(loc.site, centers);
  }
  EXPECT_NEAR(*value, expected, 1e-12);
}

}  // namespace
}  // namespace cost
}  // namespace ukc
