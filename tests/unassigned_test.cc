// Tests for the unassigned-version solvers and the relations the
// paper's taxonomy implies between the three problem versions.

#include "core/unassigned.h"

#include <gtest/gtest.h>

#include "core/exact_tiny.h"
#include "cost/expected_cost.h"
#include "exper/instances.h"
#include "uncertain/generators.h"

namespace ukc {
namespace core {
namespace {

using metric::SiteId;
using uncertain::UncertainDataset;

UncertainDataset Tiny(uint64_t seed) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = 5;
  spec.z = 2;
  spec.k = 2;
  spec.seed = seed;
  return std::move(exper::MakeInstance(spec)).value();
}

TEST(ExactUnassignedTinyTest, Validation) {
  UncertainDataset dataset = Tiny(1);
  const auto sites = dataset.LocationSites();
  EXPECT_FALSE(ExactUnassignedTiny(dataset, 0, sites).ok());
  EXPECT_FALSE(ExactUnassignedTiny(dataset, sites.size() + 1, sites).ok());
}

TEST(ExactUnassignedTinyTest, RefusesMoreSubsetsThanTheCap) {
  // 25 points of 4 locations: C(100, 4) = 3'921'225 subsets, refused
  // before any enumeration.
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = 25;
  spec.z = 4;
  spec.k = 4;
  spec.seed = 3;
  UncertainDataset dataset = std::move(exper::MakeInstance(spec)).value();
  const auto sites = dataset.LocationSites();
  ASSERT_EQ(sites.size(), 100u);
  const auto refused = ExactUnassignedTiny(dataset, 4, sites);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("exceeds the cap 2000000"),
            std::string::npos)
      << refused.status();
}

TEST(ExactUnassignedTinyTest, FindsTheSubsetOptimum) {
  UncertainDataset dataset = Tiny(2);
  const auto sites = dataset.LocationSites();
  auto exact = ExactUnassignedTiny(dataset, 2, sites);
  ASSERT_TRUE(exact.ok());
  // Spot-check optimality against random subsets.
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(sites.size()) - 1));
    const size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(sites.size()) - 1));
    if (a == b) continue;
    auto value = cost::ExactUnassignedCost(dataset, {sites[a], sites[b]});
    ASSERT_TRUE(value.ok());
    EXPECT_GE(*value, exact->expected_cost - 1e-12);
  }
}

// Version ordering: OPT_unassigned <= OPT_unrestricted <= OPT_restricted
// over the same candidate set (fixing more structure can only hurt).
TEST(VersionOrderingTest, UnassignedBelowUnrestrictedBelowRestricted) {
  for (uint64_t seed = 4; seed <= 8; ++seed) {
    UncertainDataset dataset = Tiny(seed);
    auto candidates = DefaultCandidateSites(&dataset);
    ASSERT_TRUE(candidates.ok());
    auto unassigned = ExactUnassignedTiny(dataset, 2, *candidates);
    auto unrestricted = ExactUnrestrictedAssigned(&dataset, 2, *candidates);
    auto restricted = ExactRestrictedAssigned(
        &dataset, 2, cost::AssignmentRule::kExpectedDistance, *candidates);
    ASSERT_TRUE(unassigned.ok());
    ASSERT_TRUE(unrestricted.ok());
    ASSERT_TRUE(restricted.ok());
    EXPECT_LE(unassigned->expected_cost, unrestricted->expected_cost + 1e-9);
    EXPECT_LE(unrestricted->expected_cost, restricted->expected_cost + 1e-9);
  }
}

TEST(LocalSearchUnassignedTest, Validation) {
  UncertainDataset dataset = Tiny(9);
  UnassignedSearchOptions options;
  options.k = 0;
  EXPECT_FALSE(LocalSearchUnassigned(&dataset, options).ok());
  EXPECT_FALSE(LocalSearchUnassigned(nullptr, {}).ok());
}

TEST(LocalSearchUnassignedTest, NeverWorseThanPipelineSeed) {
  for (uint64_t seed = 10; seed <= 14; ++seed) {
    exper::InstanceSpec spec;
    spec.family = exper::Family::kClustered;
    spec.n = 20;
    spec.z = 3;
    spec.k = 3;
    spec.spread = 1.5;
    spec.seed = seed;
    auto dataset = exper::MakeInstance(spec);
    ASSERT_TRUE(dataset.ok());
    // Seed cost: the pipeline centers under the unassigned objective.
    UncertainKCenterOptions pipeline_options;
    pipeline_options.k = 3;
    pipeline_options.evaluate_unassigned = true;
    auto seed_solution =
        SolveUncertainKCenter(&dataset.value(), pipeline_options);
    ASSERT_TRUE(seed_solution.ok());

    UnassignedSearchOptions options;
    options.k = 3;
    auto refined = LocalSearchUnassigned(&dataset.value(), options);
    ASSERT_TRUE(refined.ok());
    EXPECT_LE(refined->expected_cost, seed_solution->unassigned_cost + 1e-9);
  }
}

TEST(LocalSearchUnassignedTest, ReachesTinyOptimumOften) {
  // The candidate set must include the pipeline's surrogate sites
  // (DefaultCandidateSites does), or the "exact" reference is optimal
  // over a smaller pool than the search and the comparison inverts.
  int hits = 0;
  const int trials = 6;
  for (uint64_t seed = 20; seed < 20 + trials; ++seed) {
    UncertainDataset dataset = Tiny(seed);
    auto candidates = DefaultCandidateSites(&dataset);
    ASSERT_TRUE(candidates.ok());
    auto exact = ExactUnassignedTiny(dataset, 2, *candidates);
    ASSERT_TRUE(exact.ok());
    UnassignedSearchOptions options;
    options.k = 2;
    options.candidates = *candidates;
    auto refined = LocalSearchUnassigned(&dataset, options);
    ASSERT_TRUE(refined.ok());
    EXPECT_GE(refined->expected_cost, exact->expected_cost - 1e-9);
    if (refined->expected_cost <= exact->expected_cost + 1e-9) ++hits;
  }
  EXPECT_GE(hits, trials - 2);  // Local search may miss occasionally.
}

TEST(LocalSearchUnassignedTest, WorksOnFiniteMetric) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kGridGraph;
  spec.n = 12;
  spec.z = 3;
  spec.k = 2;
  spec.seed = 31;
  auto dataset = exper::MakeInstance(spec);
  ASSERT_TRUE(dataset.ok());
  UnassignedSearchOptions options;
  options.k = 2;
  auto refined = LocalSearchUnassigned(&dataset.value(), options);
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(refined->centers.size(), 2u);
  EXPECT_GT(refined->expected_cost, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace ukc
