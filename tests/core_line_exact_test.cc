// Tests for the R^1 solver and the exact tiny-instance enumerations.

#include <gtest/gtest.h>

#include <cmath>

#include "core/exact_tiny.h"
#include "core/line_solver.h"
#include "core/uncertain_kcenter.h"
#include "cost/expected_cost.h"
#include "uncertain/generators.h"

namespace ukc {
namespace core {
namespace {

using metric::SiteId;
using uncertain::UncertainDataset;

Result<UncertainDataset> Line(uint64_t seed, size_t n, size_t z,
                              double spread = 2.0) {
  return uncertain::GenerateLineInstance(
      n, z, 30.0, spread, uncertain::ProbabilityShape::kRandom, seed);
}

TEST(LineSolverTest, RejectsBadInput) {
  auto line = Line(1, 5, 3);
  ASSERT_TRUE(line.ok());
  LineSolverOptions options;
  options.k = 0;
  EXPECT_FALSE(SolveLineKCenterED(&line.value(), options).ok());
  EXPECT_FALSE(SolveLineKCenterED(nullptr, {}).ok());

  uncertain::EuclideanInstanceOptions twod;
  twod.n = 5;
  twod.dim = 2;
  twod.seed = 2;
  auto plane = uncertain::GenerateUniformInstance(twod);
  ASSERT_TRUE(plane.ok());
  LineSolverOptions valid;
  valid.k = 1;
  EXPECT_FALSE(SolveLineKCenterED(&plane.value(), valid).ok());
}

TEST(LineSolverTest, CentersAreSortedAndSited) {
  auto line = Line(3, 12, 3);
  ASSERT_TRUE(line.ok());
  LineSolverOptions options;
  options.k = 3;
  auto solution = SolveLineKCenterED(&line.value(), options);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->center_coordinates.size(), 3u);
  EXPECT_TRUE(std::is_sorted(solution->center_coordinates.begin(),
                             solution->center_coordinates.end()));
  EXPECT_EQ(solution->centers.size(), 3u);
  EXPECT_EQ(solution->assignment.size(), line->n());
  // Minted sites carry the coordinates.
  for (size_t g = 0; g < 3; ++g) {
    EXPECT_DOUBLE_EQ(line->euclidean()->point(solution->centers[g])[0],
                     solution->center_coordinates[g]);
  }
}

TEST(LineSolverTest, SingleCenterMatchesConvexMinimum) {
  auto line = Line(4, 6, 3);
  ASSERT_TRUE(line.ok());
  LineSolverOptions options;
  options.k = 1;
  auto solution = SolveLineKCenterED(&line.value(), options);
  ASSERT_TRUE(solution.ok());
  // The k=1 objective is convex in the center; compass refinement from
  // the solver's answer must not find anything better.
  auto refined = RefineOneCenterContinuous(
      *line, geometry::Point{solution->center_coordinates[0]},
      /*initial_step=*/2.0);
  ASSERT_TRUE(refined.ok());
  auto refined_value = OneCenterObjectiveAt(*line, *refined);
  ASSERT_TRUE(refined_value.ok());
  EXPECT_LE(solution->expected_cost, *refined_value + 1e-6);
}

// The line solver matches exhaustive enumeration of the restricted-ED
// problem on tiny instances (the Wang–Zhang substitution check).
class LineExactSweep : public ::testing::TestWithParam<int> {};

TEST_P(LineExactSweep, MatchesRestrictedEDEnumeration) {
  auto line = Line(static_cast<uint64_t>(GetParam()) + 50, 5, 2);
  ASSERT_TRUE(line.ok());
  LineSolverOptions options;
  options.k = 2;
  auto solution = SolveLineKCenterED(&line.value(), options);
  ASSERT_TRUE(solution.ok());

  auto candidates = DefaultCandidateSites(&line.value());
  ASSERT_TRUE(candidates.ok());
  auto reference = ExactRestrictedAssigned(
      &line.value(), 2, cost::AssignmentRule::kExpectedDistance, *candidates);
  ASSERT_TRUE(reference.ok());
  // The continuous solver may do better than the discrete-candidate
  // optimum; it must not be meaningfully worse.
  EXPECT_LE(solution->expected_cost, reference->expected_cost * 1.0 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineExactSweep, ::testing::Range(0, 8));

// --- Exact tiny enumeration ---

TEST(ExactTinyTest, RejectsBadInput) {
  auto line = Line(7, 4, 2);
  ASSERT_TRUE(line.ok());
  auto candidates = DefaultCandidateSites(&line.value());
  ASSERT_TRUE(candidates.ok());
  EXPECT_FALSE(ExactRestrictedAssigned(nullptr, 1,
                                       cost::AssignmentRule::kExpectedDistance,
                                       *candidates)
                   .ok());
  EXPECT_FALSE(ExactRestrictedAssigned(&line.value(), 0,
                                       cost::AssignmentRule::kExpectedDistance,
                                       *candidates)
                   .ok());
  EXPECT_FALSE(ExactUnrestrictedAssigned(&line.value(), 0, *candidates).ok());
  // 25 points of 4 locations give 100 location sites plus the
  // surrogates, so C(|candidates|, 4) >= C(100, 4) = 3'921'225 center
  // subsets: refused before any enumeration.
  auto large = Line(7, 25, 4);
  ASSERT_TRUE(large.ok());
  auto many = DefaultCandidateSites(&large.value());
  ASSERT_TRUE(many.ok());
  ASSERT_GE(many->size(), 100u);
  const auto refused = ExactUnrestrictedAssigned(&large.value(), 4, *many);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("exceeds the cap 2000000"),
            std::string::npos)
      << refused.status();
}

TEST(ExactTinyTest, UnrestrictedNeverWorseThanRestricted) {
  for (uint64_t seed = 60; seed < 66; ++seed) {
    auto line = Line(seed, 4, 2);
    ASSERT_TRUE(line.ok());
    auto candidates = DefaultCandidateSites(&line.value());
    ASSERT_TRUE(candidates.ok());
    auto unrestricted =
        ExactUnrestrictedAssigned(&line.value(), 2, *candidates);
    ASSERT_TRUE(unrestricted.ok());
    for (auto rule : {cost::AssignmentRule::kExpectedDistance,
                      cost::AssignmentRule::kExpectedPoint,
                      cost::AssignmentRule::kOneCenter}) {
      auto restricted =
          ExactRestrictedAssigned(&line.value(), 2, rule, *candidates);
      ASSERT_TRUE(restricted.ok());
      EXPECT_LE(unrestricted->expected_cost,
                restricted->expected_cost + 1e-9)
          << cost::AssignmentRuleToString(rule);
    }
  }
}

TEST(ExactTinyTest, ExactBeatsPipelineOnSameCandidates) {
  for (uint64_t seed = 70; seed < 74; ++seed) {
    uncertain::EuclideanInstanceOptions options;
    options.n = 5;
    options.z = 2;
    options.dim = 2;
    options.seed = seed;
    auto dataset = uncertain::GenerateClusteredInstance(options, 2);
    ASSERT_TRUE(dataset.ok());
    UncertainKCenterOptions pipeline_options;
    pipeline_options.k = 2;
    auto pipeline = SolveUncertainKCenter(&dataset.value(), pipeline_options);
    ASSERT_TRUE(pipeline.ok());
    auto candidates = DefaultCandidateSites(&dataset.value());
    ASSERT_TRUE(candidates.ok());
    auto exact = ExactRestrictedAssigned(
        &dataset.value(), 2, cost::AssignmentRule::kExpectedDistance,
        *candidates);
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(exact->expected_cost, pipeline->expected_cost + 1e-9);
  }
}

TEST(ExactTinyTest, CandidateSetCoversLocationsAndSurrogates) {
  auto line = Line(80, 4, 3);
  ASSERT_TRUE(line.ok());
  const size_t locations = line->LocationSites().size();
  auto candidates = DefaultCandidateSites(&line.value());
  ASSERT_TRUE(candidates.ok());
  // Locations + n expected points + n medians (some may coincide).
  EXPECT_GE(candidates->size(), locations);
  EXPECT_LE(candidates->size(), locations + 2 * line->n());
}

TEST(ExactTinyTest, FiniteMetricCandidatesAreAllSites) {
  auto graph = uncertain::GenerateGridGraph(3, 3, 0.5, 2.0, 90);
  ASSERT_TRUE(graph.ok());
  auto dataset = uncertain::GenerateMetricInstance(
      *graph, 4, 2, 2.0, uncertain::ProbabilityShape::kUniform, 91);
  ASSERT_TRUE(dataset.ok());
  auto candidates = DefaultCandidateSites(&dataset.value());
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 9u);
}

TEST(ExactTinyTest, OneCenterObjectiveMatchesUnassignedCost) {
  auto line = Line(95, 5, 3);
  ASSERT_TRUE(line.ok());
  const SiteId site = line->point(0).site(0);
  const geometry::Point q = line->euclidean()->point(site);
  auto at_point = OneCenterObjectiveAt(*line, q);
  auto at_site = cost::ExactUnassignedCost(*line, {site});
  ASSERT_TRUE(at_point.ok());
  ASSERT_TRUE(at_site.ok());
  EXPECT_NEAR(*at_point, *at_site, 1e-12);
}

TEST(ExactTinyTest, CompassSearchImprovesOrMatchesStart) {
  auto line = Line(97, 6, 3);
  ASSERT_TRUE(line.ok());
  const geometry::Point start{15.0};
  auto start_value = OneCenterObjectiveAt(*line, start);
  ASSERT_TRUE(start_value.ok());
  auto refined = RefineOneCenterContinuous(*line, start, 5.0);
  ASSERT_TRUE(refined.ok());
  auto refined_value = OneCenterObjectiveAt(*line, *refined);
  ASSERT_TRUE(refined_value.ok());
  EXPECT_LE(*refined_value, *start_value + 1e-12);
}

}  // namespace
}  // namespace core
}  // namespace ukc
