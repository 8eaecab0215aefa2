// Tests for the baseline comparators and the experiment harness.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/baselines.h"
#include "core/uncertain_kcenter.h"
#include "cost/expected_cost.h"
#include "exper/instances.h"
#include "exper/reference.h"
#include "uncertain/generators.h"

namespace ukc {
namespace {

using uncertain::UncertainDataset;

UncertainDataset Clustered(uint64_t seed, size_t n = 30) {
  uncertain::EuclideanInstanceOptions options;
  options.n = n;
  options.z = 4;
  options.dim = 2;
  options.seed = seed;
  return std::move(uncertain::GenerateClusteredInstance(options, 3)).value();
}

TEST(BaselinesTest, AllKindsRunOnEuclidean) {
  for (auto kind : {baselines::BaselineKind::kPooledLocations,
                    baselines::BaselineKind::kModalLocation,
                    baselines::BaselineKind::kRandomCenters,
                    baselines::BaselineKind::kTruncatedMedian}) {
    UncertainDataset dataset = Clustered(1);
    baselines::BaselineOptions options;
    options.k = 3;
    auto result = baselines::RunBaseline(&dataset, kind, options);
    ASSERT_TRUE(result.ok()) << baselines::BaselineKindToString(kind);
    EXPECT_EQ(result->name, baselines::BaselineKindToString(kind));
    EXPECT_LE(result->centers.size(), 3u);
    EXPECT_EQ(result->assignment.size(), dataset.n());
    EXPECT_GT(result->expected_cost, 0.0);
  }
}

TEST(BaselinesTest, AllKindsRunOnMetric) {
  auto graph = uncertain::GenerateGridGraph(5, 5, 0.5, 2.0, 3);
  ASSERT_TRUE(graph.ok());
  for (auto kind : {baselines::BaselineKind::kPooledLocations,
                    baselines::BaselineKind::kModalLocation,
                    baselines::BaselineKind::kRandomCenters,
                    baselines::BaselineKind::kTruncatedMedian}) {
    auto dataset = uncertain::GenerateMetricInstance(
        *graph, 12, 3, 2.0, uncertain::ProbabilityShape::kRandom, 5);
    ASSERT_TRUE(dataset.ok());
    baselines::BaselineOptions options;
    options.k = 2;
    auto result = baselines::RunBaseline(&dataset.value(), kind, options);
    ASSERT_TRUE(result.ok()) << baselines::BaselineKindToString(kind);
  }
}

TEST(BaselinesTest, Validation) {
  UncertainDataset dataset = Clustered(7);
  baselines::BaselineOptions options;
  options.k = 0;
  EXPECT_FALSE(baselines::RunBaseline(
                   &dataset, baselines::BaselineKind::kPooledLocations, options)
                   .ok());
  EXPECT_FALSE(baselines::RunBaseline(
                   nullptr, baselines::BaselineKind::kPooledLocations, {})
                   .ok());
}

TEST(BaselinesTest, PaperPipelineBeatsModalWhenModesCollapse) {
  // Two families of points share the same modal location but carry 40%
  // of their mass in opposite far tails. The modal baseline collapses
  // every surrogate to the origin, so its two centers coincide; the
  // expected-point pipeline splits them and hedges toward the tails.
  auto space = std::make_shared<metric::EuclideanSpace>(2);
  const metric::SiteId origin = space->AddPoint(geometry::Point{0.0, 0.0});
  const metric::SiteId east = space->AddPoint(geometry::Point{100.0, 0.0});
  const metric::SiteId west = space->AddPoint(geometry::Point{-100.0, 0.0});
  std::vector<uncertain::UncertainPoint> points;
  for (int copy = 0; copy < 3; ++copy) {
    points.push_back(
        *uncertain::UncertainPoint::Build({{origin, 0.6}, {east, 0.4}}));
    points.push_back(
        *uncertain::UncertainPoint::Build({{origin, 0.6}, {west, 0.4}}));
  }
  auto dataset = uncertain::UncertainDataset::Build(space, std::move(points));
  ASSERT_TRUE(dataset.ok());

  core::UncertainKCenterOptions pipeline_options;
  pipeline_options.k = 2;
  auto pipeline =
      core::SolveUncertainKCenter(&dataset.value(), pipeline_options);
  ASSERT_TRUE(pipeline.ok());

  baselines::BaselineOptions baseline_options;
  baseline_options.k = 2;
  auto modal = baselines::RunBaseline(
      &dataset.value(), baselines::BaselineKind::kModalLocation,
      baseline_options);
  ASSERT_TRUE(modal.ok());
  EXPECT_LT(pipeline->expected_cost, modal->expected_cost);
}

TEST(InstancesTest, AllFamiliesMaterialize) {
  for (auto family :
       {exper::Family::kUniform, exper::Family::kClustered,
        exper::Family::kOutlier, exper::Family::kLine,
        exper::Family::kGridGraph}) {
    exper::InstanceSpec spec;
    spec.family = family;
    spec.n = 15;
    spec.z = 3;
    spec.seed = 21;
    auto dataset = exper::MakeInstance(spec);
    ASSERT_TRUE(dataset.ok()) << exper::FamilyToString(family);
    EXPECT_EQ(dataset->n(), 15u);
    const std::string description = exper::DescribeInstance(spec);
    EXPECT_NE(description.find(exper::FamilyToString(family)),
              std::string::npos);
  }
}

TEST(InstancesTest, LineFamilyIsOneDimensional) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kLine;
  auto dataset = exper::MakeInstance(spec);
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(dataset->is_euclidean());
  EXPECT_EQ(dataset->euclidean()->dim(), 1u);
}

TEST(InstancesTest, GridGraphFamilyIsFinite) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kGridGraph;
  spec.n = 10;
  auto dataset = exper::MakeInstance(spec);
  ASSERT_TRUE(dataset.ok());
  EXPECT_FALSE(dataset->is_euclidean());
}

TEST(ReferenceTest, LowerBoundBelowEveryAlgorithm) {
  for (auto family : {exper::Family::kClustered, exper::Family::kGridGraph}) {
    exper::InstanceSpec spec;
    spec.family = family;
    spec.n = 20;
    spec.z = 3;
    spec.k = 3;
    spec.seed = 31;
    auto dataset = exper::MakeInstance(spec);
    ASSERT_TRUE(dataset.ok());
    auto bound = exper::UnrestrictedLowerBound(&dataset.value(), spec.k);
    ASSERT_TRUE(bound.ok());
    EXPECT_GE(bound->combined, bound->per_point);
    EXPECT_GE(bound->combined, bound->surrogate);

    core::UncertainKCenterOptions options;
    options.k = spec.k;
    if (!dataset->is_euclidean()) {
      options.rule = cost::AssignmentRule::kOneCenter;
    }
    auto solution = core::SolveUncertainKCenter(&dataset.value(), options);
    ASSERT_TRUE(solution.ok());
    EXPECT_LE(bound->combined, solution->expected_cost + 1e-9)
        << exper::FamilyToString(family);
  }
}

TEST(ReferenceTest, LowerBoundPositiveOnSpreadInstances) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = 25;
  spec.spread = 1.5;
  spec.seed = 41;
  auto dataset = exper::MakeInstance(spec);
  ASSERT_TRUE(dataset.ok());
  auto bound = exper::UnrestrictedLowerBound(&dataset.value(), spec.k);
  ASSERT_TRUE(bound.ok());
  EXPECT_GT(bound->combined, 0.0);
}

}  // namespace
}  // namespace ukc
