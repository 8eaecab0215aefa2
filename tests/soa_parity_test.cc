// Parity tests for the flat (SoA) geometry core and the reusable
// expected-cost engine: every fast path must agree with a naive
// Point-based reference implementation.
//
//   - distance kernels vs straightforward coordinate loops, for all
//     three norms and d in {1, 2, 3, 8} (covering every unrolled case
//     plus the strided fallback);
//   - the implicit-layout kd-tree vs brute-force nearest scans;
//   - EuclideanSpace::DistanceToSet / NearestInSet overrides vs the
//     generic per-pair scan;
//   - ExpectedCostEvaluator vs BruteForce* enumeration on tiny
//     instances, and vs the pre-refactor log/exp sweep formulation on
//     the exper::MakeInstance families (1e-9 relative tolerance);
//   - the kd-tree and linear unassigned paths against each other.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "cost/assignment.h"
#include "cost/expected_cost.h"
#include "cost/expected_cost_evaluator.h"
#include "exper/instances.h"
#include "geometry/kdtree.h"
#include "geometry/point.h"
#include "geometry/point_view.h"
#include "metric/euclidean_space.h"
#include "solver/gonzalez.h"

namespace ukc {
namespace {

using geometry::Point;
using metric::EuclideanSpace;
using metric::Norm;
using metric::SiteId;

std::vector<Point> RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point p(dim);
    for (size_t a = 0; a < dim; ++a) p[a] = rng.UniformDouble(-10.0, 10.0);
    points.push_back(std::move(p));
  }
  return points;
}

// Naive references written against Point only, mirroring the seed
// implementations the kernels replaced.
double NaiveSquaredDistance(const Point& a, const Point& b) {
  double total = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}
double NaiveL1(const Point& a, const Point& b) {
  double total = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) total += std::abs(a[i] - b[i]);
  return total;
}
double NaiveLInf(const Point& a, const Point& b) {
  double worst = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(DistanceKernelParityTest, AllNormsAllDims) {
  for (size_t dim : {1u, 2u, 3u, 8u}) {
    const auto points = RandomPoints(60, dim, 100 + dim);
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = 0; j < points.size(); ++j) {
        const double* a = points[i].coords().data();
        const double* b = points[j].coords().data();
        // Same arithmetic order, so equality is exact.
        EXPECT_EQ(geometry::SquaredDistanceKernel(a, b, dim),
                  NaiveSquaredDistance(points[i], points[j]))
            << "dim=" << dim;
        EXPECT_EQ(geometry::L1DistanceKernel(a, b, dim),
                  NaiveL1(points[i], points[j]));
        EXPECT_EQ(geometry::LInfDistanceKernel(a, b, dim),
                  NaiveLInf(points[i], points[j]));
      }
    }
  }
}

TEST(DistanceKernelParityTest, PointFreeFunctionsMatchKernels) {
  for (size_t dim : {1u, 2u, 3u, 8u}) {
    const auto points = RandomPoints(20, dim, 200 + dim);
    for (size_t i = 0; i + 1 < points.size(); ++i) {
      const Point& a = points[i];
      const Point& b = points[i + 1];
      EXPECT_EQ(geometry::SquaredDistance(a, b), NaiveSquaredDistance(a, b));
      EXPECT_EQ(geometry::Distance(a, b), std::sqrt(NaiveSquaredDistance(a, b)));
      EXPECT_EQ(geometry::L1DistanceKernel(a.coords().data(), b.coords().data(),
                                           dim),
                NaiveL1(a, b));
      EXPECT_EQ(geometry::LInfDistanceKernel(a.coords().data(),
                                             b.coords().data(), dim),
                NaiveLInf(a, b));
    }
  }
}

// The flat row-major buffer KdTree::BuildFlat takes.
std::vector<double> Flatten(const std::vector<Point>& points) {
  std::vector<double> coords;
  for (const Point& p : points) {
    coords.insert(coords.end(), p.coords().begin(), p.coords().end());
  }
  return coords;
}

TEST(KdTreeParityTest, NearestMatchesBruteForceAcrossDims) {
  for (size_t dim : {1u, 2u, 3u, 8u}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const auto points = RandomPoints(257, dim, seed * 1000 + dim);
      auto tree = geometry::KdTree::BuildFlat(Flatten(points), dim);
      ASSERT_TRUE(tree.ok());
      Rng rng(seed * 31 + dim);
      for (int q = 0; q < 60; ++q) {
        Point query(dim);
        for (size_t a = 0; a < dim; ++a) {
          query[a] = rng.UniformDouble(-12.0, 12.0);
        }
        double best = std::numeric_limits<double>::infinity();
        for (const Point& p : points) {
          best = std::min(best, NaiveSquaredDistance(p, query));
        }
        EXPECT_DOUBLE_EQ(tree->Nearest(query.coords().data()).squared_distance,
                         best)
            << "dim=" << dim << " seed=" << seed;
      }
    }
  }
}

// The returned index names the brute-force argmin (Gaussian queries
// against uniform points: no ties) at exactly its distance.
TEST(KdTreeParityTest, NearestIndexMatchesBruteForce) {
  const size_t dim = 3;
  const auto points = RandomPoints(100, dim, 5);
  auto tree = geometry::KdTree::BuildFlat(Flatten(points), dim);
  ASSERT_TRUE(tree.ok());
  Rng rng(6);
  for (int q = 0; q < 50; ++q) {
    Point query{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
    size_t argmin = 0;
    for (size_t i = 1; i < points.size(); ++i) {
      if (NaiveSquaredDistance(points[i], query) <
          NaiveSquaredDistance(points[argmin], query)) {
        argmin = i;
      }
    }
    const auto nearest = tree->Nearest(query.coords().data());
    EXPECT_EQ(nearest.index, argmin);
    EXPECT_EQ(nearest.squared_distance,
              geometry::SquaredDistance(points[argmin], query));
  }
}

TEST(EuclideanSpaceParityTest, SetScansMatchGenericLoop) {
  for (Norm norm : {Norm::kL2, Norm::kL1, Norm::kLInf}) {
    for (size_t dim : {1u, 2u, 3u, 8u}) {
      EuclideanSpace space(dim, RandomPoints(80, dim, 300 + dim), norm);
      std::vector<SiteId> candidates;
      for (SiteId s = 3; s < space.num_sites(); s += 7) candidates.push_back(s);
      for (SiteId a = 0; a < space.num_sites(); a += 11) {
        // Generic reference: per-pair virtual Distance calls.
        double best = std::numeric_limits<double>::infinity();
        SiteId best_site = metric::kInvalidSite;
        for (SiteId c : candidates) {
          const double d = space.Distance(a, c);
          if (d < best) {
            best = d;
            best_site = c;
          }
        }
        EXPECT_EQ(space.DistanceToSet(a, candidates), best);
        EXPECT_EQ(space.NearestInSet(a, candidates), best_site);
      }
    }
  }
}

// --- Expected-cost engine parity ---

// The pre-refactor sweep: per-point distribution vectors built through
// the virtual distance oracle, then the log/exp product formulation.
double ReferenceExpectedMax(
    const std::vector<cost::DiscreteDistribution>& distributions) {
  struct Event {
    double value;
    uint32_t index;
    double probability;
  };
  std::vector<Event> events;
  for (size_t i = 0; i < distributions.size(); ++i) {
    for (const auto& [value, probability] : distributions[i]) {
      events.push_back(Event{value, static_cast<uint32_t>(i), probability});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.value < b.value; });
  std::vector<double> cdf(distributions.size(), 0.0);
  size_t zeros = distributions.size();
  KahanSum log_product;
  KahanSum expectation;
  double previous = 0.0;
  size_t e = 0;
  while (e < events.size()) {
    const double value = events[e].value;
    while (e < events.size() && events[e].value == value) {
      const Event& event = events[e];
      const double old_cdf = cdf[event.index];
      const double new_cdf = old_cdf + event.probability;
      cdf[event.index] = new_cdf;
      if (old_cdf == 0.0) {
        --zeros;
      } else {
        log_product.Add(-std::log(old_cdf));
      }
      log_product.Add(std::log(new_cdf));
      ++e;
    }
    const double product = zeros > 0 ? 0.0 : std::exp(log_product.Total());
    const double mass = product - previous;
    if (mass > 0.0) expectation.Add(value * mass);
    previous = product;
  }
  return expectation.Total();
}

double ReferenceAssignedCost(const uncertain::UncertainDataset& dataset,
                             const cost::Assignment& assignment) {
  std::vector<cost::DiscreteDistribution> distributions(dataset.n());
  for (size_t i = 0; i < dataset.n(); ++i) {
    for (const auto& loc : dataset.point(i).locations()) {
      distributions[i].emplace_back(
          dataset.space().Distance(loc.site, assignment[i]), loc.probability);
    }
  }
  return ReferenceExpectedMax(distributions);
}

double ReferenceUnassignedCost(const uncertain::UncertainDataset& dataset,
                               const std::vector<SiteId>& centers) {
  std::vector<cost::DiscreteDistribution> distributions(dataset.n());
  for (size_t i = 0; i < dataset.n(); ++i) {
    for (const auto& loc : dataset.point(i).locations()) {
      distributions[i].emplace_back(
          dataset.space().DistanceToSet(loc.site, centers), loc.probability);
    }
  }
  return ReferenceExpectedMax(distributions);
}

class InstanceFamilyParityTest
    : public ::testing::TestWithParam<exper::Family> {};

TEST_P(InstanceFamilyParityTest, CostsMatchReferenceSweep) {
  exper::InstanceSpec spec;
  spec.family = GetParam();
  spec.n = 50;
  spec.z = 4;
  spec.dim = spec.family == exper::Family::kLine ? 1 : 2;
  spec.k = 4;
  spec.seed = 11;
  auto dataset = exper::MakeInstance(spec);
  ASSERT_TRUE(dataset.ok());
  const auto sites = dataset->LocationSites();
  auto centers = solver::Gonzalez(dataset->space(), sites, spec.k);
  ASSERT_TRUE(centers.ok());
  auto assignment = cost::AssignExpectedDistance(*dataset, centers->centers);
  ASSERT_TRUE(assignment.ok());

  auto assigned = cost::ExactAssignedCost(*dataset, *assignment);
  ASSERT_TRUE(assigned.ok());
  const double reference_assigned = ReferenceAssignedCost(*dataset, *assignment);
  EXPECT_NEAR(*assigned, reference_assigned,
              1e-9 * (1.0 + std::abs(reference_assigned)));

  auto unassigned = cost::ExactUnassignedCost(*dataset, centers->centers);
  ASSERT_TRUE(unassigned.ok());
  const double reference_unassigned =
      ReferenceUnassignedCost(*dataset, centers->centers);
  EXPECT_NEAR(*unassigned, reference_unassigned,
              1e-9 * (1.0 + std::abs(reference_unassigned)));
}

INSTANTIATE_TEST_SUITE_P(Families, InstanceFamilyParityTest,
                         ::testing::Values(exper::Family::kUniform,
                                           exper::Family::kClustered,
                                           exper::Family::kOutlier,
                                           exper::Family::kLine,
                                           exper::Family::kGridGraph));

TEST(EvaluatorParityTest, MatchesBruteForceOnTinyInstances) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    exper::InstanceSpec spec;
    spec.family = exper::Family::kClustered;
    spec.n = 6;
    spec.z = 3;
    spec.dim = 2;
    spec.k = 2;
    spec.seed = seed;
    auto dataset = exper::MakeInstance(spec);
    ASSERT_TRUE(dataset.ok());
    const auto sites = dataset->LocationSites();
    std::vector<SiteId> centers = {sites[0], sites[sites.size() / 2]};
    auto assignment = cost::AssignExpectedDistance(*dataset, centers);
    ASSERT_TRUE(assignment.ok());

    cost::ExpectedCostEvaluator evaluator;
    auto assigned = evaluator.AssignedCost(*dataset, *assignment);
    auto brute_assigned = cost::BruteForceAssignedCost(*dataset, *assignment);
    ASSERT_TRUE(assigned.ok());
    ASSERT_TRUE(brute_assigned.ok());
    EXPECT_NEAR(*assigned, *brute_assigned,
                1e-9 * (1.0 + std::abs(*brute_assigned)));

    auto unassigned = evaluator.UnassignedCost(*dataset, centers);
    auto brute_unassigned = cost::BruteForceUnassignedCost(*dataset, centers);
    ASSERT_TRUE(unassigned.ok());
    ASSERT_TRUE(brute_unassigned.ok());
    EXPECT_NEAR(*unassigned, *brute_unassigned,
                1e-9 * (1.0 + std::abs(*brute_unassigned)));
  }
}

TEST(EvaluatorParityTest, KdTreeAndLinearPathsAgree) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = 120;
  spec.z = 3;
  spec.dim = 2;
  spec.k = 8;
  spec.seed = 3;
  auto dataset = exper::MakeInstance(spec);
  ASSERT_TRUE(dataset.ok());
  const auto sites = dataset->LocationSites();
  ASSERT_GT(sites.size(), 64u);
  std::vector<SiteId> centers(sites.begin(), sites.begin() + 64);

  cost::ExpectedCostEvaluator::Options linear_options;
  linear_options.kdtree_cutover = std::numeric_limits<size_t>::max();
  cost::ExpectedCostEvaluator linear(linear_options);
  cost::ExpectedCostEvaluator::Options tree_options;
  tree_options.kdtree_cutover = 1;
  cost::ExpectedCostEvaluator tree(tree_options);

  auto linear_value = linear.UnassignedCost(*dataset, centers);
  auto tree_value = tree.UnassignedCost(*dataset, centers);
  ASSERT_TRUE(linear_value.ok());
  ASSERT_TRUE(tree_value.ok());
  EXPECT_NEAR(*linear_value, *tree_value, 1e-10 * (1.0 + *linear_value));
}

// One evaluator reused across many center sets (its event, CDF and
// center scratch carried over) answers bitwise like a fresh evaluator
// per set.
TEST(EvaluatorParityTest, ReusedEvaluatorMatchesFreshOnes) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kUniform;
  spec.n = 40;
  spec.z = 3;
  spec.dim = 2;
  spec.k = 3;
  spec.seed = 8;
  auto dataset = exper::MakeInstance(spec);
  ASSERT_TRUE(dataset.ok());
  const auto sites = dataset->LocationSites();
  cost::ExpectedCostEvaluator reused;
  for (size_t offset = 0; offset + 3 < sites.size(); offset += 5) {
    const std::vector<SiteId> centers = {sites[offset], sites[offset + 1],
                                         sites[offset + 3]};
    auto value = reused.UnassignedCost(*dataset, centers);
    cost::ExpectedCostEvaluator fresh;
    auto single = fresh.UnassignedCost(*dataset, centers);
    ASSERT_TRUE(value.ok());
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(*value, *single) << "offset=" << offset;
  }
}

}  // namespace
}  // namespace ukc
