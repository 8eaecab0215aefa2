// Parity suite for stream::SolveOnCells, the certain-point solve of the
// coreset representatives that the streaming facade and serve's centers
// query share.
//
// The oracle is the general pipeline: core::SolveUncertainKCenter with
// the ED rule on the same points loaded as a certain dataset (one
// location of probability 1 each), which mints expected-point
// surrogates, ED-assigns and runs the exact evaluator. SolveOnCells
// must return bitwise the same centers, cost and certain radius — for
// every Euclidean certain solver, every norm, duplicate points, signed
// zeros, k >= n, and thread counts {1, 2, 4}.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/uncertain_kcenter.h"
#include "stream/pipeline.h"

namespace ukc {
namespace {

using solver::CertainSolverKind;

const int kThreadCounts[] = {1, 2, 4};
const metric::Norm kNorms[] = {metric::Norm::kL2, metric::Norm::kL1,
                               metric::Norm::kLInf};

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  bits.reserve(values.size());
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// n points in R^dim, row-major. Lattice coordinates (step 0.5) make
// duplicate points and distance ties common; every zero coordinate is
// written as -0.0 or +0.0 at random, so the x + 0.0 normalization of
// the emitted centers is exercised. Continuous coordinates draw exact
// duplicates of earlier points as well.
std::vector<double> MakePoints(Rng& rng, size_t n, size_t dim, bool lattice) {
  std::vector<double> points;
  points.reserve(n * dim);
  for (size_t i = 0; i < n; ++i) {
    if (!lattice && i > 0 && rng.UniformInt(0, 4) == 0) {
      const size_t j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      for (size_t a = 0; a < dim; ++a) points.push_back(points[j * dim + a]);
      continue;
    }
    for (size_t a = 0; a < dim; ++a) {
      double x = lattice ? 0.5 * static_cast<double>(rng.UniformInt(-3, 3))
                         : rng.UniformDouble(-10.0, 10.0);
      if (x == 0.0 || rng.UniformInt(0, 9) == 0) {
        x = rng.UniformInt(0, 1) == 0 ? -0.0 : 0.0;
      }
      points.push_back(x);
    }
  }
  return points;
}

struct Answer {
  StatusCode code = StatusCode::kOk;
  size_t k = 0;
  std::vector<double> centers;
  double cost = 0.0;
  double radius = 0.0;
};

// The oracle: the general uncertain pipeline on the certain dataset.
Answer PipelineAnswer(const std::vector<double>& points, size_t dim,
                      metric::Norm norm, size_t k,
                      const solver::CertainSolverOptions& certain,
                      ThreadPool* pool) {
  auto space = std::make_shared<metric::EuclideanSpace>(dim, norm);
  std::vector<uncertain::UncertainPoint> certain_points;
  for (size_t i = 0; i * dim < points.size(); ++i) {
    certain_points.push_back(uncertain::UncertainPoint::Certain(
        space->AddCoords(points.data() + i * dim)));
  }
  auto dataset = std::move(uncertain::UncertainDataset::Build(
                               space, std::move(certain_points)))
                     .value();
  core::UncertainKCenterOptions options;
  options.k = k;
  options.rule = cost::AssignmentRule::kExpectedDistance;
  options.certain = certain;
  options.pool = pool;
  auto solution = core::SolveUncertainKCenter(&dataset, options);
  Answer answer;
  if (!solution.ok()) {
    answer.code = solution.status().code();
    return answer;
  }
  answer.k = solution->centers.size();
  for (metric::SiteId center : solution->centers) {
    const double* coords = space->coords(center);
    answer.centers.insert(answer.centers.end(), coords, coords + dim);
  }
  answer.cost = solution->expected_cost;
  answer.radius = solution->certain_radius;
  return answer;
}

Answer CellsAnswer(const std::vector<double>& points, size_t dim,
                   metric::Norm norm, size_t k,
                   solver::CertainSolverOptions certain, ThreadPool* pool) {
  certain.pool = pool;
  auto solution = stream::SolveOnCells(points.data(), points.size() / dim, dim,
                                       norm, k, certain, Deadline());
  Answer answer;
  if (!solution.ok()) {
    answer.code = solution.status().code();
    return answer;
  }
  answer.k = solution->k;
  answer.centers = solution->center_coords;
  answer.cost = solution->cost;
  answer.radius = solution->certain_radius;
  return answer;
}

void ExpectBitwiseEqual(const Answer& got, const Answer& want) {
  ASSERT_EQ(got.code, want.code);
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(Bits(got.centers), Bits(want.centers));
  EXPECT_EQ(Bits(got.cost), Bits(want.cost));
  EXPECT_EQ(Bits(got.radius), Bits(want.radius));
}

// Runs one instance at every thread count: SolveOnCells equals the
// pipeline oracle, and both equal the 1-thread answer.
void ExpectParity(const std::vector<double>& points, size_t dim,
                  metric::Norm norm, size_t k,
                  const solver::CertainSolverOptions& certain) {
  Answer first;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    const Answer want = PipelineAnswer(points, dim, norm, k, certain, &pool);
    const Answer got = CellsAnswer(points, dim, norm, k, certain, &pool);
    ExpectBitwiseEqual(got, want);
    EXPECT_EQ(want.code, StatusCode::kOk);
    if (threads == kThreadCounts[0]) {
      first = got;
    } else {
      ExpectBitwiseEqual(got, first);
    }
  }
}

TEST(SolveOnCellsTest, GonzalezMatchesPipelineBitwise) {
  const size_t kDims[] = {1, 2, 3, 8};
  const size_t kSizes[] = {1, 2, 5, 37, 300, 1500};
  const size_t kKs[] = {1, 2, 3, 8, 20};
  Rng rng(2024);
  int instance = 0;
  for (metric::Norm norm : kNorms) {
    for (size_t dim : kDims) {
      for (size_t n : kSizes) {
        for (size_t k : kKs) {
          const bool lattice = (instance++ % 2) == 0;
          SCOPED_TRACE(::testing::Message()
                       << "norm=" << metric::NormToString(norm)
                       << " dim=" << dim << " n=" << n << " k=" << k
                       << " lattice=" << lattice);
          const std::vector<double> points = MakePoints(rng, n, dim, lattice);
          ExpectParity(points, dim, norm, k, solver::CertainSolverOptions{});
        }
      }
    }
  }
}

// Random instances for one solver kind, sized so the kind runs in test
// time: n in [1, max_n], dim in [1, max_dim], k in [1, max_k], every
// norm, lattice and continuous coordinates alternating.
void ExpectKindParity(CertainSolverKind kind, size_t max_n, size_t max_dim,
                      size_t max_k, uint64_t seed) {
  solver::CertainSolverOptions certain;
  certain.kind = kind;
  Rng rng(seed);
  for (metric::Norm norm : kNorms) {
    for (int round = 0; round < 8; ++round) {
      const size_t n = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(max_n)));
      const size_t dim = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(max_dim)));
      const size_t k = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(max_k)));
      const bool lattice = round % 2 == 0;
      SCOPED_TRACE(::testing::Message()
                   << "norm=" << metric::NormToString(norm) << " dim=" << dim
                   << " n=" << n << " k=" << k << " lattice=" << lattice);
      const std::vector<double> points = MakePoints(rng, n, dim, lattice);
      ExpectParity(points, dim, norm, k, certain);
    }
  }
}

TEST(SolveOnCellsTest, HochbaumShmoysMatchesPipelineBitwise) {
  ExpectKindParity(CertainSolverKind::kHochbaumShmoys, 120, 8, 20, 71);
}

TEST(SolveOnCellsTest, GonzalezRefinedMatchesPipelineBitwise) {
  ExpectKindParity(CertainSolverKind::kGonzalezRefined, 300, 8, 20, 72);
}

TEST(SolveOnCellsTest, ExactMatchesPipelineBitwise) {
  ExpectKindParity(CertainSolverKind::kExact, 7, 2, 3, 73);
}

TEST(SolveOnCellsTest, GridEpsilonMatchesPipelineBitwise) {
  ExpectKindParity(CertainSolverKind::kGridEpsilon, 16, 2, 2, 74);
}

TEST(SolveOnCellsTest, KAtLeastNMatchesPipelineBitwise) {
  const CertainSolverKind kKinds[] = {
      CertainSolverKind::kGonzalez, CertainSolverKind::kHochbaumShmoys,
      CertainSolverKind::kGonzalezRefined, CertainSolverKind::kExact,
      CertainSolverKind::kGridEpsilon};
  Rng rng(5);
  for (CertainSolverKind kind : kKinds) {
    solver::CertainSolverOptions certain;
    certain.kind = kind;
    for (size_t n : {size_t{1}, size_t{3}, size_t{6}}) {
      for (size_t extra : {size_t{0}, size_t{1}, size_t{5}}) {
        const size_t k = n + extra;
        SCOPED_TRACE(::testing::Message()
                     << solver::CertainSolverKindToString(kind) << " n=" << n
                     << " k=" << k);
        const std::vector<double> points = MakePoints(rng, n, 2, extra == 1);
        ExpectParity(points, 2, metric::Norm::kL2, k, certain);
      }
    }
  }
}

TEST(SolveOnCellsTest, ReportsTheCentersTheSolverReturned) {
  // Hochbaum–Shmoys covers two far-apart pairs with two centers even
  // when k = 3: k and center_coords follow the solver, not the request.
  const std::vector<double> points = {0.0, 1.0, 100.0, 101.0};
  solver::CertainSolverOptions certain;
  certain.kind = CertainSolverKind::kHochbaumShmoys;
  auto solution = stream::SolveOnCells(points.data(), 4, 1, metric::Norm::kL2,
                                       3, certain, Deadline());
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_EQ(solution->k, 2u);
  EXPECT_EQ(solution->center_coords.size(), 2u);
  EXPECT_EQ(solution->cost, 1.0);
}

TEST(SolveOnCellsTest, RejectsEmptyInputAndZeroK) {
  const std::vector<double> points = {1.0, 2.0};
  EXPECT_EQ(stream::SolveOnCells(points.data(), 0, 2, metric::Norm::kL2, 1, {},
                                 Deadline())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stream::SolveOnCells(points.data(), 1, 2, metric::Norm::kL2, 0, {},
                                 Deadline())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SolveOnCellsTest, DeadlineChecksAreDeterministic) {
  // n = 600: entry, before clustering, then the cost scan at points 0,
  // 256 and 512 — five checks, so a budget of five expires on the last
  // scan check and six completes.
  Rng rng(3);
  const std::vector<double> points = MakePoints(rng, 600, 2, false);
  for (int64_t budget = 1; budget <= 5; ++budget) {
    SCOPED_TRACE(::testing::Message() << "budget=" << budget);
    auto solution =
        stream::SolveOnCells(points.data(), 600, 2, metric::Norm::kL2, 4, {},
                             Deadline::AfterChecks(budget));
    ASSERT_FALSE(solution.ok());
    EXPECT_EQ(solution.status().code(), StatusCode::kDeadlineExceeded);
  }
  auto fine = stream::SolveOnCells(points.data(), 600, 2, metric::Norm::kL2, 4,
                                   {}, Deadline::AfterChecks(6));
  ASSERT_TRUE(fine.ok()) << fine.status();
  auto unbounded = stream::SolveOnCells(points.data(), 600, 2,
                                        metric::Norm::kL2, 4, {}, Deadline());
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(Bits(fine->center_coords), Bits(unbounded->center_coords));
  EXPECT_EQ(Bits(fine->cost), Bits(unbounded->cost));
}

TEST(MaxNearestDistanceTest, MaxOverPointsOfMinOverCenters) {
  const std::vector<double> points = {0.0, 0.0, 3.0, 4.0, 10.0, 0.0};
  const std::vector<double> centers = {0.0, 0.0, 10.0, 1.0};
  auto cost = stream::MaxNearestDistance(points.data(), 3, centers.data(), 2,
                                         2, metric::Norm::kL2, Deadline());
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(*cost, 5.0);  // (3, 4) is 5 from the origin, sqrt(50) from (10, 1).
  auto l1 = stream::MaxNearestDistance(points.data(), 3, centers.data(), 2, 2,
                                       metric::Norm::kL1, Deadline());
  ASSERT_TRUE(l1.ok());
  EXPECT_EQ(*l1, 7.0);
  auto empty = stream::MaxNearestDistance(points.data(), 0, centers.data(), 2,
                                          2, metric::Norm::kL2, Deadline());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(Bits(*empty), Bits(0.0));
  EXPECT_EQ(stream::MaxNearestDistance(points.data(), 3, centers.data(), 2, 2,
                                       metric::Norm::kL2, Deadline::Expired())
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace ukc
