// Suite for the swap-table machinery around the one exact sort-sweep.
// Its oracle is a fresh linear-path UnassignedCost of the swapped
// center set:
//  * every swap score — including those of candidates that force
//    ladder escalations, where an intermediate rung's CDF is re-derived
//    from the deepest rung by replaying events[deepest.index,
//    rung.index) — matches the oracle to 1e-12 relative, and is bitwise
//    identical at every thread count;
//  * only rung 0's and the deepest rung's CDFs stay resident;
//  * a second swap round on a large dataset, through an evaluator that
//    already scored the first, matches a fresh evaluator's build
//    bitwise at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cost/expected_cost_evaluator.h"
#include "cost/parallel_evaluator.h"
#include "exper/instances.h"
#include "metric/euclidean_space.h"
#include "obs/metrics.h"
#include "solver/gonzalez.h"
#include "uncertain/dataset.h"
#include "uncertain/uncertain_point.h"

namespace ukc {
namespace {

using metric::SiteId;

const int kThreadCounts[] = {1, 2, 4};

uncertain::UncertainDataset MakeDataset(size_t n, size_t dim, size_t z,
                                        uint64_t seed,
                                        exper::Family family =
                                            exper::Family::kClustered) {
  exper::InstanceSpec spec;
  spec.family = family;
  spec.n = n;
  spec.z = z;
  spec.dim = dim;
  spec.k = 4;
  spec.seed = seed;
  return std::move(exper::MakeInstance(spec)).value();
}

// A dataset with a dominant near-origin cluster plus a small tight far
// cluster: with centers inside the near cluster, the far points are the
// sweep's bottleneck, and a candidate inside the far cluster improves
// every one of them below rung 0 — the exact shape that forces ladder
// escalations.
uncertain::UncertainDataset MakeBottleneckDataset(size_t near_points,
                                                  size_t far_points, size_t z,
                                                  uint64_t seed) {
  auto space = std::make_shared<metric::EuclideanSpace>(2);
  Rng rng(seed);
  std::vector<uncertain::UncertainPoint> points;
  const auto add_point = [&](double cx, double cy, double spread) {
    std::vector<uncertain::Location> locations;
    double remaining = 1.0;
    for (size_t l = 0; l < z; ++l) {
      const double coords[2] = {cx + spread * (rng.UniformDouble() - 0.5),
                                cy + spread * (rng.UniformDouble() - 0.5)};
      const double p = l + 1 == z ? remaining : remaining * 0.5;
      remaining -= p;
      locations.push_back({space->AddCoords(coords), p});
    }
    points.push_back(std::move(uncertain::UncertainPoint::Build(
                                   std::move(locations)))
                         .value());
  };
  for (size_t i = 0; i < near_points; ++i) add_point(0.0, 0.0, 2.0);
  for (size_t i = 0; i < far_points; ++i) add_point(100.0, 100.0, 0.5);
  return std::move(uncertain::UncertainDataset::Build(space,
                                                      std::move(points)))
      .value();
}

std::vector<SiteId> SomeCenters(const uncertain::UncertainDataset& dataset,
                                size_t k) {
  const auto sites = dataset.LocationSites();
  return std::move(solver::Gonzalez(dataset.space(), sites, k)).value().centers;
}

// The process-wide escalation count; a test reads the diff around its
// own work (gtest runs the tests of this binary one at a time).
uint64_t EscalationCount() {
  return obs::MetricsRegistry::Default().Snapshot().CounterTotal(
      "ukc_ladder_escalations_total");
}

// The process-wide count of base events replayed to re-derive an
// intermediate rung's CDF.
uint64_t ReplayedEventCount() {
  return obs::MetricsRegistry::Default().Snapshot().CounterTotal(
      "ukc_ladder_replayed_events_total");
}

cost::ParallelCandidateEvaluator::Options LadderOptions(int threads) {
  cost::ParallelCandidateEvaluator::Options options;
  options.threads = threads;
  return options;
}

// The oracle: a fresh linear-path evaluation of `centers` with position
// p replaced by `candidate`.
double OracleSwapCost(const uncertain::UncertainDataset& dataset,
                      std::vector<SiteId> centers, size_t p,
                      SiteId candidate) {
  centers[p] = candidate;
  cost::ExpectedCostEvaluator::Options options;
  options.kdtree_cutover = std::numeric_limits<size_t>::max();
  cost::ExpectedCostEvaluator evaluator(options);
  return std::move(evaluator.UnassignedCost(dataset, centers)).value();
}

// Every entry of a swap matrix (values[p * pool.size() + c]) against
// the oracle. The presorted path applies tied and below-threshold
// events in a different order than a full sweep, so the two agree to
// rounding, not bitwise.
void ExpectMatrixMatchesOracle(const uncertain::UncertainDataset& dataset,
                               const std::vector<SiteId>& centers,
                               const std::vector<SiteId>& pool,
                               const std::vector<double>& values) {
  ASSERT_EQ(values.size(), centers.size() * pool.size());
  for (size_t p = 0; p < centers.size(); ++p) {
    for (size_t c = 0; c < pool.size(); ++c) {
      const double want = OracleSwapCost(dataset, centers, p, pool[c]);
      EXPECT_NEAR(values[p * pool.size() + c], want, 1e-12 * std::abs(want))
          << "position " << p << " candidate " << c;
    }
  }
}

// A swap matrix whose bottleneck-covering candidates force escalations
// (and re-derived intermediate rungs): every value matches the oracle
// and is bitwise identical at every thread count.
TEST(SwapLadderTest, LadderCompactionEscalationParity) {
  const auto dataset = MakeBottleneckDataset(260, 24, 3, 909);
  const auto centers = SomeCenters(dataset, 3);
  // Candidates: a site inside the far (bottleneck) cluster plus a
  // spread of ordinary sites.
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> pool;
  const double far_coords[2] = {100.0, 100.0};
  pool.push_back(dataset.euclidean()->AddCoords(far_coords));
  for (size_t i = 0; i < 10; ++i) {
    pool.push_back(sites[(i * 173) % sites.size()]);
  }

  std::vector<double> first;
  for (int threads : kThreadCounts) {
    const uint64_t escalations_before = EscalationCount();
    const uint64_t replayed_before = ReplayedEventCount();
    cost::ParallelCandidateEvaluator parallel(LadderOptions(threads));
    const auto got = *parallel.SwapCostMatrix(dataset, centers, pool);
    EXPECT_GT(EscalationCount(), escalations_before) << "threads=" << threads;
    EXPECT_GT(ReplayedEventCount(), replayed_before) << "threads=" << threads;
    if (first.empty()) {
      ExpectMatrixMatchesOracle(dataset, centers, pool, got);
      first = got;
      continue;
    }
    ASSERT_EQ(first.size(), got.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i], got[i]) << "task " << i << " threads=" << threads;
    }
  }
}

// A multi-round trajectory (round r's accepted argmin feeds round r+1):
// every round's scores match the oracle, and the whole trajectory is
// bitwise identical at every thread count — a single diverging replay
// would compound into different center sets.
TEST(SwapLadderTest, LadderCompactionTrajectoryParity) {
  constexpr size_t kRounds = 3;
  const auto dataset = MakeBottleneckDataset(200, 16, 2, 414);
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> pool;
  const double far_coords[2] = {100.0, 100.0};
  pool.push_back(dataset.euclidean()->AddCoords(far_coords));
  for (size_t i = 0; i < 8; ++i) pool.push_back(sites[(i * 211) % sites.size()]);

  const auto run = [&](int threads, bool check_oracle) {
    cost::ParallelCandidateEvaluator evaluator(LadderOptions(threads));
    auto centers = SomeCenters(dataset, 3);
    std::vector<std::vector<double>> rounds;
    for (size_t round = 0; round < kRounds; ++round) {
      auto values = *evaluator.SwapCostMatrix(dataset, centers, pool);
      if (check_oracle) {
        ExpectMatrixMatchesOracle(dataset, centers, pool, values);
      }
      rounds.push_back(values);
      double best = std::numeric_limits<double>::infinity();
      size_t best_position = 0;
      SiteId best_candidate = metric::kInvalidSite;
      for (size_t p = 0; p < centers.size(); ++p) {
        for (size_t c = 0; c < pool.size(); ++c) {
          if (pool[c] == centers[p]) continue;
          const double value = values[p * pool.size() + c];
          if (value < best) {
            best = value;
            best_position = p;
            best_candidate = pool[c];
          }
        }
      }
      EXPECT_NE(best_candidate, metric::kInvalidSite);
      if (best_candidate == metric::kInvalidSite) return rounds;
      centers[best_position] = best_candidate;
    }
    return rounds;
  };
  const uint64_t escalations_before = EscalationCount();
  const auto reference = run(kThreadCounts[0], /*check_oracle=*/true);
  EXPECT_GT(EscalationCount(), escalations_before);
  ASSERT_EQ(reference.size(), kRounds);
  for (int threads : kThreadCounts) {
    const auto got = run(threads, /*check_oracle=*/false);
    ASSERT_EQ(reference.size(), got.size()) << "threads=" << threads;
    for (size_t r = 0; r < reference.size(); ++r) {
      ASSERT_EQ(reference[r].size(), got[r].size()) << "round " << r;
      for (size_t i = 0; i < reference[r].size(); ++i) {
        EXPECT_EQ(reference[r][i], got[r][i])
            << "round " << r << " task " << i << " threads=" << threads;
      }
    }
  }
}

// The ladder keeps 2n resident CDF doubles per table, not
// kSwapLadderRungs·n: rung 0 and the deepest rung hold a CDF of every
// point, and every intermediate rung holds none (no capacity either).
TEST(SwapLadderTest, OnlyRungZeroAndDeepestRungCdfsAreResident) {
  const auto dataset = MakeDataset(2000, 2, 4, 31);
  const auto centers = SomeCenters(dataset, 8);
  const size_t total = dataset.total_locations();
  const SiteId* sites = dataset.flat_sites().data();
  const size_t* offsets = dataset.offsets().data();
  std::vector<double> base(total, std::numeric_limits<double>::infinity());
  std::vector<uint32_t> point_of(total);
  for (size_t i = 0; i < dataset.n(); ++i) {
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      point_of[l] = static_cast<uint32_t>(i);
      for (SiteId center : centers) {
        base[l] = std::min(base[l], dataset.space().Distance(sites[l], center));
      }
    }
  }

  cost::ExpectedCostEvaluator evaluator;
  cost::ExpectedCostEvaluator::SwapBase tables;
  ASSERT_TRUE(evaluator.BuildSwapBase(dataset, base, point_of, &tables).ok());
  constexpr size_t kDeepest = cost::ExpectedCostEvaluator::kSwapLadderRungs - 1;
  for (size_t rung = 0; rung <= kDeepest; ++rung) {
    const std::vector<double>& cdf = tables.levels[rung].cdf;
    if (rung == 0 || rung == kDeepest) {
      EXPECT_EQ(cdf.size(), dataset.n()) << "rung " << rung;
    } else {
      EXPECT_EQ(cdf.capacity(), 0u) << "rung " << rung;
    }
  }
}

// The round after a one-center swap at k = 2, on a dataset above 32768
// events, scored through an evaluator that already scored the round
// before, must score identically at every thread count and match a
// fresh evaluator.
TEST(SwapLadderTest, ReusedRoundMatchesFreshBuild) {
  const auto dataset = MakeDataset(9000, 2, 4, 77);  // 36000 locations.
  ASSERT_GE(dataset.total_locations(), 32768u);
  const auto sites = dataset.LocationSites();
  const auto pair = SomeCenters(dataset, 2);
  std::vector<SiteId> pool;
  for (size_t i = 0; i < 6; ++i) {
    const SiteId site = sites[(i * 4099 + 17) % sites.size()];
    if (std::find(pair.begin(), pair.end(), site) == pair.end()) {
      pool.push_back(site);
    }
  }
  ASSERT_FALSE(pool.empty());
  std::vector<SiteId> swapped = pair;
  swapped[0] = pool[0];
  cost::ParallelCandidateEvaluator fresh(LadderOptions(1));
  const auto want_round = *fresh.SwapCostMatrix(dataset, swapped, pool);

  for (int threads : kThreadCounts) {
    cost::ParallelCandidateEvaluator parallel(LadderOptions(threads));
    ASSERT_TRUE(parallel.SwapCostMatrix(dataset, pair, pool).ok());
    const auto got_round = *parallel.SwapCostMatrix(dataset, swapped, pool);
    ASSERT_EQ(want_round.size(), got_round.size());
    for (size_t i = 0; i < want_round.size(); ++i) {
      EXPECT_EQ(want_round[i], got_round[i])
          << "task " << i << " threads=" << threads;
    }
  }
}

// ReserveScratch arms the no-shrink contract and survives a batch of
// evaluations without being lost.
TEST(SwapLadderTest, ScratchReservationPersists) {
  const auto dataset = MakeDataset(300, 2, 4, 5);
  const auto centers = SomeCenters(dataset, 4);
  cost::ExpectedCostEvaluator evaluator;
  evaluator.ReserveScratch(dataset.n(), dataset.total_locations());
  EXPECT_EQ(evaluator.reserved_scratch(), dataset.total_locations());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(evaluator.UnassignedCost(dataset, centers).ok());
  }
  EXPECT_EQ(evaluator.reserved_scratch(), dataset.total_locations());
}

}  // namespace
}  // namespace ukc
