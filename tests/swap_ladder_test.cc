// Parity suite for the swap-table machinery around the one exact
// sort-sweep. Everything here is EXPECT_EQ on doubles — no tolerance
// anywhere:
//  * the compacted ladder (rung 0 + deepest rung resident, the
//    intermediate rungs re-derived on escalation by replaying
//    events[deepest.index, rung.index)) must be bitwise identical to
//    the full 7-rung reference, including on swap matrices whose
//    candidates force escalations;
//  * a second swap round on a large dataset, through an evaluator that
//    already scored the first, shards over the per-worker evaluators
//    and must match a fresh evaluator's build (the oracle) at every
//    thread count.

#include <gtest/gtest.h>

#include <algorithm>
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

cost::ParallelCandidateEvaluator::Options LadderOptions(int threads,
                                                        bool compact) {
  cost::ParallelCandidateEvaluator::Options options;
  options.threads = threads;
  options.evaluator.compact_swap_ladder = compact;
  return options;
}

// Compacted vs full-resident ladder over a swap matrix whose
// bottleneck-covering candidates force escalations: every value must
// match bit for bit, at every thread count, and the compact run must
// actually have exercised the replay path.
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

  cost::ParallelCandidateEvaluator reference(
      LadderOptions(/*threads=*/1, /*compact=*/false));
  const auto want = *reference.SwapCostMatrix(dataset, centers, pool);
  for (int threads : kThreadCounts) {
    const uint64_t escalations_before = EscalationCount();
    cost::ParallelCandidateEvaluator compact(LadderOptions(threads, true));
    const auto got = *compact.SwapCostMatrix(dataset, centers, pool);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i]) << "task " << i << " threads=" << threads;
    }
    EXPECT_GT(EscalationCount(), escalations_before)
        << "threads=" << threads;
  }
}

// A multi-round trajectory (round r's accepted argmin feeds round r+1)
// through the compacted ladder must track the full-ladder reference
// bitwise — a single diverging replay would compound into different
// center sets.
TEST(SwapLadderTest, LadderCompactionTrajectoryParity) {
  constexpr size_t kRounds = 3;
  const auto dataset = MakeBottleneckDataset(200, 16, 2, 414);
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> pool;
  const double far_coords[2] = {100.0, 100.0};
  pool.push_back(dataset.euclidean()->AddCoords(far_coords));
  for (size_t i = 0; i < 8; ++i) pool.push_back(sites[(i * 211) % sites.size()]);

  const auto run = [&](bool compact) {
    cost::ParallelCandidateEvaluator evaluator(LadderOptions(1, compact));
    auto centers = SomeCenters(dataset, 3);
    std::vector<std::vector<double>> rounds;
    for (size_t round = 0; round < kRounds; ++round) {
      auto values = *evaluator.SwapCostMatrix(dataset, centers, pool);
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
  const auto reference = run(/*compact=*/false);
  const auto compact = run(/*compact=*/true);
  ASSERT_EQ(reference.size(), compact.size());
  for (size_t r = 0; r < reference.size(); ++r) {
    ASSERT_EQ(reference[r].size(), compact[r].size()) << "round " << r;
    for (size_t i = 0; i < reference[r].size(); ++i) {
      EXPECT_EQ(reference[r][i], compact[r][i])
          << "round " << r << " task " << i;
    }
  }
}

// The acceptance criterion in numbers: at a clustered instance the
// compacted ladder's resident bytes drop at least 3x versus the
// 7-rung reference.
TEST(SwapLadderTest, LadderMemoryDropsAtLeast3x) {
  const auto dataset = MakeDataset(2000, 2, 4, 31);
  const auto centers = SomeCenters(dataset, 8);
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> pool;
  for (size_t i = 0; i < 8; ++i) pool.push_back(sites[(i * 977) % sites.size()]);

  cost::ParallelCandidateEvaluator full(LadderOptions(1, /*compact=*/false));
  ASSERT_TRUE(full.SwapCostMatrix(dataset, centers, pool).ok());
  cost::ParallelCandidateEvaluator compact(LadderOptions(1, /*compact=*/true));
  ASSERT_TRUE(compact.SwapCostMatrix(dataset, centers, pool).ok());

  const size_t full_bytes = full.SwapLadderBytes();
  const size_t compact_bytes = compact.SwapLadderBytes();
  EXPECT_GE(full_bytes, 3 * compact_bytes)
      << "full=" << full_bytes << " compact=" << compact_bytes;
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
  cost::ParallelCandidateEvaluator fresh(LadderOptions(1, true));
  const auto want_round = *fresh.SwapCostMatrix(dataset, swapped, pool);

  for (int threads : kThreadCounts) {
    cost::ParallelCandidateEvaluator parallel(LadderOptions(threads, true));
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
