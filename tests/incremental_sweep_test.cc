// Randomized property suite for the swap engine
// (cost/parallel_evaluator.h). SwapCostMatrix rebuilds its tables on
// every call and scores each candidate with a full O(N) scan, the
// snapshot ladder and a tail replay; this file pins two properties:
//  * every matrix is bitwise equal at every thread count (EXPECT_EQ on
//    doubles, no tolerance);
//  * every swap value agrees, to 1e-12 relative, with a fresh
//    linear-path UnassignedCost of the swapped center set.
// Both are exercised as multi-round local-search *trajectories* — the
// accepted swap of round r feeds round r+1, so a mismatched bit
// anywhere compounds into diverging center sets — across dimensions
// d ∈ {1, 2, 3, 8}, several (k, z) shapes, threads ∈ {1, 2, 8}, and
// ≥ 3 accepted-swap rounds, on random instances.
//
// Also here: the worker-sharded subset enumeration behind
// ExactUnassignedTiny (ranked unranking vs the serial odometer,
// including cost ties where the lowest-rank subset must win), and
// evaluator reuse (a second dataset through the same evaluator scores
// exactly as a fresh evaluator does).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/unassigned.h"
#include "cost/expected_cost_evaluator.h"
#include "cost/parallel_evaluator.h"
#include "exper/instances.h"
#include "solver/brute_force.h"
#include "solver/gonzalez.h"

namespace ukc {
namespace {

using metric::SiteId;

const int kThreadCounts[] = {1, 2, 8};

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

cost::ParallelCandidateEvaluator::Options EvaluatorOptions(int threads) {
  cost::ParallelCandidateEvaluator::Options options;
  options.threads = threads;
  return options;
}

// Applies the deterministic round step shared by every trajectory below:
// the (position, candidate) argmin over all non-identity swaps, accepted
// unconditionally so every round scores a new center set.
void ApplyBestSwap(const std::vector<double>& values,
                   const std::vector<SiteId>& pool,
                   std::vector<SiteId>* centers) {
  double best_value = std::numeric_limits<double>::infinity();
  size_t best_position = 0;
  SiteId best_replacement = metric::kInvalidSite;
  for (size_t p = 0; p < centers->size(); ++p) {
    for (size_t c = 0; c < pool.size(); ++c) {
      if (pool[c] == (*centers)[p]) continue;
      const double value = values[p * pool.size() + c];
      if (value < best_value) {
        best_value = value;
        best_position = p;
        best_replacement = pool[c];
      }
    }
  }
  ASSERT_NE(best_replacement, metric::kInvalidSite);
  (*centers)[best_position] = best_replacement;
}

// Runs `rounds` rounds from `centers` at every thread count: each
// thread count's matrices must equal the threads = 1 run's bitwise,
// and every value of the threads = 1 run must match a linear-path
// UnassignedCost of its swapped set to 1e-12 relative.
void ExpectTrajectoryOracles(const uncertain::UncertainDataset& dataset,
                             const std::vector<SiteId>& centers,
                             const std::vector<SiteId>& pool, size_t rounds,
                             const std::string& label) {
  cost::ExpectedCostEvaluator::Options linear_options;
  linear_options.kdtree_cutover = std::numeric_limits<size_t>::max();
  cost::ExpectedCostEvaluator linear(linear_options);
  std::vector<std::vector<double>> serial_rounds;
  for (int threads : kThreadCounts) {
    cost::ParallelCandidateEvaluator parallel(EvaluatorOptions(threads));
    std::vector<SiteId> trajectory = centers;
    for (size_t round = 0; round < rounds; ++round) {
      auto values = parallel.SwapCostMatrix(dataset, trajectory, pool);
      ASSERT_TRUE(values.ok()) << values.status();
      ASSERT_EQ(values->size(), trajectory.size() * pool.size());
      if (threads == kThreadCounts[0]) {
        for (size_t p = 0; p < trajectory.size(); ++p) {
          for (size_t c = 0; c < pool.size(); ++c) {
            std::vector<SiteId> swapped = trajectory;
            swapped[p] = pool[c];
            auto full = linear.UnassignedCost(dataset, swapped);
            ASSERT_TRUE(full.ok()) << full.status();
            ASSERT_NEAR((*values)[p * pool.size() + c], *full,
                        1e-12 * (1.0 + std::abs(*full)))
                << label << " round=" << round << " p=" << p << " c=" << c;
          }
        }
        serial_rounds.push_back(*values);
      } else {
        ASSERT_LT(round, serial_rounds.size());
        ASSERT_EQ(*values, serial_rounds[round])
            << "thread-count variance: " << label << " threads=" << threads
            << " round=" << round;
      }
      ApplyBestSwap(*values, pool, &trajectory);
    }
  }
}

// The core property over Euclidean instances: ≥ 3 accepted swaps per
// trajectory, every dimension and shape, every thread count.
TEST(IncrementalSweepTest, TrajectoriesAreThreadInvariantAndMatchLinearCost) {
  constexpr size_t kRounds = 4;
  struct Shape {
    size_t k;
    size_t z;
  };
  const Shape shapes[] = {{3, 2}, {5, 4}};
  uint64_t seed = 100;
  for (size_t dim : {1u, 2u, 3u, 8u}) {
    for (const Shape& shape : shapes) {
      ++seed;
      const auto dataset = MakeDataset(60, dim, shape.z, seed);
      const auto sites = dataset.LocationSites();
      auto gonzalez = solver::Gonzalez(dataset.space(), sites, shape.k);
      ASSERT_TRUE(gonzalez.ok());
      std::vector<SiteId> pool;
      for (size_t i = 0; i < 12; ++i) {
        pool.push_back(sites[(i * 131) % sites.size()]);
      }
      ExpectTrajectoryOracles(
          dataset, gonzalez->centers, pool, kRounds,
          "dim=" + std::to_string(dim) + " k=" + std::to_string(shape.k) +
              " z=" + std::to_string(shape.z));
    }
  }
}

// Non-Euclidean spaces have no coordinate arena: d1 / d2 come from
// space.Distance, and the same oracles hold.
TEST(IncrementalSweepTest, NonEuclideanTrajectoryMatchesLinearCost) {
  const auto dataset =
      MakeDataset(40, 2, 3, 7, exper::Family::kGridGraph);
  const auto sites = dataset.LocationSites();
  auto gonzalez = solver::Gonzalez(dataset.space(), sites, 3);
  ASSERT_TRUE(gonzalez.ok());
  std::vector<SiteId> pool(sites.begin(),
                           sites.begin() + std::min<size_t>(8, sites.size()));
  ExpectTrajectoryOracles(dataset, gonzalez->centers, pool, 3, "grid graph");
}

// Reuse property: scoring dataset A, then a same-shaped but different
// dataset B, through one evaluator gives exactly what a fresh evaluator
// gives on B — nothing the first call leaves behind leaks into the
// second.
TEST(IncrementalSweepTest, ReusedEvaluatorMatchesFreshOnNextDataset) {
  cost::ParallelCandidateEvaluator shared(EvaluatorOptions(1));
  for (uint64_t seed : {500u, 501u}) {
    const auto dataset = MakeDataset(50, 2, 3, seed);
    const auto sites = dataset.LocationSites();
    auto gonzalez = solver::Gonzalez(dataset.space(), sites, 4);
    ASSERT_TRUE(gonzalez.ok());
    std::vector<SiteId> pool(sites.begin(),
                             sites.begin() + std::min<size_t>(10, sites.size()));
    auto shared_result =
        shared.SwapCostMatrix(dataset, gonzalez->centers, pool);
    cost::ParallelCandidateEvaluator fresh(EvaluatorOptions(1));
    auto fresh_result = fresh.SwapCostMatrix(dataset, gonzalez->centers, pool);
    ASSERT_TRUE(shared_result.ok()) << shared_result.status();
    ASSERT_TRUE(fresh_result.ok()) << fresh_result.status();
    EXPECT_EQ(*shared_result, *fresh_result) << "seed=" << seed;
  }
}

// --- Worker-sharded subset enumeration --------------------------------------

// CombinationFromRank must reproduce the serial odometer at every rank,
// for every small (m, k).
TEST(TinyEnumerateTest, CombinationFromRankMatchesOdometer) {
  for (uint64_t m = 1; m <= 9; ++m) {
    for (uint64_t k = 1; k <= m; ++k) {
      std::vector<size_t> odometer(k);
      for (size_t i = 0; i < k; ++i) odometer[i] = i;
      const uint64_t count = solver::BinomialCount(m, k);
      for (uint64_t rank = 0; rank < count; ++rank) {
        std::vector<size_t> unranked;
        solver::CombinationFromRank(rank, m, k, &unranked);
        ASSERT_EQ(unranked, odometer) << "m=" << m << " k=" << k
                                      << " rank=" << rank;
        const bool more = solver::NextCombination(&odometer, m);
        ASSERT_EQ(more, rank + 1 < count);
      }
    }
  }
}

// Sharded enumeration parity on an exhaustive instance: every thread
// count must reproduce the serial first-strict-minimum scan exactly.
TEST(TinyEnumerateTest, ShardedEnumerationMatchesSerialScan) {
  const auto dataset = MakeDataset(25, 2, 3, 21);
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> candidates(
      sites.begin(), sites.begin() + std::min<size_t>(9, sites.size()));
  const size_t k = 3;

  // Serial reference: the odometer scan with a strict <, first minimum
  // kept — the behavior the sharded path must reproduce bit for bit.
  cost::ExpectedCostEvaluator evaluator;
  std::vector<size_t> index(k);
  for (size_t i = 0; i < k; ++i) index[i] = i;
  double best_value = std::numeric_limits<double>::infinity();
  std::vector<SiteId> best_centers;
  while (true) {
    std::vector<SiteId> centers(k);
    for (size_t i = 0; i < k; ++i) centers[i] = candidates[index[i]];
    const double value = *evaluator.UnassignedCost(dataset, centers);
    if (value < best_value) {
      best_value = value;
      best_centers = centers;
    }
    if (!solver::NextCombination(&index, candidates.size())) break;
  }

  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto solution =
        core::ExactUnassignedTiny(dataset, k, candidates, &pool);
    ASSERT_TRUE(solution.ok()) << solution.status();
    EXPECT_EQ(solution->centers, best_centers) << "threads=" << threads;
    EXPECT_EQ(solution->expected_cost, best_value) << "threads=" << threads;
  }
}

// Tie discipline: duplicate a candidate site at identical coordinates,
// so subsets differing only in which duplicate they use have *exactly*
// equal costs. The lexicographically first subset (the one using the
// lower-rank duplicate) must win at every thread count — the min-index
// selection the serial scan's strict < implies.
TEST(TinyEnumerateTest, TiesResolveToLowestRankSubset) {
  auto dataset = MakeDataset(15, 2, 2, 23);
  metric::EuclideanSpace* space = dataset.euclidean();
  ASSERT_NE(space, nullptr);
  const auto sites = dataset.LocationSites();
  const size_t k = 2;

  // candidates = a few original sites plus an exact coordinate clone of
  // each — every subset has an equal-cost twin at a later rank.
  std::vector<SiteId> candidates(
      sites.begin(), sites.begin() + std::min<size_t>(4, sites.size()));
  const size_t originals = candidates.size();
  for (size_t i = 0; i < originals; ++i) {
    candidates.push_back(space->AddCoords(space->coords(candidates[i])));
  }

  std::vector<SiteId> reference_centers;
  double reference_cost = 0.0;
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto solution =
        core::ExactUnassignedTiny(dataset, k, candidates, &pool);
    ASSERT_TRUE(solution.ok()) << solution.status();
    if (threads == 1) {
      reference_centers = solution->centers;
      reference_cost = solution->expected_cost;
      // The winning subset must use only original sites: its clone
      // twins tie on cost but sit at strictly higher ranks.
      for (SiteId center : solution->centers) {
        EXPECT_TRUE(std::find(candidates.begin(),
                              candidates.begin() + originals,
                              center) != candidates.begin() + originals)
            << "tie resolved away from the lowest-rank subset";
      }
      continue;
    }
    EXPECT_EQ(solution->centers, reference_centers) << "threads=" << threads;
    EXPECT_EQ(solution->expected_cost, reference_cost);
  }
}

}  // namespace
}  // namespace ukc
