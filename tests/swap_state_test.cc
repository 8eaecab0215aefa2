// The swap engine's per-location state (cost/parallel_evaluator.h):
// nearest distance d1, its position owner and the second-nearest d2
// stand in for k per-center distance rows. This suite pins what that
// bookkeeping must keep:
//  * the tail-merge event count it emits (ukc_swap_tail_events_total)
//    is a pure function of the trajectory, equal at every thread count;
//  * its memory is linear in the number of locations with no k×N
//    double array beyond the base rows;
//  * the degenerate shapes of the d1 / d2 split — one center, two
//    centers at the same coordinates, a candidate cloning a center —
//    and streams sorted across exactly tied distances score bitwise
//    alike at every thread count and to rounding like a fresh
//    UnassignedCost of the swapped set;
//  * the certified screen (SwapCostMatrix with an incumbent): on the
//    same fixtures, every finite entry is bitwise the unscreened one,
//    every +inf entry's unscreened value is at least incumbent − the
//    acceptance margin, the unscreened matrix is bitwise the per-swap
//    engine score, and LocalSearchUnassigned follows bitwise the
//    trajectory of a full-matrix replay at every pool size, with a
//    pool-size invariant ukc_swap_screened_total.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/unassigned.h"
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

const int kThreadCounts[] = {1, 2, 8};

uncertain::UncertainDataset MakeDataset(size_t n, size_t z, uint64_t seed,
                                        exper::Family family =
                                            exper::Family::kClustered) {
  exper::InstanceSpec spec;
  spec.family = family;
  spec.n = n;
  spec.z = z;
  spec.dim = 2;
  spec.k = 4;
  spec.seed = seed;
  return std::move(exper::MakeInstance(spec)).value();
}

cost::ParallelCandidateEvaluator::Options EvaluatorOptions(int threads) {
  cost::ParallelCandidateEvaluator::Options options;
  options.threads = threads;
  return options;
}

// The argmin non-identity swap, accepted unconditionally so every round
// scores a new center set.
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

struct TrajectoryCounts {
  uint64_t tail_events = 0;
  std::vector<std::vector<double>> rounds;
};

// A fixed trajectory: `rounds` SwapCostMatrix calls from the
// Gonzalez seed, with the registry deltas of the whole run (gtest runs
// this binary's tests one at a time, so the deltas are this run's).
TrajectoryCounts RunTrajectory(const uncertain::UncertainDataset& dataset,
                               size_t k, size_t rounds, int threads) {
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> centers =
      std::move(solver::Gonzalez(dataset.space(), sites, k)).value().centers;
  std::vector<SiteId> pool;
  for (size_t i = 0; i < 24; ++i) pool.push_back(sites[(i * 977) % sites.size()]);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::RegistrySnapshot before = registry.Snapshot();
  cost::ParallelCandidateEvaluator parallel(EvaluatorOptions(threads));
  TrajectoryCounts counts;
  for (size_t round = 0; round < rounds; ++round) {
    auto values = parallel.SwapCostMatrix(dataset, centers, pool);
    EXPECT_TRUE(values.ok()) << values.status();
    if (!values.ok()) return counts;
    ApplyBestSwap(*values, pool, &centers);
    counts.rounds.push_back(std::move(values).value());
  }
  counts.tail_events =
      registry.Snapshot().CounterTotal("ukc_swap_tail_events_total") -
      before.CounterTotal("ukc_swap_tail_events_total");
  return counts;
}

// The tail merge walks a per-candidate number of events, so their sum
// over a trajectory does not depend on which worker scored what.
TEST(SwapStateTest, TailEventCountIsThreadCountInvariant) {
  const auto dataset = MakeDataset(1500, 4, 29);
  const TrajectoryCounts serial = RunTrajectory(dataset, 6, 3, 1);
  EXPECT_GT(serial.tail_events, 0u);
  for (int threads : kThreadCounts) {
    const TrajectoryCounts run = RunTrajectory(dataset, 6, 3, threads);
    EXPECT_EQ(run.tail_events, serial.tail_events) << "threads=" << threads;
    EXPECT_EQ(run.rounds, serial.rounds) << "threads=" << threads;
  }
}

// SwapStateBytes per location is flat in n, and the state outside the
// event streams and ladders (SwapBaseMemoryBytes) is the k base rows
// plus O(N), the screen's witnesses included (each round passes its
// incumbent, as LocalSearchUnassigned does): a second k×N double array
// breaks the (8k + 32)·N bound.
TEST(SwapStateTest, SwapStateBytesAreLinearWithoutDistanceRows) {
  constexpr size_t kK = 8;
  cost::ExpectedCostEvaluator::Options linear_options;
  linear_options.kdtree_cutover = std::numeric_limits<size_t>::max();
  cost::ExpectedCostEvaluator linear(linear_options);
  std::vector<double> bytes_per_location;
  for (size_t n : {2000u, 4000u, 8000u}) {
    const auto dataset = MakeDataset(n, 4, 41);
    const size_t total = dataset.total_locations();
    const auto sites = dataset.LocationSites();
    std::vector<SiteId> centers =
        std::move(solver::Gonzalez(dataset.space(), sites, kK)).value().centers;
    std::vector<SiteId> pool;
    for (size_t i = 0; i < 16; ++i) pool.push_back(sites[(i * 977) % sites.size()]);
    cost::ParallelCandidateEvaluator parallel(EvaluatorOptions(2));
    for (size_t round = 0; round < 2; ++round) {
      auto values = parallel.SwapCostMatrix(
          dataset, centers, pool, *linear.UnassignedCost(dataset, centers));
      ASSERT_TRUE(values.ok()) << values.status();
      ApplyBestSwap(*values, pool, &centers);
    }
    const size_t state = parallel.SwapStateBytes();
    const size_t streams = parallel.SwapBaseMemoryBytes();
    ASSERT_GT(state, streams);
    EXPECT_LE(state - streams, (8 * kK + 32) * total) << "n=" << n;
    bytes_per_location.push_back(static_cast<double>(state) /
                                 static_cast<double>(total));
  }
  const auto [low, high] =
      std::minmax_element(bytes_per_location.begin(), bytes_per_location.end());
  EXPECT_LE(*high, 1.1 * *low)
      << "bytes per location: " << bytes_per_location[0] << ", "
      << bytes_per_location[1] << ", " << bytes_per_location[2];
}

// Random 2-d points under `norm` whose space also holds `clones` extra
// sites, each at the exact coordinates of an existing location
// (distinct site ids).
struct CloneInstance {
  uncertain::UncertainDataset dataset;
  std::vector<SiteId> clones;    // clones[j] copies originals[j].
  std::vector<SiteId> originals;
};

CloneInstance MakeCloneInstance(size_t n, size_t z, size_t clones,
                                uint64_t seed,
                                metric::Norm norm = metric::Norm::kL2) {
  auto space = std::make_shared<metric::EuclideanSpace>(2, norm);
  Rng rng(seed);
  std::vector<uncertain::UncertainPoint> points;
  for (size_t i = 0; i < n; ++i) {
    const double cx = 10.0 * rng.UniformDouble();
    const double cy = 10.0 * rng.UniformDouble();
    std::vector<uncertain::Location> locations;
    for (size_t l = 0; l < z; ++l) {
      const double coords[2] = {cx + rng.UniformDouble() - 0.5,
                                cy + rng.UniformDouble() - 0.5};
      locations.push_back({space->AddCoords(coords), 1.0 / z});
    }
    points.push_back(
        std::move(uncertain::UncertainPoint::Build(std::move(locations)))
            .value());
  }
  std::vector<SiteId> clones_of;
  std::vector<SiteId> originals;
  for (size_t j = 0; j < clones; ++j) {
    const SiteId original = static_cast<SiteId>((j * 37) % (n * z));
    originals.push_back(original);
    // Copied first: AddCoords may move the coordinate arena.
    const double coords[2] = {space->coords(original)[0],
                              space->coords(original)[1]};
    clones_of.push_back(space->AddCoords(coords));
  }
  return CloneInstance{
      std::move(uncertain::UncertainDataset::Build(space, std::move(points)))
          .value(),
      std::move(clones_of), std::move(originals)};
}

// Points whose locations sit on an integer grid, so many locations
// share coordinates and many distances tie exactly: tied entries must
// sort and replay in one (value, location) order at every thread
// count.
uncertain::UncertainDataset MakeGridInstance(size_t n, size_t z,
                                             uint64_t seed) {
  auto space = std::make_shared<metric::EuclideanSpace>(2);
  Rng rng(seed);
  std::vector<uncertain::UncertainPoint> points;
  for (size_t i = 0; i < n; ++i) {
    const double cx = std::floor(24.0 * rng.UniformDouble());
    const double cy = std::floor(24.0 * rng.UniformDouble());
    std::vector<uncertain::Location> locations;
    for (size_t l = 0; l < z; ++l) {
      const double coords[2] = {cx + std::floor(3.0 * rng.UniformDouble()),
                                cy + std::floor(3.0 * rng.UniformDouble())};
      locations.push_back({space->AddCoords(coords), 1.0 / z});
    }
    points.push_back(
        std::move(uncertain::UncertainPoint::Build(std::move(locations)))
            .value());
  }
  return std::move(uncertain::UncertainDataset::Build(space, std::move(points)))
      .value();
}

// Runs `rounds` rounds from `centers` at every thread count: every
// thread count must agree bitwise, and each value must match a fresh
// linear UnassignedCost of the swapped set to rounding
// (parallel_eval_test's tolerance).
void ExpectSwapParity(const uncertain::UncertainDataset& dataset,
                      std::vector<SiteId> centers,
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
      auto got = parallel.SwapCostMatrix(dataset, trajectory, pool);
      ASSERT_TRUE(got.ok()) << got.status();
      if (threads == kThreadCounts[0]) {
        serial_rounds.push_back(*got);
        for (size_t p = 0; p < trajectory.size(); ++p) {
          for (size_t c = 0; c < pool.size(); ++c) {
            std::vector<SiteId> trial = trajectory;
            trial[p] = pool[c];
            const double full = *linear.UnassignedCost(dataset, trial);
            EXPECT_NEAR((*got)[p * pool.size() + c], full,
                        1e-12 * (1.0 + std::abs(full)))
                << label << " round=" << round << " p=" << p << " c=" << c;
          }
        }
      } else {
        EXPECT_EQ(*got, serial_rounds[round])
            << label << " threads=" << threads << " round=" << round;
      }
      ApplyBestSwap(*got, pool, &trajectory);
    }
  }
}

TEST(SwapStateTest, TiedDistancesMatchLinearCost) {
  const auto dataset = MakeGridInstance(1500, 4, 71);
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> pool;
  for (size_t i = 0; i < 24; ++i) pool.push_back(sites[(i * 977) % sites.size()]);
  ExpectSwapParity(
      dataset,
      std::move(solver::Gonzalez(dataset.space(), sites, 8)).value().centers,
      pool, 4, "integer grid");
}

TEST(SwapStateTest, SingleCenterMatchesLinearCost) {
  // k = 1: d2 is +inf everywhere, so the only base row is all +inf.
  for (exper::Family family :
       {exper::Family::kClustered, exper::Family::kGridGraph}) {
    const auto dataset = MakeDataset(120, 3, 53, family);
    const auto sites = dataset.LocationSites();
    std::vector<SiteId> pool;
    for (size_t i = 0; i < 9; ++i) pool.push_back(sites[(i * 41) % sites.size()]);
    ExpectSwapParity(dataset, {sites[sites.size() / 2]}, pool, 3,
                     family == exper::Family::kClustered ? "k=1 euclidean"
                                                         : "k=1 grid graph");
  }
}

TEST(SwapStateTest, CoincidentCentersMatchLinearCost) {
  // Two centers at identical coordinates: every location's nearest
  // distance is tied, so d2 == d1 and both base rows are the full
  // set's distances.
  const CloneInstance instance = MakeCloneInstance(150, 3, 1, 61);
  const auto sites = instance.dataset.LocationSites();
  std::vector<SiteId> pool;
  for (size_t i = 0; i < 10; ++i) pool.push_back(sites[(i * 43) % sites.size()]);
  ExpectSwapParity(instance.dataset,
                   {instance.originals[0], instance.clones[0]}, pool, 3,
                   "coincident k=2");
}

TEST(SwapStateTest, CandidateCloningACenterMatchesLinearCost) {
  // The pool holds a distinct site at a center's exact coordinates:
  // that swap leaves every distance unchanged.
  const CloneInstance instance = MakeCloneInstance(150, 3, 3, 67);
  const auto sites = instance.dataset.LocationSites();
  std::vector<SiteId> centers = instance.originals;
  std::vector<SiteId> pool = instance.clones;
  for (size_t i = 0; i < 8; ++i) pool.push_back(sites[(i * 53) % sites.size()]);
  ExpectSwapParity(instance.dataset, centers, pool, 3, "clone candidate");
}

// ---- The certified swap screen ----

uint64_t ScreenedTotal() {
  return obs::MetricsRegistry::Default().Snapshot().CounterTotal(
      "ukc_swap_screened_total");
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Scores `rounds` rounds from `centers` twice per round, unscreened and
// with the round's linear-path cost as the incumbent, at every thread
// count: every finite screened entry is bitwise the unscreened one,
// every +inf entry's unscreened value is at least incumbent − the
// acceptance margin, the unscreened call screens nothing, and the
// screened matrices and counts agree bitwise across thread counts.
// Adds the screened entries of the first thread count's run to
// *screened_total.
void ExpectScreenParity(const uncertain::UncertainDataset& dataset,
                        const std::vector<SiteId>& centers,
                        const std::vector<SiteId>& pool, size_t rounds,
                        const std::string& label, uint64_t* screened_total) {
  cost::ExpectedCostEvaluator::Options linear_options;
  linear_options.kdtree_cutover = std::numeric_limits<size_t>::max();
  cost::ExpectedCostEvaluator linear(linear_options);
  std::vector<std::vector<double>> first_rounds;
  uint64_t first_screened = 0;
  for (int threads : kThreadCounts) {
    cost::ParallelCandidateEvaluator parallel(EvaluatorOptions(threads));
    std::vector<SiteId> trajectory = centers;
    uint64_t screened = 0;
    for (size_t round = 0; round < rounds; ++round) {
      const double incumbent = *linear.UnassignedCost(dataset, trajectory);
      const double margin =
          cost::kMinRelativeSwapGain * std::max(1.0, incumbent);
      const uint64_t before_full = ScreenedTotal();
      auto full = parallel.SwapCostMatrix(dataset, trajectory, pool);
      ASSERT_TRUE(full.ok()) << full.status();
      EXPECT_EQ(ScreenedTotal(), before_full) << label;
      const uint64_t before = ScreenedTotal();
      auto got = parallel.SwapCostMatrix(dataset, trajectory, pool, incumbent);
      ASSERT_TRUE(got.ok()) << got.status();
      const uint64_t delta = ScreenedTotal() - before;
      uint64_t infinite = 0;
      for (size_t v = 0; v < full->size(); ++v) {
        const std::string where = label + " threads=" +
                                  std::to_string(threads) + " round=" +
                                  std::to_string(round) + " swap=" +
                                  std::to_string(v);
        ASSERT_TRUE(std::isfinite((*full)[v])) << where;
        if (std::isinf((*got)[v])) {
          ++infinite;
          EXPECT_GE((*full)[v], incumbent - margin)
              << where << " incumbent=" << incumbent;
        } else {
          EXPECT_TRUE(SameBits((*got)[v], (*full)[v]))
              << where << ": " << (*got)[v] << " vs " << (*full)[v];
        }
      }
      EXPECT_EQ(delta, infinite) << label << " round=" << round;
      screened += infinite;
      if (threads == kThreadCounts[0]) {
        first_rounds.push_back(*got);
      } else {
        EXPECT_EQ(*got, first_rounds[round])
            << label << " threads=" << threads << " round=" << round;
      }
      ApplyBestSwap(*full, pool, &trajectory);
    }
    if (threads == kThreadCounts[0]) {
      first_screened = screened;
    } else {
      EXPECT_EQ(screened, first_screened) << label << " threads=" << threads;
    }
  }
  *screened_total += first_screened;
}

std::vector<SiteId> StridedPool(const std::vector<SiteId>& sites, size_t count,
                                size_t stride) {
  std::vector<SiteId> pool;
  for (size_t i = 0; i < count; ++i) {
    pool.push_back(sites[(i * stride) % sites.size()]);
  }
  return pool;
}

TEST(SwapScreenTest, ScreenedEntriesAreCertifiedAndTheRestBitwise) {
  uint64_t screened = 0;
  {
    const auto dataset = MakeDataset(1500, 4, 29);
    const auto sites = dataset.LocationSites();
    ExpectScreenParity(
        dataset,
        std::move(solver::Gonzalez(dataset.space(), sites, 6)).value().centers,
        StridedPool(sites, 24, 977), 4, "clustered", &screened);
  }
  {
    const auto dataset = MakeGridInstance(1500, 4, 71);
    const auto sites = dataset.LocationSites();
    ExpectScreenParity(
        dataset,
        std::move(solver::Gonzalez(dataset.space(), sites, 8)).value().centers,
        StridedPool(sites, 24, 977), 4, "integer grid", &screened);
  }
  {
    const auto dataset = MakeDataset(200, 3, 53, exper::Family::kGridGraph);
    const auto sites = dataset.LocationSites();
    ExpectScreenParity(
        dataset,
        std::move(solver::Gonzalez(dataset.space(), sites, 4)).value().centers,
        StridedPool(sites, 16, 41), 3, "grid graph", &screened);
  }
  for (metric::Norm norm : {metric::Norm::kL1, metric::Norm::kLInf}) {
    const CloneInstance instance = MakeCloneInstance(400, 3, 0, 83, norm);
    const auto sites = instance.dataset.LocationSites();
    ExpectScreenParity(
        instance.dataset,
        std::move(solver::Gonzalez(instance.dataset.space(), sites, 5))
            .value()
            .centers,
        StridedPool(sites, 16, 53), 3,
        norm == metric::Norm::kL1 ? "L1" : "LInf", &screened);
  }
  {
    // Two centers at identical coordinates: d2 == d1 everywhere.
    const CloneInstance instance = MakeCloneInstance(150, 3, 1, 61);
    const auto sites = instance.dataset.LocationSites();
    ExpectScreenParity(
        instance.dataset, {instance.originals[0], instance.clones[0]},
        StridedPool(sites, 10, 43), 3, "coincident k=2", &screened);
  }
  {
    // A candidate at a center's exact coordinates.
    const CloneInstance instance = MakeCloneInstance(150, 3, 3, 67);
    std::vector<SiteId> pool = instance.clones;
    const auto sites = instance.dataset.LocationSites();
    for (SiteId site : StridedPool(sites, 8, 53)) pool.push_back(site);
    ExpectScreenParity(instance.dataset, instance.originals, pool,
                                   3, "clone candidate", &screened);
  }
  // k = 1: every d2 is +inf, so no finite bound on the swapped
  // distances exists and nothing may be screened.
  for (exper::Family family :
       {exper::Family::kClustered, exper::Family::kGridGraph}) {
    const auto dataset = MakeDataset(120, 3, 53, family);
    const auto sites = dataset.LocationSites();
    uint64_t single = 0;
    ExpectScreenParity(dataset, {sites[sites.size() / 2]},
                       StridedPool(sites, 9, 41), 3, "k=1", &single);
    EXPECT_EQ(single, 0u);
  }
  EXPECT_GT(screened, 0u);
}

// The unscreened matrix is bitwise the engine's per-swap score: base
// rows from MetricSpace::Distance, one BuildSwapBase per position and
// one UnassignedCostSwapPresorted per candidate.
TEST(SwapScreenTest, UnscreenedMatrixIsThePerSwapScore) {
  for (exper::Family family :
       {exper::Family::kClustered, exper::Family::kGridGraph}) {
    const auto dataset = MakeDataset(300, 3, 37, family);
    const auto sites = dataset.LocationSites();
    const std::vector<SiteId> centers =
        std::move(solver::Gonzalez(dataset.space(), sites, 4)).value().centers;
    const std::vector<SiteId> pool = StridedPool(sites, 12, 31);
    cost::ParallelCandidateEvaluator parallel(EvaluatorOptions(2));
    const std::vector<double> matrix =
        *parallel.SwapCostMatrix(dataset, centers, pool);

    const size_t total = dataset.total_locations();
    std::vector<uint32_t> point_of(total);
    for (size_t i = 0; i < dataset.n(); ++i) {
      for (size_t l = dataset.offsets()[i]; l < dataset.offsets()[i + 1]; ++l) {
        point_of[l] = static_cast<uint32_t>(i);
      }
    }
    cost::ExpectedCostEvaluator engine;
    for (size_t p = 0; p < centers.size(); ++p) {
      std::vector<double> row(total, std::numeric_limits<double>::infinity());
      for (size_t l = 0; l < total; ++l) {
        for (size_t q = 0; q < centers.size(); ++q) {
          if (q == p) continue;
          row[l] = std::min(
              row[l], dataset.space().Distance(dataset.flat_sites()[l], centers[q]));
        }
      }
      cost::ExpectedCostEvaluator::SwapBase base;
      ASSERT_TRUE(engine.BuildSwapBase(dataset, row, point_of, &base).ok());
      for (size_t c = 0; c < pool.size(); ++c) {
        const double want = *engine.UnassignedCostSwapPresorted(
            dataset, row, base, point_of, pool[c]);
        EXPECT_TRUE(SameBits(matrix[p * pool.size() + c], want))
            << "p=" << p << " c=" << c;
      }
    }
  }
}

// LocalSearchUnassigned's own loop with the 3-argument (full) matrix.
core::UnassignedSolution FullMatrixReplay(uncertain::UncertainDataset* dataset,
                                          core::UnassignedSearchOptions options) {
  const size_t max_swaps = options.max_swaps;
  options.max_swaps = 0;  // The seed and its cost.
  core::UnassignedSolution solution =
      std::move(core::LocalSearchUnassigned(dataset, options)).value();
  cost::ParallelCandidateEvaluator::Options parallel_options;
  parallel_options.threads = 1;
  parallel_options.evaluator.kdtree_cutover =
      std::numeric_limits<size_t>::max();
  cost::ParallelCandidateEvaluator full(parallel_options);
  const std::vector<SiteId>& pool = options.candidates;
  for (size_t round = 0; round < max_swaps; ++round) {
    const std::vector<double> values =
        *full.SwapCostMatrix(*dataset, solution.centers, pool);
    double best_value = solution.expected_cost;
    size_t best_position = 0;
    SiteId best_replacement = metric::kInvalidSite;
    for (size_t p = 0; p < solution.centers.size(); ++p) {
      for (size_t c = 0; c < pool.size(); ++c) {
        if (pool[c] == solution.centers[p]) continue;
        if (values[p * pool.size() + c] < best_value) {
          best_value = values[p * pool.size() + c];
          best_position = p;
          best_replacement = pool[c];
        }
      }
    }
    if (best_replacement == metric::kInvalidSite ||
        solution.expected_cost - best_value <
            cost::kMinRelativeSwapGain *
                std::max(1.0, solution.expected_cost)) {
      break;
    }
    solution.centers[best_position] = best_replacement;
    solution.expected_cost = best_value;
    ++solution.swaps;
  }
  return solution;
}

TEST(SwapScreenTest, LocalSearchFollowsTheFullMatrixAtEveryPoolSize) {
  struct Fixture {
    std::string label;
    size_t n, z, k;
    exper::Family family;
  };
  const Fixture fixtures[] = {
      {"clustered", 600, 4, 5, exper::Family::kClustered},
      {"grid graph", 150, 3, 3, exper::Family::kGridGraph},
      {"k=1", 200, 3, 1, exper::Family::kClustered},
  };
  uint64_t screened = 0;
  for (const Fixture& fixture : fixtures) {
    // A fresh dataset per search: the Euclidean seed mints sites.
    const auto fresh = [&] { return MakeDataset(fixture.n, fixture.z, 43, fixture.family); };
    auto dataset = fresh();
    core::UnassignedSearchOptions options;
    options.k = fixture.k;
    options.candidates = StridedPool(dataset.LocationSites(), 40, 97);
    options.max_swaps = 8;
    const core::UnassignedSolution want = FullMatrixReplay(&dataset, options);

    std::vector<uint64_t> counts;
    for (int threads : {0, 1, 2, 4}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      options.pool = pool.get();
      auto copy = fresh();
      const uint64_t before = ScreenedTotal();
      auto got = core::LocalSearchUnassigned(&copy, options);
      ASSERT_TRUE(got.ok()) << got.status();
      counts.push_back(ScreenedTotal() - before);
      EXPECT_EQ(got->centers, want.centers)
          << fixture.label << " threads=" << threads;
      EXPECT_TRUE(SameBits(got->expected_cost, want.expected_cost))
          << fixture.label << " threads=" << threads << ": "
          << got->expected_cost << " vs " << want.expected_cost;
      EXPECT_EQ(got->swaps, want.swaps)
          << fixture.label << " threads=" << threads;
    }
    for (uint64_t count : counts) {
      EXPECT_EQ(count, counts[0]) << fixture.label;
    }
    screened += counts[0];
  }
  EXPECT_GT(screened, 0u);
}

}  // namespace
}  // namespace ukc
