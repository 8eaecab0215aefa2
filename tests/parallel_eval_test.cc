// Determinism tests for the parallel candidate-evaluation pipeline:
// SwapCostMatrix results must be *bitwise* identical for every thread
// count. Each candidate's evaluation is arithmetically identical no
// matter which worker runs it (per-worker evaluators are pure scratch),
// so EXPECT_EQ on doubles is the right assertion — any tolerance would
// hide a scheduling leak. ForEachTask's error contract (first error in
// task order) is pinned the same way.
//
// Also covers the ThreadPool itself (full coverage of the index space,
// worker ids in range) and the thread-count invariance of the routed
// consumers (unassigned local search, k-median local search, refine).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/unassigned.h"
#include "cost/expected_cost_evaluator.h"
#include "cost/parallel_evaluator.h"
#include "exper/instances.h"
#include "solver/gonzalez.h"
#include "solver/kmedian_local_search.h"
#include "solver/refine.h"

namespace ukc {
namespace {

using metric::SiteId;

const int kThreadCounts[] = {1, 2, 8};

uncertain::UncertainDataset MakeDataset(size_t n, uint64_t seed,
                                        exper::Family family =
                                            exper::Family::kClustered) {
  exper::InstanceSpec spec;
  spec.family = family;
  spec.n = n;
  spec.z = 3;
  spec.dim = 2;
  spec.k = 4;
  spec.seed = seed;
  return std::move(exper::MakeInstance(spec)).value();
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    std::atomic<bool> worker_in_range{true};
    pool.ParallelFor(kCount, [&](int worker, size_t index) {
      if (worker < 0 || worker >= threads) worker_in_range = false;
      hits[index].fetch_add(1);
    });
    EXPECT_TRUE(worker_in_range.load());
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int job = 0; job < 20; ++job) {
    std::atomic<size_t> total{0};
    pool.ParallelFor(100, [&](int, size_t index) { total += index; });
    EXPECT_EQ(total.load(), 100u * 99 / 2);
  }
  pool.ParallelFor(0, [](int, size_t) { FAIL(); });  // Empty job is a no-op.
}

// RunTasks' contract, through the public ForEachTask hook: every task
// runs, and the first error in TASK order comes back, whichever worker
// finished first. Task 2 sleeps so that task 5 usually fails first on
// the multi-threaded pools.
TEST(ParallelEvaluatorTest, ForEachTaskReturnsFirstErrorInTaskOrder) {
  constexpr size_t kTasks = 16;
  for (int threads : kThreadCounts) {
    cost::ParallelCandidateEvaluator::Options options;
    options.threads = threads;
    cost::ParallelCandidateEvaluator parallel(options);
    std::vector<std::atomic<int>> runs(kTasks);
    const Status status = parallel.ForEachTask(
        kTasks, [&](cost::ExpectedCostEvaluator&, size_t task) -> Status {
          runs[task].fetch_add(1);
          if (task == 2) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            return Status::Internal("task 2 failed");
          }
          if (task == 5) return Status::InvalidArgument("task 5 failed");
          return Status::OK();
        });
    EXPECT_EQ(status, Status::Internal("task 2 failed"))
        << "threads=" << threads << " got " << status.ToString();
    for (size_t task = 0; task < kTasks; ++task) {
      EXPECT_EQ(runs[task].load(), 1) << "threads=" << threads
                                      << " task=" << task;
    }
  }
}

TEST(ParallelEvaluatorTest, SwapCostMatrixMatchesFullEvaluation) {
  for (exper::Family family :
       {exper::Family::kClustered, exper::Family::kGridGraph}) {
    const auto dataset = MakeDataset(80, 13, family);
    const auto sites = dataset.LocationSites();
    auto seed = solver::Gonzalez(dataset.space(), sites, 4);
    const std::vector<SiteId>& centers = seed->centers;
    std::vector<SiteId> pool(sites.begin(),
                             sites.begin() + std::min<size_t>(10, sites.size()));

    // Reference: full linear-path evaluation of every swapped set. The
    // merge-sweep enumerates the same events in the same value order,
    // but events *tied on value* (common in the grid-graph metric) may
    // apply in a different order, so the comparison is to rounding, not
    // bitwise. Across thread counts the swap path is bitwise identical
    // — asserted below against the threads=1 matrix.
    cost::ExpectedCostEvaluator::Options linear_options;
    linear_options.kdtree_cutover = std::numeric_limits<size_t>::max();
    cost::ExpectedCostEvaluator serial(linear_options);
    std::vector<double> reference;
    for (size_t p = 0; p < centers.size(); ++p) {
      for (SiteId candidate : pool) {
        std::vector<SiteId> trial = centers;
        trial[p] = candidate;
        reference.push_back(*serial.UnassignedCost(dataset, trial));
      }
    }

    std::vector<double> single_threaded;
    for (int threads : kThreadCounts) {
      cost::ParallelCandidateEvaluator::Options options;
      options.threads = threads;
      cost::ParallelCandidateEvaluator parallel(options);
      auto values = parallel.SwapCostMatrix(dataset, centers, pool);
      ASSERT_TRUE(values.ok()) << values.status();
      ASSERT_EQ(values->size(), reference.size());
      for (size_t v = 0; v < reference.size(); ++v) {
        EXPECT_NEAR((*values)[v], reference[v],
                    1e-12 * (1.0 + std::abs(reference[v])))
            << "threads=" << threads << " swap=" << v;
      }
      if (single_threaded.empty()) {
        single_threaded = *values;
        continue;
      }
      for (size_t v = 0; v < single_threaded.size(); ++v) {
        EXPECT_EQ((*values)[v], single_threaded[v])
            << "threads=" << threads << " swap=" << v;
      }
    }
  }
}

TEST(ParallelEvaluatorTest, PropagatesErrors) {
  const auto dataset = MakeDataset(20, 17);
  cost::ParallelCandidateEvaluator parallel;
  EXPECT_FALSE(parallel.SwapCostMatrix(dataset, {0, -1}, {0}).ok());
  EXPECT_FALSE(parallel.SwapCostMatrix(dataset, {}, {0}).ok());
  EXPECT_FALSE(parallel.SwapCostMatrix(dataset, {0}, {}).ok());
}

TEST(ConsumerDeterminismTest, LocalSearchUnassignedIsThreadCountInvariant) {
  std::vector<SiteId> reference_centers;
  double reference_cost = 0.0;
  size_t reference_swaps = 0;
  for (int threads : kThreadCounts) {
    auto dataset = MakeDataset(60, 19);
    core::UnassignedSearchOptions options;
    options.k = 3;
    options.max_swaps = 10;
    options.threads = threads;
    auto solution = core::LocalSearchUnassigned(&dataset, options);
    ASSERT_TRUE(solution.ok()) << solution.status();
    if (threads == 1) {
      reference_centers = solution->centers;
      reference_cost = solution->expected_cost;
      reference_swaps = solution->swaps;
      continue;
    }
    EXPECT_EQ(solution->centers, reference_centers) << "threads=" << threads;
    EXPECT_EQ(solution->expected_cost, reference_cost);
    EXPECT_EQ(solution->swaps, reference_swaps);
  }
}

TEST(ConsumerDeterminismTest, ExactUnassignedTinyIsThreadCountInvariant) {
  const auto dataset = MakeDataset(25, 21);
  const auto sites = dataset.LocationSites();
  std::vector<SiteId> candidates(sites.begin(),
                                 sites.begin() + std::min<size_t>(9, sites.size()));
  std::vector<SiteId> reference_centers;
  double reference_cost = 0.0;
  for (int threads : kThreadCounts) {
    auto solution =
        core::ExactUnassignedTiny(dataset, 3, candidates, 2'000'000, threads);
    ASSERT_TRUE(solution.ok()) << solution.status();
    if (threads == 1) {
      reference_centers = solution->centers;
      reference_cost = solution->expected_cost;
      continue;
    }
    EXPECT_EQ(solution->centers, reference_centers) << "threads=" << threads;
    EXPECT_EQ(solution->expected_cost, reference_cost);
  }
}

TEST(ConsumerDeterminismTest, KMedianLocalSearchIsThreadCountInvariant) {
  Rng rng(31);
  const size_t clients = 40;
  const size_t facilities = 25;
  std::vector<std::vector<double>> cost(clients);
  for (auto& row : cost) {
    row.reserve(facilities);
    for (size_t f = 0; f < facilities; ++f) {
      row.push_back(rng.UniformDouble(0.0, 10.0));
    }
  }
  std::vector<size_t> reference_facilities;
  double reference_cost = 0.0;
  for (int threads : kThreadCounts) {
    solver::KMedianOptions options;
    options.threads = threads;
    auto solution = solver::KMedianLocalSearch(cost, 5, options);
    ASSERT_TRUE(solution.ok()) << solution.status();
    if (threads == 1) {
      reference_facilities = solution->facilities;
      reference_cost = solution->total_cost;
      continue;
    }
    EXPECT_EQ(solution->facilities, reference_facilities)
        << "threads=" << threads;
    EXPECT_EQ(solution->total_cost, reference_cost);
  }
}

TEST(ConsumerDeterminismTest, RefineKCenterIsThreadCountInvariant) {
  std::vector<SiteId> reference_centers;
  double reference_radius = 0.0;
  for (int threads : kThreadCounts) {
    auto dataset = MakeDataset(80, 23);
    const auto sites = dataset.LocationSites();
    auto seed = solver::Gonzalez(dataset.space(), sites, 4);
    ASSERT_TRUE(seed.ok());
    solver::RefineOptions options;
    options.threads = threads;
    auto refined = solver::RefineKCenter(dataset.shared_space().get(), sites,
                                         *seed, options);
    ASSERT_TRUE(refined.ok()) << refined.status();
    EXPECT_LE(refined->radius, seed->radius + 1e-12);
    if (threads == 1) {
      reference_centers = refined->centers;
      reference_radius = refined->radius;
      continue;
    }
    EXPECT_EQ(refined->centers, reference_centers) << "threads=" << threads;
    EXPECT_EQ(refined->radius, reference_radius);
  }
}

}  // namespace
}  // namespace ukc
