// Determinism tests for the parallel candidate-evaluation pipeline:
// SwapCostMatrix results must be *bitwise* identical for every thread
// count. Each candidate's evaluation is arithmetically identical no
// matter which worker runs it (per-worker evaluators are pure scratch),
// so EXPECT_EQ on doubles is the right assertion — any tolerance would
// hide a scheduling leak. ForEachTask's error contract (first error in
// task order) is pinned the same way.
//
// Also covers the ThreadPool itself (full coverage of the index space,
// worker ids in range), the thread-count invariance of the routed
// consumers (unassigned local search, refine) and the pool-size
// invariance of every facade that borrows a ThreadPool*: a null pool
// (inline on the calling thread) and pools of 1, 2 and 4 workers must
// give bitwise equal outputs.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/baselines.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/surrogates.h"
#include "core/unassigned.h"
#include "core/uncertain_kcenter.h"
#include "cost/assignment.h"
#include "cost/expected_cost_evaluator.h"
#include "cost/parallel_evaluator.h"
#include "exper/instances.h"
#include "solver/gonzalez.h"
#include "solver/refine.h"
#include "stream/ingest.h"
#include "stream/pipeline.h"

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
  // Candidates are range-checked up front, before any screen walk.
  EXPECT_FALSE(parallel.SwapCostMatrix(dataset, {0}, {-1}).ok());
  EXPECT_FALSE(parallel.SwapCostMatrix(dataset, {0}, {0, -1}, 1.0).ok());
}

TEST(ConsumerDeterminismTest, LocalSearchUnassignedIsThreadCountInvariant) {
  std::vector<SiteId> reference_centers;
  double reference_cost = 0.0;
  size_t reference_swaps = 0;
  for (int threads : kThreadCounts) {
    auto dataset = MakeDataset(60, 19);
    ThreadPool pool(threads);
    core::UnassignedSearchOptions options;
    options.k = 3;
    options.max_swaps = 10;
    options.pool = &pool;
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
    ThreadPool pool(threads);
    auto solution =
        core::ExactUnassignedTiny(dataset, 3, candidates, &pool);
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

TEST(ConsumerDeterminismTest, RefineKCenterIsThreadCountInvariant) {
  std::vector<SiteId> reference_centers;
  double reference_radius = 0.0;
  for (int threads : kThreadCounts) {
    auto dataset = MakeDataset(80, 23);
    const auto sites = dataset.LocationSites();
    auto seed = solver::Gonzalez(dataset.space(), sites, 4);
    ASSERT_TRUE(seed.ok());
    ThreadPool pool(threads);
    solver::RefineOptions options;
    options.pool = &pool;
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

// --- Facade pool-size invariance ------------------------------------------

// One facade run's outputs: site ids as they are, doubles as their bit
// patterns, so EXPECT_EQ is a bitwise comparison.
struct Answers {
  std::vector<SiteId> ids;
  std::vector<uint64_t> bits;

  void AddIds(const std::vector<SiteId>& values) {
    ids.insert(ids.end(), values.begin(), values.end());
  }
  void Add(const std::vector<double>& values) {
    for (double value : values) bits.push_back(std::bit_cast<uint64_t>(value));
  }
  // Coordinates of Euclidean sites (minted surrogates and centers); a
  // finite metric has none beyond the ids.
  void AddCoords(const uncertain::UncertainDataset& dataset,
                 const std::vector<SiteId>& sites) {
    if (dataset.euclidean() == nullptr) return;
    std::vector<double> coords;
    dataset.euclidean()->GatherCoords(sites, &coords);
    Add(coords);
  }
};

// Runs `run` with a null pool and then on pools of 1, 2 and 4 workers;
// every run's answers must equal the null-pool run's bitwise.
template <typename Run>
void ExpectPoolSizeInvariant(const Run& run) {
  Answers inline_answers;
  {
    SCOPED_TRACE("pool=null");
    run(nullptr, &inline_answers);
  }
  ASSERT_FALSE(inline_answers.ids.empty() && inline_answers.bits.empty());
  for (int size : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "pool=" << size);
    ThreadPool pool(size);
    Answers answers;
    run(&pool, &answers);
    EXPECT_EQ(answers.ids, inline_answers.ids);
    EXPECT_EQ(answers.bits, inline_answers.bits);
  }
}

TEST(ConsumerDeterminismTest, SolveUncertainKCenterIsPoolSizeInvariant) {
  for (cost::AssignmentRule rule :
       {cost::AssignmentRule::kExpectedDistance,
        cost::AssignmentRule::kExpectedPoint,
        cost::AssignmentRule::kOneCenter}) {
    for (core::SurrogateKind surrogate :
         {core::SurrogateKind::kExpectedPoint,
          core::SurrogateKind::kOneCenter}) {
      SCOPED_TRACE(::testing::Message()
                   << "rule=" << cost::AssignmentRuleToString(rule)
                   << " surrogate=" << core::SurrogateKindToString(surrogate));
      ExpectPoolSizeInvariant([&](ThreadPool* pool, Answers* answers) {
        auto dataset = MakeDataset(120, 29);
        core::UncertainKCenterOptions options;
        options.k = 4;
        options.rule = rule;
        options.surrogate = surrogate;
        // The refined solver shards its rounds over the pool too.
        options.certain.kind = solver::CertainSolverKind::kGonzalezRefined;
        options.evaluate_unassigned = true;
        options.pool = pool;
        auto solution = core::SolveUncertainKCenter(&dataset, options);
        ASSERT_TRUE(solution.ok()) << solution.status();
        answers->AddIds(solution->centers);
        answers->AddIds(solution->assignment);
        answers->AddIds(solution->surrogates);
        answers->AddCoords(dataset, solution->centers);
        answers->AddCoords(dataset, solution->surrogates);
        answers->Add({solution->expected_cost, solution->unassigned_cost,
                      solution->certain_radius});
      });
    }
  }
}

TEST(ConsumerDeterminismTest, BuildSurrogatesIsPoolSizeInvariant) {
  for (exper::Family family :
       {exper::Family::kClustered, exper::Family::kGridGraph}) {
    for (core::SurrogateKind kind :
         {core::SurrogateKind::kExpectedPoint, core::SurrogateKind::kOneCenter,
          core::SurrogateKind::kModal}) {
      if (family == exper::Family::kGridGraph &&
          kind == core::SurrogateKind::kExpectedPoint) {
        continue;  // P̄ needs a Euclidean space.
      }
      SCOPED_TRACE(::testing::Message()
                   << "family=" << static_cast<int>(family)
                   << " kind=" << core::SurrogateKindToString(kind));
      ExpectPoolSizeInvariant([&](ThreadPool* pool, Answers* answers) {
        auto dataset = MakeDataset(90, 31, family);
        core::SurrogateOptions options;
        options.kind = kind;
        options.pool = pool;
        auto surrogates = core::BuildSurrogates(&dataset, options);
        ASSERT_TRUE(surrogates.ok()) << surrogates.status();
        answers->AddIds(*surrogates);
        answers->AddCoords(dataset, *surrogates);
      });
    }
  }
}

TEST(ConsumerDeterminismTest, AssignExpectedDistanceIsPoolSizeInvariant) {
  // Enough Euclidean points that the pool's other workers claim indices
  // before the calling thread drains the flat loop; the grid-graph
  // metric's shortest paths keep its instance small.
  for (const auto& [family, n] :
       {std::pair{exper::Family::kClustered, size_t{2000}},
        std::pair{exper::Family::kGridGraph, size_t{150}}}) {
    SCOPED_TRACE(::testing::Message() << "family=" << static_cast<int>(family));
    const auto dataset = MakeDataset(n, 37, family);
    const auto sites = dataset.LocationSites();
    auto seed = solver::Gonzalez(dataset.space(), sites, 5);
    ASSERT_TRUE(seed.ok()) << seed.status();
    ExpectPoolSizeInvariant([&](ThreadPool* pool, Answers* answers) {
      auto assignment =
          cost::AssignExpectedDistance(dataset, seed->centers, pool);
      ASSERT_TRUE(assignment.ok()) << assignment.status();
      answers->AddIds(*assignment);
    });
  }
}

TEST(ConsumerDeterminismTest, RunBaselineIsPoolSizeInvariant) {
  for (exper::Family family :
       {exper::Family::kClustered, exper::Family::kGridGraph}) {
    for (baselines::BaselineKind kind :
         {baselines::BaselineKind::kPooledLocations,
          baselines::BaselineKind::kModalLocation,
          baselines::BaselineKind::kRandomCenters,
          baselines::BaselineKind::kTruncatedMedian}) {
      SCOPED_TRACE(::testing::Message()
                   << "family=" << static_cast<int>(family)
                   << " kind=" << baselines::BaselineKindToString(kind));
      ExpectPoolSizeInvariant([&](ThreadPool* pool, Answers* answers) {
        auto dataset = MakeDataset(90, 41, family);
        baselines::BaselineOptions options;
        options.k = 4;
        options.pool = pool;
        auto result = baselines::RunBaseline(&dataset, kind, options);
        ASSERT_TRUE(result.ok()) << result.status();
        answers->AddIds(result->centers);
        answers->AddIds(result->assignment);
        answers->AddCoords(dataset, result->centers);
        answers->Add({result->expected_cost});
      });
    }
  }
}

TEST(ConsumerDeterminismTest, StreamingSolveDatasetIsPoolSizeInvariant) {
  ExpectPoolSizeInvariant([&](ThreadPool* pool, Answers* answers) {
    auto dataset = MakeDataset(300, 43);
    stream::StreamingOptions options;
    options.k = 4;
    options.ingest.chunk_size = 37;
    options.ingest.coreset.max_cells = 64;
    options.certain.kind = solver::CertainSolverKind::kGonzalezRefined;
    options.pool = pool;
    auto solution =
        stream::StreamingUncertainKCenter(options).SolveDataset(&dataset);
    ASSERT_TRUE(solution.ok()) << solution.status();
    answers->Add(solution->center_coords);
    answers->Add({static_cast<double>(solution->coreset_cells),
                  static_cast<double>(solution->coreset_level),
                  solution->coreset_cost, solution->coreset_radius,
                  solution->verified_lower, solution->verified_upper,
                  solution->max_expected_distance, solution->verified_exact});
  });
}

TEST(ConsumerDeterminismTest, IngestCoresetIsPoolSizeInvariant) {
  const auto dataset = MakeDataset(300, 47);
  ExpectPoolSizeInvariant([&](ThreadPool* pool, Answers* answers) {
    stream::IngestOptions options;
    options.chunk_size = 29;
    options.coreset.max_cells = 48;
    auto coreset = stream::IngestCoreset(
        2, stream::ResumableDatasetFactory(&dataset, options.chunk_size),
        options, pool);
    ASSERT_TRUE(coreset.ok()) << coreset.status();
    answers->Add({static_cast<double>(coreset->level())});
    for (const stream::StreamingCoreset::Cell& cell : coreset->ExtractCells()) {
      answers->Add({static_cast<double>(cell.min_index),
                    static_cast<double>(cell.count), cell.max_spread});
      answers->Add(cell.representative);
    }
  });
}

}  // namespace
}  // namespace ukc
