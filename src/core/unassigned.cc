#include "core/unassigned.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"
#include "cost/expected_cost.h"
#include "cost/parallel_evaluator.h"
#include "solver/brute_force.h"

namespace ukc {
namespace core {

using metric::SiteId;

Result<UnassignedSolution> ExactUnassignedTiny(
    const uncertain::UncertainDataset& dataset, size_t k,
    const std::vector<SiteId>& candidates, ThreadPool* pool) {
  if (k == 0 || k > candidates.size()) {
    return Status::InvalidArgument(
        "ExactUnassignedTiny: need 1 <= k <= |candidates|");
  }
  constexpr uint64_t kMaxSubsets = 2'000'000;
  const uint64_t subsets = solver::BinomialCount(candidates.size(), k);
  if (subsets > kMaxSubsets) {
    return Status::InvalidArgument(
        StrFormat("ExactUnassignedTiny: %llu subsets exceeds the cap %llu",
                  static_cast<unsigned long long>(subsets),
                  static_cast<unsigned long long>(kMaxSubsets)));
  }

  // The enumeration shards over the pool: task t covers the contiguous
  // rank range [t·kRanksPerTask, ...), unranks its start once and walks
  // the odometer from there — no serial enumerator feeds the workers,
  // and each task is a pure function of its index. Each task keeps its
  // first strict minimum; the tasks are then reduced in rank order with
  // the same strict <, which reproduces a serial first-minimum scan
  // exactly (ties resolve to the lowest rank).
  cost::ParallelCandidateEvaluator::Options parallel_options;
  parallel_options.threads = 1;  // A null pool runs inline.
  parallel_options.pool = pool;
  cost::ParallelCandidateEvaluator parallel(parallel_options);
  constexpr uint64_t kRanksPerTask = 256;
  const size_t tasks = static_cast<size_t>((subsets + kRanksPerTask - 1) /
                                           kRanksPerTask);
  struct TaskBest {
    double value = std::numeric_limits<double>::infinity();
    uint64_t rank = 0;
  };
  std::vector<TaskBest> bests(tasks);
  UKC_RETURN_IF_ERROR(parallel.ForEachTask(
      tasks, [&](cost::ExpectedCostEvaluator& evaluator, size_t t) -> Status {
        const uint64_t begin = static_cast<uint64_t>(t) * kRanksPerTask;
        const uint64_t end = std::min(subsets, begin + kRanksPerTask);
        std::vector<size_t> index;
        solver::CombinationFromRank(begin, candidates.size(), k, &index);
        std::vector<SiteId> centers(k);
        for (uint64_t rank = begin; rank < end; ++rank) {
          for (size_t i = 0; i < k; ++i) centers[i] = candidates[index[i]];
          UKC_ASSIGN_OR_RETURN(double value,
                               evaluator.UnassignedCost(dataset, centers));
          if (value < bests[t].value) {
            bests[t].value = value;
            bests[t].rank = rank;
          }
          if (rank + 1 < end) {
            UKC_CHECK(solver::NextCombination(&index, candidates.size()));
          }
        }
        return Status::OK();
      }));

  UnassignedSolution best;
  best.expected_cost = std::numeric_limits<double>::infinity();
  uint64_t best_rank = 0;
  for (const TaskBest& task : bests) {
    if (task.value < best.expected_cost) {
      best.expected_cost = task.value;
      best_rank = task.rank;
    }
  }
  std::vector<size_t> index;
  solver::CombinationFromRank(best_rank, candidates.size(), k, &index);
  best.centers.resize(k);
  for (size_t i = 0; i < k; ++i) best.centers[i] = candidates[index[i]];
  return best;
}

Result<UnassignedSolution> LocalSearchUnassigned(
    uncertain::UncertainDataset* dataset,
    const UnassignedSearchOptions& options) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("LocalSearchUnassigned: null dataset");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("LocalSearchUnassigned: k must be >= 1");
  }

  // Seed with the paper's pipeline under the given configuration,
  // sharing the caller's worker pool unless the pipeline brings its own.
  UncertainKCenterOptions pipeline_options = options.pipeline;
  pipeline_options.k = options.k;
  if (pipeline_options.pool == nullptr) pipeline_options.pool = options.pool;
  if (pipeline_options.deadline.infinite()) {
    pipeline_options.deadline = options.deadline;
  }
  if (!dataset->is_euclidean() &&
      pipeline_options.rule == cost::AssignmentRule::kExpectedPoint) {
    pipeline_options.rule = cost::AssignmentRule::kOneCenter;
  }
  UKC_ASSIGN_OR_RETURN(UncertainKCenterSolution seed,
                       SolveUncertainKCenter(dataset, pipeline_options));

  // Candidate pool: caller-provided, or locations + surrogates.
  std::vector<SiteId> pool = options.candidates;
  if (pool.empty()) {
    pool = dataset->LocationSites();
    pool.insert(pool.end(), seed.surrogates.begin(), seed.surrogates.end());
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  }

  UnassignedSolution solution;
  solution.centers = seed.centers;
  // Every round scores the |centers| * |pool| one-center swaps through
  // the swap-structure batch: O(N) per swap instead of O(N k), sharded
  // over the worker pool. The kd path is disabled for the scalar
  // evaluations too, so the running cost and the swap values come from
  // identical (linear-path) arithmetic. Each round hands the batch the
  // running cost as its incumbent: a swap whose certified lower bound
  // (max_i E[d(P̂_i, C')] ≤ E[max_i d(P̂_i, C')], with its rounding)
  // proves it cannot pass the acceptance test below comes back +inf
  // without being scored, and every other value is bitwise the full
  // matrix's, so the trajectory is the full matrix's too
  // (cost/parallel_evaluator.cc, ScreenThreshold).
  cost::ParallelCandidateEvaluator::Options parallel_options;
  parallel_options.threads = 1;  // A null pool runs inline.
  parallel_options.pool = options.pool;
  parallel_options.evaluator.kdtree_cutover =
      std::numeric_limits<size_t>::max();
  parallel_options.evaluator.deadline = options.deadline;
  cost::ParallelCandidateEvaluator parallel(parallel_options);
  {
    // Scoped so its event and radix scratch (~2 events per location)
    // is freed before the swap rounds build their tables.
    cost::ExpectedCostEvaluator::Options scalar_options;
    scalar_options.kdtree_cutover = std::numeric_limits<size_t>::max();
    scalar_options.deadline = options.deadline;
    cost::ExpectedCostEvaluator evaluator(scalar_options);
    UKC_ASSIGN_OR_RETURN(solution.expected_cost,
                         evaluator.UnassignedCost(*dataset, solution.centers));
  }

  for (size_t round = 0; round < options.max_swaps; ++round) {
    UKC_RETURN_IF_ERROR(
        options.deadline.Check("LocalSearchUnassigned[round]"));
    UKC_ASSIGN_OR_RETURN(
        std::vector<double> values,
        parallel.SwapCostMatrix(*dataset, solution.centers, pool,
                                solution.expected_cost));
    // Deterministic argmin in (position, candidate) order — the same
    // order the serial nested loops scanned.
    double best_value = solution.expected_cost;
    size_t best_position = solution.centers.size();
    SiteId best_replacement = metric::kInvalidSite;
    for (size_t position = 0; position < solution.centers.size(); ++position) {
      for (size_t c = 0; c < pool.size(); ++c) {
        if (pool[c] == solution.centers[position]) continue;
        const double value = values[position * pool.size() + c];
        if (value < best_value) {
          best_value = value;
          best_position = position;
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

}  // namespace core
}  // namespace ukc
