// The unassigned version of the uncertain k-center problem (the third
// variant in the paper's taxonomy):
//
//   Ecost(C) = E_R[ max_i min_{c in C} d(P̂_i, c) ]
//
// The paper proves no algorithm for it (Huang & Li give a PTAS for
// constant k and d; Guha–Munagala an O(1) factor) but its Theorems
// 2.4–2.7 imply a baseline: any assigned solution upper-bounds the
// unassigned objective (fixing an assignment can only hurt), and the
// unrestricted optimum upper... lower-bounds it from the other side:
//
//   OPT_unassigned <= OPT_unrestricted <= EcostA(pipeline)
//
// so the pipeline's centers are a (3+eps)/(5+2eps)-style approximation
// for the unassigned objective as well whenever OPT_unassigned is
// within a constant of OPT_unrestricted. This module provides:
//
//  * ExactUnassignedTiny — exhaustive center enumeration (the true
//    optimum over a candidate set; exact in finite metrics). No
//    workload or example calls it: it is kept as the exact oracle the
//    local-search tests compare against.
//  * LocalSearchUnassigned — pipeline seeding plus swap local search
//    evaluating the exact unassigned objective; never worse than the
//    seed, typically much better on spread instances.

#ifndef UKC_CORE_UNASSIGNED_H_
#define UKC_CORE_UNASSIGNED_H_

#include <cstdint>

#include "common/result.h"
#include "core/uncertain_kcenter.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace core {

/// Result of an unassigned-objective solver.
struct UnassignedSolution {
  std::vector<metric::SiteId> centers;
  /// Exact unassigned expected cost E[max_i d(P̂_i, C)].
  double expected_cost = 0.0;
  /// Number of improving swaps the local search applied (0 for exact).
  size_t swaps = 0;
};

/// Exhaustive enumeration of k-subsets of `candidates` minimizing the
/// exact unassigned cost. True optimum over the candidate set. The
/// enumeration itself shards over the worker pool: each task unranks
/// the start of its contiguous rank range (solver::CombinationFromRank)
/// and advances the combination odometer locally, so no serial
/// enumerator feeds the workers. Per-task minima are reduced in rank
/// order with a strict <, so the selected subset — including on cost
/// ties, where the lexicographically first subset wins — and the
/// returned cost are bitwise independent of the borrowed `pool` and
/// identical to a serial scan. A null `pool` runs the enumeration
/// inline on the calling thread. Refuses more than 2'000'000 subsets.
/// The exact oracle of the local-search tests (unassigned_test,
/// incremental_sweep_test, parallel_eval_test); nothing outside the
/// tests calls it.
Result<UnassignedSolution> ExactUnassignedTiny(
    const uncertain::UncertainDataset& dataset, size_t k,
    const std::vector<metric::SiteId>& candidates, ThreadPool* pool = nullptr);

/// Options for LocalSearchUnassigned.
struct UnassignedSearchOptions {
  size_t k = 1;
  /// Candidate pool for swaps; empty = the dataset's location sites
  /// plus the pipeline's surrogates.
  std::vector<metric::SiteId> candidates;
  size_t max_swaps = 200;
  /// Borrowed worker pool scoring the swap candidates of each round;
  /// null runs them inline on the calling thread. The chosen swaps do
  /// not depend on the pool. Also forwarded to the seeding pipeline
  /// unless it sets its own.
  ThreadPool* pool = nullptr;
  /// Cancellation/budget token checked before the seed solve and at
  /// every swap round (plus per candidate inside the evaluators it is
  /// forwarded to). Expiry returns kDeadlineExceeded — the
  /// partially-improved trajectory is discarded rather than returned,
  /// so callers never mistake a truncated search for a converged one.
  /// Default: never expires.
  Deadline deadline;
  /// Options for the seeding pipeline run.
  UncertainKCenterOptions pipeline;
};

/// Seeds with the paper's pipeline, then best-improvement single swaps
/// under the exact unassigned objective.
Result<UnassignedSolution> LocalSearchUnassigned(
    uncertain::UncertainDataset* dataset, const UnassignedSearchOptions& options);

}  // namespace core
}  // namespace ukc

#endif  // UKC_CORE_UNASSIGNED_H_
