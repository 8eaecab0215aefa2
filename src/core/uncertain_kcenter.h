// The public entry point: the paper's surrogate pipeline for the
// uncertain k-center problem.
//
//   1. Replace each uncertain point with a certain surrogate
//      (P̄ in Euclidean space, P̃ in a general metric).
//   2. Run a deterministic k-center solver on the surrogates.
//   3. Serve the uncertain points with the resulting centers under the
//      configured assignment rule (ED / EP / OC).
//   4. Evaluate the exact expected cost and report the theorem-certified
//      guarantee for the configuration.

#ifndef UKC_CORE_UNCERTAIN_KCENTER_H_
#define UKC_CORE_UNCERTAIN_KCENTER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "core/bounds.h"
#include "core/surrogates.h"
#include "cost/assignment.h"
#include "solver/certain_solver.h"
#include "uncertain/dataset.h"

namespace ukc {

class ThreadPool;

namespace core {

/// Configuration of the pipeline.
struct UncertainKCenterOptions {
  size_t k = 1;
  /// Which assignment rule serves the uncertain points.
  cost::AssignmentRule rule = cost::AssignmentRule::kExpectedDistance;
  /// Surrogate choice. When unset, picks the paper's default: P̄ for
  /// Euclidean instances, P̃ for general metrics.
  std::optional<SurrogateKind> surrogate;
  /// P̃ candidate policy in finite metrics (see surrogates.h).
  OneCenterCandidates one_center_candidates = OneCenterCandidates::kAllSites;
  /// The plugged deterministic k-center solver.
  solver::CertainSolverOptions certain;
  /// Also evaluate the unassigned cost E[max_i d(P̂_i, C)] (the min is
  /// taken inside the expectation). Costs one extra exact sweep.
  bool evaluate_unassigned = false;
  /// Borrowed worker pool shared by every stage of the run (surrogates,
  /// clustering, assignment); null runs them inline on the calling
  /// thread. The solution does not depend on the pool. LocalSearchUnassigned
  /// (core/unassigned.h) forwards its own pool here for the seed solve.
  ThreadPool* pool = nullptr;
  /// Cancellation/budget token checked between pipeline phases
  /// (surrogates → clustering → assignment → evaluation) and inside
  /// the exact evaluations. Expiry aborts the run with
  /// kDeadlineExceeded; the dataset is left valid (at most surrogate
  /// sites were minted, which later runs reuse or ignore). Default:
  /// never expires.
  Deadline deadline;
};

/// Timing breakdown of one pipeline run, in seconds.
struct PipelineTimings {
  double surrogate_seconds = 0.0;
  double clustering_seconds = 0.0;
  double assignment_seconds = 0.0;
  double evaluation_seconds = 0.0;

  double TotalSeconds() const {
    return surrogate_seconds + clustering_seconds + assignment_seconds +
           evaluation_seconds;
  }
};

/// Full output of the pipeline.
struct UncertainKCenterSolution {
  /// The k chosen centers (site ids in the dataset's space).
  std::vector<metric::SiteId> centers;
  /// assignment[i] = the center serving uncertain point i.
  cost::Assignment assignment;
  /// Exact assigned expected cost EcostA of (centers, assignment).
  double expected_cost = 0.0;
  /// Exact unassigned expected cost; NaN unless evaluate_unassigned.
  double unassigned_cost = 0.0;
  /// The surrogate site of each uncertain point.
  std::vector<metric::SiteId> surrogates;
  /// Covering radius of the deterministic surrogate clustering.
  double certain_radius = 0.0;
  /// Name of the deterministic solver that ran.
  std::string certain_algorithm;
  /// The certain solver's factor f (the paper's 1+ε slot).
  double certain_factor = 0.0;
  /// Theorem-certified guarantees for this configuration (may be empty
  /// for baseline configurations).
  std::vector<BoundClaim> bounds;
  PipelineTimings timings;
};

/// Runs the pipeline. The dataset is mutated only by minting surrogate
/// sites into its (Euclidean) space; the uncertain points themselves
/// are untouched. Fails on invalid configurations, e.g. the EP rule or
/// P̄ surrogate on a non-Euclidean dataset, or k == 0.
Result<UncertainKCenterSolution> SolveUncertainKCenter(
    uncertain::UncertainDataset* dataset, const UncertainKCenterOptions& options);

}  // namespace core
}  // namespace ukc

#endif  // UKC_CORE_UNCERTAIN_KCENTER_H_
