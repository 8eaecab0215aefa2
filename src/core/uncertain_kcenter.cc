#include "core/uncertain_kcenter.h"

#include <cmath>

#include "common/stopwatch.h"
#include "cost/expected_cost.h"

namespace ukc {
namespace core {

Result<UncertainKCenterSolution> SolveUncertainKCenter(
    uncertain::UncertainDataset* dataset,
    const UncertainKCenterOptions& options) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("SolveUncertainKCenter: null dataset");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("SolveUncertainKCenter: k must be >= 1");
  }
  const bool euclidean = dataset->is_euclidean();
  const SurrogateKind surrogate_kind = options.surrogate.value_or(
      euclidean ? SurrogateKind::kExpectedPoint : SurrogateKind::kOneCenter);
  if (surrogate_kind == SurrogateKind::kExpectedPoint && !euclidean) {
    return Status::InvalidArgument(
        "SolveUncertainKCenter: the expected-point surrogate requires a "
        "Euclidean space");
  }
  if (options.rule == cost::AssignmentRule::kExpectedPoint && !euclidean) {
    return Status::InvalidArgument(
        "SolveUncertainKCenter: the EP assignment rule requires a Euclidean "
        "space");
  }

  UncertainKCenterSolution solution;
  solution.unassigned_cost = std::nan("");

  // 1. Surrogates.
  UKC_RETURN_IF_ERROR(options.deadline.Check("SolveUncertainKCenter[surrogates]"));
  Stopwatch stopwatch;
  SurrogateOptions surrogate_options;
  surrogate_options.kind = surrogate_kind;
  surrogate_options.candidates = options.one_center_candidates;
  surrogate_options.pool = options.pool;
  UKC_ASSIGN_OR_RETURN(solution.surrogates,
                       BuildSurrogates(dataset, surrogate_options));
  solution.timings.surrogate_seconds = stopwatch.ElapsedSeconds();

  // 2. Deterministic k-center on the surrogates, sharing the run's
  // pool with solvers that parallelize (gonzalez-refined).
  UKC_RETURN_IF_ERROR(options.deadline.Check("SolveUncertainKCenter[cluster]"));
  stopwatch.Reset();
  metric::MetricSpace* space = dataset->shared_space().get();
  solver::CertainSolverOptions certain_options = options.certain;
  if (certain_options.pool == nullptr) certain_options.pool = options.pool;
  UKC_ASSIGN_OR_RETURN(
      solver::KCenterSolution certain,
      solver::SolveCertainKCenter(space, solution.surrogates, options.k,
                                  certain_options));
  solution.centers = certain.centers;
  solution.certain_radius = certain.radius;
  solution.certain_algorithm = certain.algorithm;
  solution.certain_factor = certain.approx_factor;
  solution.timings.clustering_seconds = stopwatch.ElapsedSeconds();

  // 3. Assignment rule.
  UKC_RETURN_IF_ERROR(options.deadline.Check("SolveUncertainKCenter[assign]"));
  stopwatch.Reset();
  switch (options.rule) {
    case cost::AssignmentRule::kExpectedDistance: {
      UKC_ASSIGN_OR_RETURN(
          solution.assignment,
          cost::AssignExpectedDistance(*dataset, solution.centers,
                                       options.pool));
      break;
    }
    case cost::AssignmentRule::kExpectedPoint: {
      // EP assigns by the expected point, which must be built even when
      // another surrogate drives the clustering.
      std::vector<metric::SiteId> expected_points;
      if (surrogate_kind == SurrogateKind::kExpectedPoint) {
        expected_points = solution.surrogates;
      } else {
        SurrogateOptions ep_options;
        ep_options.kind = SurrogateKind::kExpectedPoint;
        ep_options.pool = options.pool;
        UKC_ASSIGN_OR_RETURN(expected_points,
                             BuildSurrogates(dataset, ep_options));
      }
      UKC_ASSIGN_OR_RETURN(
          solution.assignment,
          cost::AssignBySurrogate(*dataset, expected_points, solution.centers));
      break;
    }
    case cost::AssignmentRule::kOneCenter: {
      std::vector<metric::SiteId> one_centers;
      if (surrogate_kind == SurrogateKind::kOneCenter) {
        one_centers = solution.surrogates;
      } else {
        SurrogateOptions oc_options;
        oc_options.kind = SurrogateKind::kOneCenter;
        oc_options.candidates = options.one_center_candidates;
        oc_options.pool = options.pool;
        UKC_ASSIGN_OR_RETURN(one_centers, BuildSurrogates(dataset, oc_options));
      }
      UKC_ASSIGN_OR_RETURN(
          solution.assignment,
          cost::AssignBySurrogate(*dataset, one_centers, solution.centers));
      break;
    }
  }
  solution.timings.assignment_seconds = stopwatch.ElapsedSeconds();

  // 4. Exact evaluation (one evaluator shares scratch across both
  // objectives).
  stopwatch.Reset();
  cost::ExpectedCostEvaluator::Options evaluator_options;
  evaluator_options.deadline = options.deadline;
  cost::ExpectedCostEvaluator evaluator(evaluator_options);
  UKC_ASSIGN_OR_RETURN(solution.expected_cost,
                       evaluator.AssignedCost(*dataset, solution.assignment));
  if (options.evaluate_unassigned) {
    UKC_ASSIGN_OR_RETURN(solution.unassigned_cost,
                         evaluator.UnassignedCost(*dataset, solution.centers));
  }
  solution.timings.evaluation_seconds = stopwatch.ElapsedSeconds();

  // Guarantee bookkeeping. The own-locations P̃ shortcut weakens the
  // median factor to 2 (see bounds.h); the Euclidean Weiszfeld P̃ and
  // the all-sites finite-metric P̃ are exact minimizers (m = 1).
  const double median_factor =
      (!euclidean && surrogate_kind == SurrogateKind::kOneCenter &&
       options.one_center_candidates == OneCenterCandidates::kOwnLocations)
          ? 2.0
          : 1.0;
  solution.bounds = BoundsFor(euclidean, surrogate_kind, options.rule,
                              solution.certain_factor, median_factor);
  return solution;
}

}  // namespace core
}  // namespace ukc
