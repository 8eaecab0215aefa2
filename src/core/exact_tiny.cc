#include "core/exact_tiny.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/strings.h"
#include "cost/expected_cost.h"
#include "core/surrogates.h"
#include "solver/brute_force.h"
#include "solver/geometric_median.h"

namespace ukc {
namespace core {

using metric::SiteId;

Result<std::vector<SiteId>> DefaultCandidateSites(
    uncertain::UncertainDataset* dataset) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("DefaultCandidateSites: null dataset");
  }
  if (!dataset->is_euclidean()) {
    // Finite metric: centers may be any site of the space, so every
    // site is a candidate and the enumeration below is truly exact.
    std::vector<SiteId> all(static_cast<size_t>(dataset->space().num_sites()));
    for (size_t s = 0; s < all.size(); ++s) all[s] = static_cast<SiteId>(s);
    return all;
  }
  std::vector<SiteId> candidates = dataset->LocationSites();
  SurrogateOptions expected_options;
  expected_options.kind = SurrogateKind::kExpectedPoint;
  UKC_ASSIGN_OR_RETURN(std::vector<SiteId> expected,
                       BuildSurrogates(dataset, expected_options));
  candidates.insert(candidates.end(), expected.begin(), expected.end());
  SurrogateOptions median_options;
  median_options.kind = SurrogateKind::kOneCenter;
  UKC_ASSIGN_OR_RETURN(std::vector<SiteId> medians,
                       BuildSurrogates(dataset, median_options));
  candidates.insert(candidates.end(), medians.begin(), medians.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

namespace {

// Both exact solvers refuse to enumerate more center subsets than this.
constexpr uint64_t kMaxCenterSubsets = 2'000'000;

// Calls visit(centers) for every k-subset of candidates; stops early if
// visit returns a non-OK status.
Status ForEachSubset(const std::vector<SiteId>& candidates, size_t k,
                     const std::function<Status(const std::vector<SiteId>&)>& visit) {
  std::vector<size_t> index(k);
  for (size_t i = 0; i < k; ++i) index[i] = i;
  std::vector<SiteId> centers(k);
  while (true) {
    for (size_t i = 0; i < k; ++i) centers[i] = candidates[index[i]];
    UKC_RETURN_IF_ERROR(visit(centers));
    if (!solver::NextCombination(&index, candidates.size())) {
      return Status::OK();
    }
  }
}

}  // namespace

Result<ExactUncertainSolution> ExactRestrictedAssigned(
    uncertain::UncertainDataset* dataset, size_t k, cost::AssignmentRule rule,
    const std::vector<SiteId>& candidates) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("ExactRestrictedAssigned: null dataset");
  }
  if (k == 0 || k > candidates.size()) {
    return Status::InvalidArgument(
        "ExactRestrictedAssigned: need 1 <= k <= |candidates|");
  }
  const uint64_t subsets = solver::BinomialCount(candidates.size(), k);
  if (subsets > kMaxCenterSubsets) {
    return Status::InvalidArgument(
        StrFormat("ExactRestrictedAssigned: %llu center subsets exceeds the "
                  "cap %llu",
                  static_cast<unsigned long long>(subsets),
                  static_cast<unsigned long long>(kMaxCenterSubsets)));
  }

  // Prebuild the surrogate sites the rule needs, once.
  std::vector<SiteId> rule_surrogates;
  if (rule == cost::AssignmentRule::kExpectedPoint ||
      rule == cost::AssignmentRule::kOneCenter) {
    SurrogateOptions surrogate_options;
    surrogate_options.kind = rule == cost::AssignmentRule::kExpectedPoint
                                 ? SurrogateKind::kExpectedPoint
                                 : SurrogateKind::kOneCenter;
    UKC_ASSIGN_OR_RETURN(rule_surrogates,
                         BuildSurrogates(dataset, surrogate_options));
  }

  ExactUncertainSolution best;
  best.expected_cost = std::numeric_limits<double>::infinity();
  Status status = ForEachSubset(
      candidates, k, [&](const std::vector<SiteId>& centers) -> Status {
        Result<cost::Assignment> assignment =
            rule == cost::AssignmentRule::kExpectedDistance
                ? cost::AssignExpectedDistance(*dataset, centers)
                : cost::AssignBySurrogate(*dataset, rule_surrogates, centers);
        UKC_RETURN_IF_ERROR(assignment.status());
        UKC_ASSIGN_OR_RETURN(double value,
                             cost::ExactAssignedCost(*dataset, assignment.value()));
        if (value < best.expected_cost) {
          best.expected_cost = value;
          best.centers = centers;
          best.assignment = std::move(assignment).value();
        }
        return Status::OK();
      });
  UKC_RETURN_IF_ERROR(status);
  return best;
}

Result<ExactUncertainSolution> ExactUnrestrictedAssigned(
    uncertain::UncertainDataset* dataset, size_t k,
    const std::vector<SiteId>& candidates) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("ExactUnrestrictedAssigned: null dataset");
  }
  if (k == 0 || k > candidates.size()) {
    return Status::InvalidArgument(
        "ExactUnrestrictedAssigned: need 1 <= k <= |candidates|");
  }
  const size_t n = dataset->n();
  const uint64_t subsets = solver::BinomialCount(candidates.size(), k);
  if (subsets > kMaxCenterSubsets) {
    return Status::InvalidArgument(
        StrFormat("ExactUnrestrictedAssigned: %llu center subsets exceeds "
                  "the cap %llu",
                  static_cast<unsigned long long>(subsets),
                  static_cast<unsigned long long>(kMaxCenterSubsets)));
  }
  // k^n assignments per subset.
  constexpr uint64_t kMaxAssignments = 2'000'000;
  double assignments_log = static_cast<double>(n) * std::log2(static_cast<double>(k));
  if (assignments_log > 62 ||
      static_cast<uint64_t>(std::pow(static_cast<double>(k), static_cast<double>(n))) >
          kMaxAssignments) {
    return Status::InvalidArgument(
        StrFormat("ExactUnrestrictedAssigned: k^n assignments exceeds the "
                  "cap %llu",
                  static_cast<unsigned long long>(kMaxAssignments)));
  }

  ExactUncertainSolution best;
  best.expected_cost = std::numeric_limits<double>::infinity();
  Status status = ForEachSubset(
      candidates, k, [&](const std::vector<SiteId>& centers) -> Status {
        cost::Assignment assignment(n, centers[0]);
        std::vector<size_t> choice(n, 0);
        while (true) {
          UKC_ASSIGN_OR_RETURN(double value,
                               cost::ExactAssignedCost(*dataset, assignment));
          if (value < best.expected_cost) {
            best.expected_cost = value;
            best.centers = centers;
            best.assignment = assignment;
          }
          size_t i = 0;
          for (; i < n; ++i) {
            if (++choice[i] < k) {
              assignment[i] = centers[choice[i]];
              break;
            }
            choice[i] = 0;
            assignment[i] = centers[0];
          }
          if (i == n) break;
        }
        return Status::OK();
      });
  UKC_RETURN_IF_ERROR(status);
  return best;
}

Result<double> OneCenterObjectiveAt(const uncertain::UncertainDataset& dataset,
                                    const geometry::Point& q) {
  const metric::EuclideanSpace* space = dataset.euclidean();
  if (space == nullptr) {
    return Status::FailedPrecondition(
        "OneCenterObjectiveAt: requires a Euclidean dataset");
  }
  std::vector<cost::DiscreteDistribution> distributions(dataset.n());
  for (size_t i = 0; i < dataset.n(); ++i) {
    const uncertain::UncertainPointView p = dataset.point(i);
    distributions[i].reserve(p.num_locations());
    for (const uncertain::Location& loc : p.locations()) {
      distributions[i].emplace_back(space->DistanceToPoint(loc.site, q),
                                    loc.probability);
    }
  }
  return cost::ExpectedMaxOfIndependent(std::move(distributions));
}

Result<geometry::Point> RefineOneCenterContinuous(
    const uncertain::UncertainDataset& dataset, const geometry::Point& start,
    double initial_step, double tolerance, size_t max_evals) {
  if (!(initial_step > 0.0)) {
    return Status::InvalidArgument(
        "RefineOneCenterContinuous: initial_step must be positive");
  }
  geometry::Point current = start;
  UKC_ASSIGN_OR_RETURN(double value, OneCenterObjectiveAt(dataset, current));
  double step = initial_step;
  size_t evals = 0;
  const size_t dim = current.dim();
  while (step > tolerance && evals < max_evals) {
    bool improved = false;
    for (size_t axis = 0; axis < dim && evals < max_evals; ++axis) {
      for (double sign : {+1.0, -1.0}) {
        geometry::Point trial = current;
        trial[axis] += sign * step;
        UKC_ASSIGN_OR_RETURN(double trial_value,
                             OneCenterObjectiveAt(dataset, trial));
        ++evals;
        if (trial_value < value) {
          value = trial_value;
          current = trial;
          improved = true;
          break;
        }
      }
    }
    if (!improved) step /= 2.0;
  }
  return current;
}

}  // namespace core
}  // namespace ukc
