#include "baselines/baselines.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/surrogates.h"
#include "cost/expected_cost.h"
#include "solver/geometric_median.h"
#include "solver/gonzalez.h"

namespace ukc {
namespace baselines {

using metric::SiteId;

std::string BaselineKindToString(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kPooledLocations:
      return "pooled-locations";
    case BaselineKind::kModalLocation:
      return "modal-location";
    case BaselineKind::kRandomCenters:
      return "random-centers";
    case BaselineKind::kTruncatedMedian:
      return "truncated-median";
  }
  return "?";
}

namespace {

// Finalizes a baseline: ED assignment + exact evaluation through the
// shared expected-cost engine.
Result<BaselineResult> FinishWithED(const uncertain::UncertainDataset& dataset,
                                    cost::ExpectedCostEvaluator* evaluator,
                                    std::string name,
                                    std::vector<SiteId> centers,
                                    ThreadPool* pool) {
  BaselineResult result;
  result.name = std::move(name);
  result.centers = std::move(centers);
  UKC_ASSIGN_OR_RETURN(result.assignment,
                       cost::AssignExpectedDistance(dataset, result.centers,
                                                    pool));
  UKC_ASSIGN_OR_RETURN(result.expected_cost,
                       evaluator->AssignedCost(dataset, result.assignment));
  return result;
}

// The highest-probability core of point i: drop the lowest-probability
// locations until just before the removed mass would exceed the tail
// mass kTruncationDelta.
std::vector<uncertain::Location> TruncatedCore(
    const uncertain::UncertainDataset& dataset, size_t i) {
  constexpr double kTruncationDelta = 0.25;
  const uncertain::LocationRange range = dataset.point(i).locations();
  std::vector<uncertain::Location> kept(range.begin(), range.end());
  std::sort(kept.begin(), kept.end(),
            [](const uncertain::Location& a, const uncertain::Location& b) {
              return a.probability > b.probability;
            });
  double removed = 0.0;
  while (kept.size() > 1 &&
         removed + kept.back().probability <= kTruncationDelta) {
    removed += kept.back().probability;
    kept.pop_back();
  }
  return kept;
}

// The truncated-median surrogates of every point. The per-point medians
// are computed in parallel (pure reads); Euclidean surrogates are
// minted into the space serially afterwards, in point order.
Result<std::vector<SiteId>> TruncatedMedianSurrogates(
    uncertain::UncertainDataset* dataset, ThreadPool* shared_pool) {
  const size_t n = dataset->n();
  ScopedPool pool(shared_pool, 1);
  if (dataset->is_euclidean()) {
    metric::EuclideanSpace* space = dataset->euclidean();
    std::vector<geometry::Point> medians(n);
    std::vector<Status> statuses(n);
    pool->ParallelFor(n, [&](int, size_t i) {
      const auto kept = TruncatedCore(*dataset, i);
      std::vector<geometry::Point> points;
      std::vector<double> weights;
      points.reserve(kept.size());
      weights.reserve(kept.size());
      for (const uncertain::Location& loc : kept) {
        points.push_back(space->point(loc.site));
        weights.push_back(loc.probability);
      }
      auto median = solver::WeightedGeometricMedian(points, weights);
      if (!median.ok()) {
        statuses[i] = median.status();
        return;
      }
      medians[i] = std::move(median->median);
    });
    for (Status& status : statuses) {
      if (!status.ok()) return std::move(status);
    }
    std::vector<SiteId> surrogates;
    surrogates.reserve(n);
    for (geometry::Point& median : medians) {
      surrogates.push_back(space->AddPoint(std::move(median)));
    }
    return surrogates;
  }
  // Finite metric: best own kept location by truncated expected
  // distance; existing sites only, so fully parallel.
  const metric::MetricSpace& space = dataset->space();
  std::vector<SiteId> surrogates(n, metric::kInvalidSite);
  pool->ParallelFor(n, [&](int, size_t i) {
    const auto kept = TruncatedCore(*dataset, i);
    SiteId best = kept[0].site;
    double best_value = std::numeric_limits<double>::infinity();
    for (const uncertain::Location& candidate : kept) {
      double value = 0.0;
      for (const uncertain::Location& loc : kept) {
        value += loc.probability * space.Distance(loc.site, candidate.site);
      }
      if (value < best_value) {
        best_value = value;
        best = candidate.site;
      }
    }
    surrogates[i] = best;
  });
  return surrogates;
}

}  // namespace

Result<BaselineResult> RunBaseline(uncertain::UncertainDataset* dataset,
                                   BaselineKind kind,
                                   const BaselineOptions& options) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("RunBaseline: null dataset");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("RunBaseline: k must be >= 1");
  }
  metric::MetricSpace& space = *dataset->shared_space();
  cost::ExpectedCostEvaluator evaluator;

  switch (kind) {
    case BaselineKind::kPooledLocations: {
      const std::vector<SiteId> pool = dataset->LocationSites();
      UKC_ASSIGN_OR_RETURN(solver::KCenterSolution certain,
                           solver::Gonzalez(space, pool, options.k));
      return FinishWithED(*dataset, &evaluator, BaselineKindToString(kind),
                          std::move(certain.centers), options.pool);
    }
    case BaselineKind::kModalLocation: {
      core::SurrogateOptions surrogate_options;
      surrogate_options.kind = core::SurrogateKind::kModal;
      surrogate_options.pool = options.pool;
      UKC_ASSIGN_OR_RETURN(std::vector<SiteId> modal,
                           core::BuildSurrogates(dataset, surrogate_options));
      UKC_ASSIGN_OR_RETURN(solver::KCenterSolution certain,
                           solver::Gonzalez(space, modal, options.k));
      BaselineResult result;
      result.name = BaselineKindToString(kind);
      result.centers = std::move(certain.centers);
      UKC_ASSIGN_OR_RETURN(
          result.assignment,
          cost::AssignBySurrogate(*dataset, modal, result.centers));
      UKC_ASSIGN_OR_RETURN(result.expected_cost,
                           evaluator.AssignedCost(*dataset, result.assignment));
      return result;
    }
    case BaselineKind::kRandomCenters: {
      const std::vector<SiteId> pool = dataset->LocationSites();
      Rng rng(options.seed);
      std::vector<SiteId> shuffled = pool;
      rng.Shuffle(&shuffled);
      shuffled.resize(std::min<size_t>(options.k, shuffled.size()));
      return FinishWithED(*dataset, &evaluator, BaselineKindToString(kind),
                          std::move(shuffled), options.pool);
    }
    case BaselineKind::kTruncatedMedian: {
      UKC_ASSIGN_OR_RETURN(std::vector<SiteId> surrogates,
                           TruncatedMedianSurrogates(dataset, options.pool));
      UKC_ASSIGN_OR_RETURN(solver::KCenterSolution certain,
                           solver::Gonzalez(space, surrogates, options.k));
      return FinishWithED(*dataset, &evaluator, BaselineKindToString(kind),
                          std::move(certain.centers), options.pool);
    }
  }
  return Status::Internal("RunBaseline: unknown baseline kind");
}

}  // namespace baselines
}  // namespace ukc
