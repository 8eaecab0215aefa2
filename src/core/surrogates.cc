#include "core/surrogates.h"

#include <limits>

#include "common/thread_pool.h"
#include "geometry/point.h"
#include "solver/geometric_median.h"

namespace ukc {
namespace core {

using metric::SiteId;

std::string SurrogateKindToString(SurrogateKind kind) {
  switch (kind) {
    case SurrogateKind::kExpectedPoint:
      return "expected-point";
    case SurrogateKind::kOneCenter:
      return "one-center";
    case SurrogateKind::kModal:
      return "modal";
  }
  return "?";
}

namespace {

// P̄_i = Σ_j p_ij P_ij, written into out[0..dim). Streams the dataset's
// flat location arrays against the coordinate arena.
void ExpectedPointCoords(const uncertain::UncertainDataset& dataset,
                         const metric::EuclideanSpace& space, size_t i,
                         double* out) {
  const size_t dim = space.dim();
  std::fill(out, out + dim, 0.0);
  const metric::SiteId* sites = dataset.flat_sites().data();
  const double* probabilities = dataset.flat_probabilities().data();
  const size_t* offsets = dataset.offsets().data();
  for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
    const double* coords = space.coords(sites[l]);
    const double p = probabilities[l];
    for (size_t a = 0; a < dim; ++a) out[a] += coords[a] * p;
  }
}

// P̃_i for a Euclidean space, written into out[0..dim): the weighted
// geometric median. The location coordinates are gathered into flat
// scratch and fed to the allocation-free Weiszfeld core.
Status EuclideanOneCenterCoords(const uncertain::UncertainDataset& dataset,
                                const metric::EuclideanSpace& space, size_t i,
                                std::vector<double>* coords,
                                std::vector<double>* weights, double* out) {
  const size_t dim = space.dim();
  const uncertain::UncertainPointView p = dataset.point(i);
  coords->clear();
  coords->reserve(p.num_locations() * dim);
  for (metric::SiteId site : p.sites()) {
    const double* site_coords = space.coords(site);
    coords->insert(coords->end(), site_coords, site_coords + dim);
  }
  weights->assign(p.probabilities().begin(), p.probabilities().end());
  UKC_ASSIGN_OR_RETURN(
      solver::GeometricMedianResult median,
      solver::WeightedGeometricMedianFlat(coords->data(), p.num_locations(),
                                          dim, weights->data()));
  for (size_t a = 0; a < dim; ++a) out[a] = median.median[a];
  return Status::OK();
}

// P̃_i for a finite metric: argmin over candidate sites of the expected
// distance.
SiteId FiniteOneCenterSite(const uncertain::UncertainDataset& dataset, size_t i,
                           OneCenterCandidates candidates) {
  const metric::MetricSpace& space = dataset.space();
  const uncertain::UncertainPointView p = dataset.point(i);
  SiteId best = metric::kInvalidSite;
  double best_value = std::numeric_limits<double>::infinity();
  auto consider = [&](SiteId q) {
    const double value = p.ExpectedDistanceTo(space, q);
    if (value < best_value) {
      best_value = value;
      best = q;
    }
  };
  if (candidates == OneCenterCandidates::kAllSites) {
    for (SiteId q = 0; q < space.num_sites(); ++q) consider(q);
  } else {
    for (SiteId site : p.sites()) consider(site);
  }
  return best;
}

}  // namespace

Result<std::vector<SiteId>> BuildSurrogates(uncertain::UncertainDataset* dataset,
                                            const SurrogateOptions& options) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("BuildSurrogates: null dataset");
  }
  const size_t n = dataset->n();
  metric::EuclideanSpace* euclidean = dataset->euclidean();
  if (options.kind == SurrogateKind::kExpectedPoint && euclidean == nullptr) {
    return Status::FailedPrecondition(
        "expected-point surrogate requires a Euclidean space");
  }
  ScopedPool pool(options.pool, 1);

  // Euclidean surrogates are new points: compute every point's
  // coordinates in parallel (pure reads of the arena), then mint them
  // serially in point order — the arena may reallocate while growing,
  // so no reader can run concurrently with AddCoords. Serial minting
  // also keeps the produced site ids thread-count independent.
  const bool euclidean_coords =
      euclidean != nullptr && (options.kind == SurrogateKind::kExpectedPoint ||
                               options.kind == SurrogateKind::kOneCenter);
  if (euclidean_coords) {
    const size_t dim = euclidean->dim();
    std::vector<double> surrogate_coords(n * dim);
    std::vector<Status> statuses(n);
    // Weiszfeld gather scratch, one pair per worker, reused across all
    // of that worker's points.
    std::vector<std::vector<double>> coord_scratch(pool->num_threads());
    std::vector<std::vector<double>> weight_scratch(pool->num_threads());
    pool->ParallelFor(n, [&](int worker, size_t i) {
      double* out = surrogate_coords.data() + i * dim;
      if (options.kind == SurrogateKind::kExpectedPoint) {
        ExpectedPointCoords(*dataset, *euclidean, i, out);
      } else {
        statuses[i] = EuclideanOneCenterCoords(*dataset, *euclidean, i,
                                               &coord_scratch[worker],
                                               &weight_scratch[worker], out);
      }
    });
    for (Status& status : statuses) {
      if (!status.ok()) return std::move(status);
    }
    std::vector<SiteId> surrogates;
    surrogates.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      surrogates.push_back(
          euclidean->AddCoords(surrogate_coords.data() + i * dim));
    }
    return surrogates;
  }

  // Finite-metric / modal surrogates are existing sites: fully parallel.
  std::vector<SiteId> surrogates(n, metric::kInvalidSite);
  pool->ParallelFor(n, [&](int, size_t i) {
    switch (options.kind) {
      case SurrogateKind::kOneCenter:
        surrogates[i] = FiniteOneCenterSite(*dataset, i, options.candidates);
        break;
      case SurrogateKind::kModal:
        surrogates[i] = dataset->point(i).ModalLocation().site;
        break;
      case SurrogateKind::kExpectedPoint:
        break;  // Handled above.
    }
  });
  return surrogates;
}

Result<SiteId> ExpectedPointOneCenter(uncertain::UncertainDataset* dataset,
                                      size_t point_index) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("ExpectedPointOneCenter: null dataset");
  }
  if (point_index >= dataset->n()) {
    return Status::InvalidArgument("ExpectedPointOneCenter: index out of range");
  }
  metric::EuclideanSpace* space = dataset->euclidean();
  if (space == nullptr) {
    return Status::FailedPrecondition(
        "expected-point surrogate requires a Euclidean space");
  }
  std::vector<double> coords(space->dim());
  ExpectedPointCoords(*dataset, *space, point_index, coords.data());
  return space->AddCoords(coords.data());
}

}  // namespace core
}  // namespace ukc
