#include "solver/certain_solver.h"

#include "metric/euclidean_space.h"
#include "solver/brute_force.h"
#include "solver/gonzalez.h"
#include "solver/hochbaum_shmoys.h"
#include "solver/grid_kcenter.h"
#include "solver/partition_exact.h"
#include "solver/refine.h"

namespace ukc {
namespace solver {

std::string CertainSolverKindToString(CertainSolverKind kind) {
  switch (kind) {
    case CertainSolverKind::kGonzalez:
      return "gonzalez";
    case CertainSolverKind::kHochbaumShmoys:
      return "hochbaum-shmoys";
    case CertainSolverKind::kGonzalezRefined:
      return "gonzalez-refined";
    case CertainSolverKind::kExact:
      return "exact";
    case CertainSolverKind::kGridEpsilon:
      return "grid-epsilon";
  }
  return "?";
}

Result<KCenterSolution> SolveCertainKCenter(
    metric::MetricSpace* space, const std::vector<metric::SiteId>& sites,
    size_t k, const CertainSolverOptions& options) {
  if (space == nullptr) {
    return Status::InvalidArgument("SolveCertainKCenter: null space");
  }
  switch (options.kind) {
    case CertainSolverKind::kGonzalez:
      return Gonzalez(*space, sites, k);
    case CertainSolverKind::kHochbaumShmoys: {
      UKC_ASSIGN_OR_RETURN(ThresholdSolution threshold,
                           HochbaumShmoys(*space, sites, k));
      return threshold.solution;
    }
    case CertainSolverKind::kGonzalezRefined: {
      UKC_ASSIGN_OR_RETURN(KCenterSolution seed, Gonzalez(*space, sites, k));
      RefineOptions refine_options;
      refine_options.seed = options.seed;
      refine_options.pool = options.pool;
      return RefineKCenter(space, sites, seed, refine_options);
    }
    case CertainSolverKind::kExact: {
      auto* euclidean = dynamic_cast<metric::EuclideanSpace*>(space);
      if (euclidean != nullptr) {
        std::vector<geometry::Point> points;
        points.reserve(sites.size());
        for (metric::SiteId s : sites) points.push_back(euclidean->point(s));
        PartitionExactOptions exact_options;
        exact_options.seed = options.seed;
        UKC_ASSIGN_OR_RETURN(ContinuousKCenterSolution continuous,
                             ExactPartitionKCenter(points, k, exact_options));
        KCenterSolution solution;
        solution.algorithm = "exact-partition";
        solution.approx_factor = 1.0;
        solution.radius = continuous.radius;
        solution.centers.reserve(continuous.centers.size());
        for (auto& center : continuous.centers) {
          solution.centers.push_back(euclidean->AddPoint(std::move(center)));
        }
        return solution;
      }
      return ExactDiscreteKCenter(*space, sites, sites, k);
    }
    case CertainSolverKind::kGridEpsilon: {
      auto* euclidean = dynamic_cast<metric::EuclideanSpace*>(space);
      if (euclidean == nullptr) {
        return Status::InvalidArgument(
            "SolveCertainKCenter: kGridEpsilon requires a Euclidean space");
      }
      std::vector<geometry::Point> points;
      points.reserve(sites.size());
      for (metric::SiteId s : sites) points.push_back(euclidean->point(s));
      GridKCenterOptions grid_options;
      grid_options.eps = options.epsilon;
      UKC_ASSIGN_OR_RETURN(ContinuousKCenterSolution continuous,
                           GridKCenter(points, k, grid_options));
      KCenterSolution solution;
      solution.algorithm = "grid-epsilon";
      solution.approx_factor = 1.0 + options.epsilon;
      solution.radius = continuous.radius;
      solution.centers.reserve(continuous.centers.size());
      for (auto& center : continuous.centers) {
        solution.centers.push_back(euclidean->AddPoint(std::move(center)));
      }
      return solution;
    }
  }
  return Status::Internal("SolveCertainKCenter: unknown solver kind");
}

}  // namespace solver
}  // namespace ukc
