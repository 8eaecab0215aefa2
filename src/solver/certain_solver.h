// Pluggable deterministic k-center solver — the "(1+eps)-approximation
// algorithm for the k-center problem of certain points" slot in every
// theorem of the paper. The uncertain pipeline (core/) is parameterized
// by this dispatcher, so each Table-1 row can plug in Gonzalez (factor
// 2, rows with O(nz + n log k) running time) or a stronger solver.

#ifndef UKC_SOLVER_CERTAIN_SOLVER_H_
#define UKC_SOLVER_CERTAIN_SOLVER_H_

#include <string>

#include "common/result.h"
#include "metric/metric_space.h"
#include "solver/types.h"

namespace ukc {

class ThreadPool;

namespace solver {

/// Available deterministic k-center algorithms.
enum class CertainSolverKind {
  /// Farthest-first traversal; factor 2; O(nk).
  kGonzalez,
  /// Threshold binary search; factor 2 (discrete); O(n^2 log n).
  kHochbaumShmoys,
  /// Gonzalez seed + alternating minimum-enclosing-ball refinement;
  /// factor 2 guaranteed, near-optimal in practice.
  kGonzalezRefined,
  /// Exact: subset enumeration over the sites (general metric) or
  /// partition enumeration with exact enclosing balls (Euclidean).
  /// Factor 1; tiny instances only.
  kExact,
  /// Grid-discretized (1+eps)-approximation (Euclidean only, small k):
  /// the paper's "(1+eps) algorithm for certain points" slot, usable
  /// beyond tiny instances. Factor 1 + epsilon.
  kGridEpsilon,
};

/// Returns a short stable name for a solver kind.
std::string CertainSolverKindToString(CertainSolverKind kind);

/// Options for SolveCertainKCenter.
struct CertainSolverOptions {
  CertainSolverKind kind = CertainSolverKind::kGonzalez;
  uint64_t seed = 11;
  /// Target eps for kGridEpsilon.
  double epsilon = 0.25;
  /// Borrowed worker pool, forwarded to the solvers that parallelize
  /// (currently kGonzalezRefined's refinement rounds); null runs them
  /// inline on the calling thread. The solution does not depend on the
  /// pool.
  ThreadPool* pool = nullptr;
};

/// Runs the selected algorithm on `sites` within `space`. The space is
/// non-const because Euclidean solvers mint constructed centers as new
/// sites. The returned approx_factor states the guarantee:
///  * kExact on a Euclidean space: 1 vs the continuous optimum;
///  * kExact on a finite metric: 1 vs the discrete optimum, which in a
///    finite space *is* the optimum;
///  * others: 2 vs the continuous optimum.
Result<KCenterSolution> SolveCertainKCenter(
    metric::MetricSpace* space, const std::vector<metric::SiteId>& sites,
    size_t k, const CertainSolverOptions& options = {});

}  // namespace solver
}  // namespace ukc

#endif  // UKC_SOLVER_CERTAIN_SOLVER_H_
