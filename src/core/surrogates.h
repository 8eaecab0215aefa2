// Surrogate construction — the heart of the paper's approach.
//
// Each uncertain point P_i is replaced by one *certain* point:
//   P̄_i  (expected point)      = Σ_j p_ij · P_ij          (Euclidean)
//   P̃_i  (single-point 1-center) = argmin_q E[d(P̂_i, q)]  (any metric)
// The deterministic k-center of the surrogates then drives all of the
// paper's approximation guarantees.
//
// Note P̃_i minimizes the *expected distance*: for a single uncertain
// point, Ecost(q) = Σ_j p_ij d(P_ij, q), so its "1-center" is its
// weighted 1-median (geometric median in Euclidean space; best site in
// a finite metric).

#ifndef UKC_CORE_SURROGATES_H_
#define UKC_CORE_SURROGATES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "uncertain/dataset.h"

namespace ukc {

class ThreadPool;

namespace core {

/// Which certain point stands in for each uncertain point.
enum class SurrogateKind {
  /// P̄_i, Euclidean only. O(z) per point (Theorem 2.1's object).
  kExpectedPoint,
  /// P̃_i. Euclidean: weighted geometric median via Weiszfeld.
  /// Finite metric: the site minimizing the expected distance.
  kOneCenter,
  /// The most-probable location (baseline; carries no guarantee).
  kModal,
};

/// Short stable name for reports.
std::string SurrogateKindToString(SurrogateKind kind);

/// How P̃ candidates are searched in a finite metric space.
enum class OneCenterCandidates {
  /// Every site of the space — the true minimizer, as the theorems
  /// assume. O(|X| z) per point.
  kAllSites,
  /// Only the point's own locations. 2-approximate minimizer (the
  /// median-to-vertex argument); weakens Lemma 3.5's constant from 3 to
  /// 4 but is z/|X| times cheaper. Exposed for the ablation bench.
  kOwnLocations,
};

/// Options for BuildSurrogates.
struct SurrogateOptions {
  SurrogateKind kind = SurrogateKind::kExpectedPoint;
  OneCenterCandidates candidates = OneCenterCandidates::kAllSites;
  /// Borrowed worker pool sharding the per-point surrogate computation;
  /// null runs it inline on the calling thread. Surrogates are computed
  /// in parallel but minted into the space serially in point order, so
  /// the produced site ids and coordinates do not depend on the pool.
  ThreadPool* pool = nullptr;
};

/// Computes one surrogate site per uncertain point. Euclidean surrogate
/// points (P̄, geometric medians) are minted into the dataset's space,
/// which therefore grows; finite-metric surrogates are existing sites.
Result<std::vector<metric::SiteId>> BuildSurrogates(
    uncertain::UncertainDataset* dataset, const SurrogateOptions& options);

/// Theorem 2.1: the expected point of any one uncertain point (the
/// first by convention) is a 2-approximate 1-center for the whole
/// instance. This helper returns that site (Euclidean only).
Result<metric::SiteId> ExpectedPointOneCenter(uncertain::UncertainDataset* dataset,
                                              size_t point_index = 0);

}  // namespace core
}  // namespace ukc

#endif  // UKC_CORE_SURROGATES_H_
