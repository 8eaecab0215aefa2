// Comparator algorithms for the benchmark suite.
//
// None of these carries the paper's guarantees; they are the strawmen a
// practitioner would try first, plus a simplified stand-in for the
// Guha–Munagala [14] approach the paper improves on (their exact
// LP-based algorithm is specified for finite metrics with oracle
// access; we reproduce its *spirit* — cluster robust per-point
// summaries that ignore low-probability tails — as a same-API
// comparator; see DESIGN.md §4).

#ifndef UKC_BASELINES_BASELINES_H_
#define UKC_BASELINES_BASELINES_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "cost/assignment.h"
#include "uncertain/dataset.h"

namespace ukc {

class ThreadPool;

namespace baselines {

/// Which baseline to run.
enum class BaselineKind {
  /// Gonzalez over the pooled multiset of all locations (uncertainty
  /// ignored entirely), ED assignment.
  kPooledLocations,
  /// Each point collapsed to its most probable location, Gonzalez,
  /// nearest-modal assignment.
  kModalLocation,
  /// k locations drawn uniformly at random as centers, ED assignment.
  kRandomCenters,
  /// Guha–Munagala-style: truncate each distribution to its
  /// highest-probability core (dropping a tail of mass at most 0.25),
  /// take the truncated 1-median as surrogate, Gonzalez, ED assignment.
  kTruncatedMedian,
};

std::string BaselineKindToString(BaselineKind kind);

/// Options for RunBaseline.
struct BaselineOptions {
  size_t k = 1;
  uint64_t seed = 5;
  /// Borrowed worker pool sharding the per-point surrogate computation
  /// and the ED assignment; null runs them inline on the calling
  /// thread. Results do not depend on the pool.
  ThreadPool* pool = nullptr;
};

/// A baseline's output, mirroring the core pipeline's essentials.
struct BaselineResult {
  std::string name;
  std::vector<metric::SiteId> centers;
  cost::Assignment assignment;
  /// Exact assigned expected cost.
  double expected_cost = 0.0;
};

/// Runs the selected baseline. The dataset's space may grow (surrogate
/// minting), exactly as with the core pipeline.
Result<BaselineResult> RunBaseline(uncertain::UncertainDataset* dataset,
                                   BaselineKind kind,
                                   const BaselineOptions& options);

}  // namespace baselines
}  // namespace ukc

#endif  // UKC_BASELINES_BASELINES_H_
