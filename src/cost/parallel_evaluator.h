// ParallelCandidateEvaluator: shards "evaluate the expected cost of
// many candidate solutions" over a persistent worker pool.
//
// ExpectedCostEvaluator is mutable scratch and must not be shared
// across threads; this class owns one evaluator per worker plus a
// common::ThreadPool and fans the one-center swaps of a local-search
// round (SwapCostMatrix) or caller-defined tasks (ForEachTask) out
// across them. Results are written by task index into a preallocated
// buffer, so the output order — and, because each candidate's
// evaluation is arithmetically identical no matter which worker runs
// it, every output bit — is independent of the thread count and of
// scheduling. threads = 1 degenerates to an inline serial loop.
//
// The swap API is the local-search fast path: evaluating the k·|pool|
// one-center swaps of a round naively costs O(k·|pool|·N·k); with the
// per-position "distance to the other k-1 centers" tables built here it
// is O(k·N·k + k·|pool|·N) — each swapped set costs one kernel distance
// per location instead of k. min() is exact in floating point, so the
// swap values are bitwise identical to full linear-path evaluations.
//
// On top of that, SwapCostMatrix is an *incremental engine* across
// local-search rounds (Euclidean datasets):
//   - Rollover: local search replaces one center per round, so of the k
//     per-center distance rows only the replaced one is recomputed; the
//     per-position base tables (prefix/suffix mins, presorted event
//     streams, sweep snapshots) are rebuilt only where the new row
//     actually changed them bitwise — the swapped position's own table
//     (which excludes the replaced center) always survives. Validity is
//     enforced, not assumed: the cached tables are keyed by a
//     fingerprint of the dataset's location data plus the exact center
//     coordinates, and every table carries an epoch that is CHECKed at
//     consultation time, so a stale table is a crash, never a wrong
//     answer. The tables roll over across center swaps only: a
//     dataset's points are fixed at Build, and any other dataset
//     misses the fingerprint and rebuilds every table.
//   - kd-pruned candidate scans: a BoundedKdTree over the *locations*
//     with per-position subtree bounds of the base distances lets each
//     candidate visit only the ~m locations it can possibly improve,
//     instead of all N (ExpectedCostEvaluator::UnassignedCostSwapPruned).
// Both paths are bitwise identical to the full rebuild + full O(N)
// scan, which remain available via Options::reference_swap_paths
// (asserted by tests/incremental_sweep_test.cc across thread counts,
// dimensions, and multi-round trajectories).

#ifndef UKC_COST_PARALLEL_EVALUATOR_H_
#define UKC_COST_PARALLEL_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "cost/expected_cost_evaluator.h"
#include "geometry/bounded_kdtree.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace cost {

/// Scores local-search swaps (and caller-defined tasks) in parallel with
/// deterministic (thread-count independent) results. See file comment.
class ParallelCandidateEvaluator {
 public:
  struct Options {
    /// Worker count; <= 0 means ThreadPool::HardwareThreads().
    int threads = 0;
    /// Borrowed shared worker pool; when set, `threads` is ignored and
    /// no private pool is constructed (see ScopedPool). The evaluator
    /// sizes one worker evaluator per pool thread.
    ThreadPool* pool = nullptr;
    /// Per-worker evaluator configuration.
    ExpectedCostEvaluator::Options evaluator;
    /// Score SwapCostMatrix through the reference paths: rebuild every
    /// base table on every call and scan all N locations per candidate.
    /// false (the default) rolls the tables over across calls and
    /// prunes each candidate's scan with the location kd-tree (Euclidean
    /// datasets only; bitwise identical either way). The gap is
    /// micro_bench BM_SwapSweepRebuildRounds vs BM_SwapSweepIncremental.
    bool reference_swap_paths = false;
  };

  /// Default options: hardware thread count, default evaluator config.
  ParallelCandidateEvaluator();
  explicit ParallelCandidateEvaluator(Options options);

  int threads() const { return pool_->num_threads(); }

  /// Exact unassigned cost of every one-center swap of `centers`:
  /// values[p * pool.size() + c] is the cost of centers with
  /// centers[p] replaced by pool[c]. Per position the base distances
  /// ("all centers but p") are built and presorted once; each candidate
  /// then costs O(N + m log m) via the merge-sweep
  /// (ExpectedCostEvaluator::UnassignedCostSwapPresorted) instead of a
  /// fresh O(N log N) evaluation. Values agree with a full linear-path
  /// evaluation of the swapped set to rounding (identical value order;
  /// tied events may apply in a different order) and are bitwise
  /// identical across thread counts. Scratch is O(k · total_locations).
  Result<std::vector<double>> SwapCostMatrix(
      const uncertain::UncertainDataset& dataset,
      const std::vector<metric::SiteId>& centers,
      const std::vector<metric::SiteId>& pool);

  /// Observability for the compacted snapshot ladder: SwapLadderBytes
  /// is the resident snapshot-CDF bytes across the cached swap-base
  /// tables (the storage the compaction shrinks); SwapBaseMemoryBytes
  /// adds the event streams and escalation side tables on top. How
  /// often the ladder escalates is counted in the obs registry
  /// (ukc_ladder_escalations_total, ukc_ladder_replayed_events_total).
  size_t SwapLadderBytes() const;
  size_t SwapBaseMemoryBytes() const;

  /// Generic sharding hook: runs fn(evaluator, task) for every task in
  /// [0, count) over the worker pool, handing each invocation the
  /// calling worker's private ExpectedCostEvaluator. Statuses are
  /// collected per task and the first error in *task order* is
  /// returned, so error reporting is thread-count independent. fn must
  /// make each task a pure function of its index (write results by
  /// index, reduce afterwards in fixed order) — this is how
  /// core::ExactUnassignedTiny shards subset enumeration itself via
  /// ranked unranking instead of feeding a serially enumerated batch.
  Status ForEachTask(size_t count,
                     const std::function<Status(ExpectedCostEvaluator&, size_t)>& fn);

 private:
  // Runs fn(worker, index) over [0, count) on the pool, collecting one
  // Status per index; returns the first error in index order.
  template <typename Fn>
  Status RunTasks(size_t count, const Fn& fn);

  Options options_;
  ScopedPool pool_;  // Owns a private pool unless Options::pool is set.
  // One per worker; vector never reallocates after construction (the
  // evaluator is pinned by its atomic owner mark).
  std::vector<ExpectedCostEvaluator> evaluators_;
  // Last ReserveScratch sizing handed to the evaluators (dataset
  // header: points, total locations); re-issued only when it grows.
  size_t reserved_points_ = 0;
  size_t reserved_locations_ = 0;

  // SwapCostMatrix scratch, reused across rounds: per-center distance
  // rows, the per-position "all centers but p" base tables, their
  // presorted event streams, and the location → point map.
  std::vector<double> center_distances_;  // k rows of total_locations.
  std::vector<double> suffix_min_;        // Rolling suffix mins.
  std::vector<double> base_without_;      // k rows of total_locations.
  std::vector<ExpectedCostEvaluator::SwapBase> swap_bases_;
  std::vector<uint32_t> point_of_;        // Location → owning point.

  // Incremental-rollover state. The cached rows/tables describe the
  // instance identified by swap_fingerprint_ (a content hash of the
  // dataset's location data — NOT the dataset's address, which a
  // rebuilt dataset could reuse) evaluated at cached_centers_ with the
  // exact coordinates in cached_center_coords_; anything that fails to
  // match is rebuilt. swap_epoch_ advances every SwapCostMatrix call
  // and every table's epoch must equal it at consultation (CHECK).
  uint64_t swap_epoch_ = 0;
  std::optional<uint64_t> swap_fingerprint_;
  std::vector<metric::SiteId> cached_centers_;
  std::vector<double> cached_center_coords_;  // k rows of dim.
  std::vector<double> base_prev_;             // Last round's base_without_.
  bool base_prev_valid_ = false;

  // kd-pruned scan state: the location tree (rebuilt only when the
  // fingerprint changes) and per-position subtree maxima of the base
  // distances (k rows of total_locations slots, refreshed with the
  // corresponding swap base).
  std::optional<geometry::BoundedKdTree> location_tree_;
  std::vector<double> node_base_max_;
};

}  // namespace cost
}  // namespace ukc

#endif  // UKC_COST_PARALLEL_EVALUATOR_H_
