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
// one-center swaps of a round naively costs O(k·|pool|·N·k). Here every
// location's nearest center (distance d1, position owner) and the
// minimum over every other position (d2) are computed once per call,
// O(k·N) kernels, and position p's "all centers but p" base distance is
// d2 where owner == p and d1 elsewhere — the closest / second-closest
// bookkeeping of Whitaker's fast interchange. Each swapped set then
// costs one kernel distance per location instead of k. min() is exact
// in floating point, so the swap values are bitwise identical to full
// linear-path evaluations.
//
// On top of that, SwapCostMatrix is an *incremental engine* across
// local-search rounds (Euclidean datasets):
//   - Rollover: each position's base row is rewritten in place from
//     d1 / d2 / owner and diffed against last round's as it is
//     written. A bitwise-unchanged row keeps its presorted event
//     stream and sweep snapshots; a row with at most N/8 changed
//     locations patches its stream with just those locations; any
//     other row rebuilds it (counted in ukc_swap_tables_total). On a
//     one-swap round the swapped position's own row — the only one
//     excluding the replaced center — always survives. Validity is
//     enforced, not assumed: the cached tables are keyed by a
//     fingerprint of the dataset's location data, and every table
//     carries an epoch that is CHECKed at consultation time, so a stale
//     table is a crash, never a wrong answer. The tables roll over
//     across center swaps only: a dataset's points are fixed at Build,
//     and any other dataset misses the fingerprint and rebuilds every
//     table.
//   - kd-pruned candidate scans: a BoundedKdTree over the *locations*
//     with per-position subtree bounds of the base distances lets each
//     candidate visit only the ~m locations it can possibly improve,
//     instead of all N (ExpectedCostEvaluator::UnassignedCostSwapPruned).
// Both paths are bitwise identical to the full rebuild + full O(N)
// scan, which remain available via Options::reference_swap_paths
// (asserted by tests/incremental_sweep_test.cc across thread counts,
// dimensions, and multi-round trajectories).
//
// Memory: the k base rows, the k bound rows and the k event streams
// are the O(k·N) state (SwapStateBytes); d1 / d2 / owner and the
// location → point map add O(N).

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
  /// identical across thread counts. Resident state is k base rows, k
  /// kd bound rows and k sorted event streams of total_locations
  /// entries each, plus O(total_locations) (SwapStateBytes).
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
  /// Everything SwapCostMatrix keeps between calls: the base and kd
  /// bound rows, d1 / d2 / owner, the location → point map and
  /// SwapBaseMemoryBytes (capacities, in bytes).
  size_t SwapStateBytes() const;

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

  // SwapCostMatrix state, reused across rounds. Per location: the
  // distance to its nearest center (d1_), that center's position
  // (owner_) and the minimum over every other position (d2_; +inf when
  // k = 1), recomputed every call. Per position: the "all centers but
  // p" base row (d2 where owner == p, else d1) and its presorted event
  // stream with sweep snapshots.
  std::vector<double> d1_;
  std::vector<double> d2_;
  std::vector<uint32_t> owner_;
  std::vector<double> base_without_;      // k rows of total_locations.
  std::vector<ExpectedCostEvaluator::SwapBase> swap_bases_;
  std::vector<uint32_t> point_of_;        // Location → owning point.
  // Per worker: the locations whose base value changed while one row
  // was rewritten (at most total_locations / 8, the patch limit).
  std::vector<std::vector<uint32_t>> changed_locations_;

  // Incremental-rollover state. The rows/tables describe the instance
  // identified by swap_fingerprint_ (a content hash of the dataset's
  // location data — NOT the dataset's address, which a rebuilt dataset
  // could reuse); a fingerprint miss rebuilds everything. tables_valid_
  // says the last call completed, so every base row matches its table.
  // swap_epoch_ advances every SwapCostMatrix call and every table's
  // epoch must equal it at consultation (CHECK).
  uint64_t swap_epoch_ = 0;
  std::optional<uint64_t> swap_fingerprint_;
  bool tables_valid_ = false;

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
