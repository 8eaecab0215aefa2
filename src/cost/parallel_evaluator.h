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
// in floating point, so every location's swapped distance is bitwise
// the one a full linear-path evaluation computes.
//
// Every call rebuilds its tables from scratch: d1 / d2 / owner, then
// the k base rows, then one presorted event stream with its sweep
// snapshots per position (ExpectedCostEvaluator::BuildSwapBase). Each
// candidate is scored against its position's tables with a full O(N)
// scan of the locations, the snapshot ladder and a tail replay
// (ExpectedCostEvaluator::UnassignedCostSwapPresorted). No table
// outlives the call it was built in, so nothing is keyed, stamped or
// invalidated across rounds; a different dataset or center set is just
// the next call. tests/incremental_sweep_test.cc asserts the matrices
// bitwise equal across thread counts and within rounding of a fresh
// linear-path UnassignedCost over multi-round trajectories.
//
// Certified screening. Given the incumbent cost a swap must beat, most
// swaps of a round are provably useless: max_i E[d(P̂_i, C′)] ≤
// E[max_i d(P̂_i, C′)], so one point whose expected swapped distance
// reaches the incumbent rules the swap out. Each position's build task
// therefore also collects its witnesses — the points whose expected
// distance to the "all centers but p" base reaches the screen
// threshold, sorted by descending sum (a swap only lowers distances, so
// no other point can reach it) — and a candidate first walks them,
// O(z) kernels per witness, stopping at the first that reaches. A
// proved swap comes back +inf and skips the scan, the ladder and the
// tail merge; every other entry is bitwise the unscreened value. The
// threshold is the incumbent raised by derived rounding terms (the
// bound sum's, the sweep's, the acceptance test's; cc file,
// ScreenThreshold), so +inf only ever replaces a value that
// core::LocalSearchUnassigned's acceptance margin would refuse, and its
// trajectory is bitwise the full matrix's. The skip set depends on
// (position, candidate, incumbent) only, never on the round's best so
// far, so it is pool-size invariant; the skips are counted in
// ukc_swap_screened_total. tests/swap_state_test.cc (SwapScreenTest)
// holds the parity.
//
// Memory: the k base rows and the k event streams are the O(k·N)
// state (SwapStateBytes); d1 / d2 / owner and the location → point map
// add O(N), and the witnesses one flat buffer of 16 bytes per witness
// (at most n per position).

#ifndef UKC_COST_PARALLEL_EVALUATOR_H_
#define UKC_COST_PARALLEL_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "cost/expected_cost_evaluator.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace cost {

/// The smallest relative gain core::LocalSearchUnassigned accepts: a
/// swap must lower the cost by at least kMinRelativeSwapGain·max(1,
/// cost). SwapCostMatrix's screen is certified against this margin.
inline constexpr double kMinRelativeSwapGain = 1e-12;

/// Scores local-search swaps (and caller-defined tasks) in parallel with
/// deterministic (thread-count independent) results. See file comment.
class ParallelCandidateEvaluator {
 public:
  struct Options {
    /// Size of the private pool built when `pool` is null; <= 0 means
    /// ThreadPool::HardwareThreads(). The library's one remaining
    /// worker-count knob: core/unassigned.cc passes 1, so a null pool
    /// runs inline there as everywhere else.
    int threads = 0;
    /// Borrowed shared worker pool; when set, `threads` is ignored and
    /// no private pool is constructed (see ScopedPool). The evaluator
    /// sizes one worker evaluator per pool thread.
    ThreadPool* pool = nullptr;
    /// Per-worker evaluator configuration.
    ExpectedCostEvaluator::Options evaluator;
  };

  /// Default options: hardware thread count, default evaluator config.
  ParallelCandidateEvaluator();
  explicit ParallelCandidateEvaluator(Options options);

  /// Unassigned cost of every one-center swap of `centers`:
  /// values[p * pool.size() + c] is the cost of centers with
  /// centers[p] replaced by pool[c]. Per position the base distances
  /// ("all centers but p") are built and presorted once; each candidate
  /// then costs O(N + m log m) via the merge-sweep
  /// (ExpectedCostEvaluator::UnassignedCostSwapPresorted) instead of a
  /// fresh O(N log N) evaluation. Values agree with a full linear-path
  /// evaluation of the swapped set to rounding (identical value order;
  /// tied events may apply in a different order) and are bitwise
  /// identical across thread counts.
  ///
  /// A finite `incumbent` (the cost a swap has to beat) turns on the
  /// certified screen: an entry is +inf when a lower bound proves the
  /// swap's computed value at least incumbent − ½·kMinRelativeSwapGain·
  /// max(1, incumbent), so an acceptance test with that margin can never
  /// take it; every other entry is bitwise the unscreened value. Which
  /// entries are +inf is a pure function of (position, candidate,
  /// incumbent), so the matrix stays bitwise pool-size invariant. The
  /// default +inf incumbent screens nothing: the full matrix. Resident
  /// state is k base rows and k sorted event streams of total_locations
  /// entries each, plus O(total_locations) and the witnesses
  /// (SwapStateBytes).
  Result<std::vector<double>> SwapCostMatrix(
      const uncertain::UncertainDataset& dataset,
      const std::vector<metric::SiteId>& centers,
      const std::vector<metric::SiteId>& pool,
      double incumbent = std::numeric_limits<double>::infinity());

  /// Resident bytes of the cached swap-base tables: the event streams,
  /// the resident rung CDFs and the escalation side tables. How often
  /// the ladder escalates is counted in the obs registry
  /// (ukc_ladder_escalations_total, ukc_ladder_replayed_events_total).
  /// No shipped code calls it: with SwapStateBytes it is the accessor
  /// behind swap_state_test's linear-memory bound.
  size_t SwapBaseMemoryBytes() const;
  /// Everything SwapCostMatrix keeps between calls: the base rows,
  /// d1 / d2 / owner, the location → point map, the screen's witness
  /// store and SwapBaseMemoryBytes (capacities, in bytes). No shipped
  /// code calls it: it is the accessor behind swap_state_test's
  /// linear-memory bound.
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
  /// That enumeration is its only user and has no caller outside the
  /// tests: the two are kept as the exact oracle of the local-search
  /// tests (unassigned_test, incremental_sweep_test, parallel_eval_test).
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

  // SwapCostMatrix buffers, rewritten by every call (kept only so the
  // next call reuses their capacity). Per location: the distance to its
  // nearest center (d1_), that center's position (owner_) and the
  // minimum over every other position (d2_; +inf when k = 1). Per
  // position: the "all centers but p" base row (d2 where owner == p,
  // else d1) and its presorted event stream with sweep snapshots.
  std::vector<double> d1_;
  std::vector<double> d2_;
  std::vector<uint32_t> owner_;
  std::vector<double> base_without_;      // k rows of total_locations.
  std::vector<ExpectedCostEvaluator::SwapBase> swap_bases_;
  std::vector<uint32_t> point_of_;        // Location → owning point.
  // The screen's witnesses, all positions in one buffer: position p's
  // are [witness_begin_[p], witness_begin_[p + 1]) (k + 1 entries; all
  // zero without an incumbent).
  std::vector<SwapWitness> witnesses_;
  std::vector<size_t> witness_begin_;
};

}  // namespace cost
}  // namespace ukc

#endif  // UKC_COST_PARALLEL_EVALUATOR_H_
