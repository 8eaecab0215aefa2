// ExpectedCostEvaluator: the reusable engine behind every expected-cost
// evaluation (the paper's EcostA / Ecost objectives).
//
// The objectives reduce to E[max_i X_i] over independent discrete
// variables, computed exactly in O(N log N) by sweeping the value axis
// (see expected_cost.h for the math). Evaluating one candidate solution
// is cheap; pipelines evaluate thousands (local search tries every
// center swap, benches score whole families), and the naive free
// functions used to pay for that with fresh allocations per call:
// per-point distribution vectors, the event buffer, the per-variable CDF
// array, and a kd-tree rebuilt from boxed points on every unassigned
// call.
//
// The evaluator owns all of that state and amortizes it across calls:
//   - one flat event buffer (value, variable, probability) reused by
//     every evaluation — distances are written straight into it by
//     streaming the dataset's flat site/probability arrays against the
//     EuclideanSpace coordinate arena, no per-location indirection;
//   - the per-variable CDF array for the sweep;
//   - a kd-tree over the current center set, cached and only rebuilt
//     when the centers actually change;
//   - the per-location distance table + alias samplers for Monte-Carlo
//     estimation (serial; every draw comes from the caller's Rng).
//
// Worked example — scoring many candidate center sets:
//
//   cost::ExpectedCostEvaluator evaluator;           // reusable scratch
//   for (const auto& centers : candidate_center_sets) {
//     UKC_ASSIGN_OR_RETURN(double value,
//                          evaluator.UnassignedCost(dataset, centers));
//     if (value < best) { best = value; best_centers = centers; }
//   }
//
// The evaluator is cheap to construct but only pays off when reused; the
// free functions in expected_cost.h delegate to a thread-local instance,
// so one-off callers get the fast path too. An evaluator must not be
// shared across threads concurrently (it is mutable scratch); create one
// per thread instead — cost::ParallelCandidateEvaluator does exactly
// that to shard swap candidates (and ForEachTask jobs) over a worker
// pool. The contract is enforced: every public evaluation entry point
// checks (via an atomic owner mark) that no second thread is inside the
// same instance and aborts with a CHECK failure on violation.

#ifndef UKC_COST_EXPECTED_COST_EVALUATOR_H_
#define UKC_COST_EXPECTED_COST_EVALUATOR_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cost/assignment.h"
#include "geometry/kdtree.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace cost {

/// One random variable's support: (value, probability) pairs. Values
/// need not be sorted or distinct; probabilities must be positive and
/// sum to 1 per variable.
using DiscreteDistribution = std::vector<std::pair<double, double>>;

/// Center-set size at which the unassigned-cost evaluation switches
/// from the linear center scan to a kd-tree over the centers (L2 only):
/// the smallest k from which bench/micro_bench.cc BM_UnassignedCostKdTree
/// beats BM_UnassignedCostLinear at n = 4000 and n = 1e5 (2-d clustered,
/// z = 4; BENCH_micro.json medians, linear vs tree): k = 64 3.93 vs 4.03
/// and 143.7 vs 134.3 ms, k = 96 5.90 vs 4.72 and 189.3 vs 129.1 ms,
/// k = 128 8.67 vs 5.28 and 222.2 vs 139.5 ms.
inline constexpr size_t kDefaultKdTreeCutover = 96;

/// A Monte-Carlo estimate with its standard error.
struct MonteCarloEstimate {
  double mean = 0.0;
  double std_error = 0.0;
  int64_t samples = 0;
};

/// Reusable exact/Monte-Carlo expected-cost engine. See file comment.
class ExpectedCostEvaluator {
 public:
  /// An atom of probability mass: variable `index` takes `value` with
  /// probability `probability`. `location` carries the flat location id
  /// for the swap path (0 where unused). Public because
  /// ParallelCandidateEvaluator shares presorted event streams.
  struct Event {
    double value;
    uint32_t index;
    uint32_t location;
    double probability;
  };

  struct Options {
    /// Centers >= this use the kd-tree path (Euclidean L2 spaces only).
    size_t kdtree_cutover = kDefaultKdTreeCutover;
    /// Ignored: every exact evaluation runs the serial sort-sweep. Kept
    /// only so the end-to-end benchmark, which still sets it, compiles;
    /// delete it together with that assignment.
    ThreadPool* sweep_pool = nullptr;
    /// Cancellation/budget token checked once per evaluation entry
    /// (per candidate on the swap paths — coarse on purpose, so
    /// the unexpired cost is one relaxed atomic load per candidate).
    /// The default token never expires. On expiry the evaluation
    /// returns kDeadlineExceeded; the evaluator's scratch is reusable
    /// by construction (every evaluation rewrites it from scratch), so
    /// no cleanup beyond returning is needed.
    Deadline deadline;
  };

  ExpectedCostEvaluator() = default;
  explicit ExpectedCostEvaluator(Options options) : options_(options) {}

  const Options& options() const { return options_; }
  void set_options(Options options) { options_ = options; }

  /// Exact assigned expected cost EcostA for the given assignment
  /// (assignment[i] = serving center site of point i).
  Result<double> AssignedCost(const uncertain::UncertainDataset& dataset,
                              const Assignment& assignment);

  /// Exact unassigned expected cost Ecost for the given centers.
  Result<double> UnassignedCost(const uncertain::UncertainDataset& dataset,
                                const std::vector<metric::SiteId>& centers);

  /// Pre-reserves the swap-path scratch (radix ping-pong buffer, CDFs,
  /// candidate collections, ladder workspace) for a dataset with `n`
  /// points and `total_locations` locations (the dataset header), so
  /// repeated SwapCostMatrix rounds never reallocate mid-trajectory.
  /// The scalar evaluations' event buffer is not reserved: the swap
  /// path never touches it. Also arms the no-shrink contract: once
  /// reserved, every subsequent swap-base build CHECKs that the scratch
  /// capacity has not dropped below the reservation.
  void ReserveScratch(size_t n, size_t total_locations);

  /// The armed reservation (events), 0 when ReserveScratch was never
  /// called.
  size_t reserved_scratch() const { return scratch_reservation_; }

  /// Precomputed read-only tables for the presorted swap path: the base
  /// event stream sorted by (value, location), plus a LADDER of sweep
  /// snapshots. A snapshot at threshold T is a valid merge start for a
  /// candidate as long as no mass can be emitted below T in the swapped
  /// configuration — i.e. as long as some point's first CDF-positive
  /// value stays >= T. Relative to such a snapshot, an improved
  /// location with both its old and new distance below T merely moves
  /// CDF mass the snapshot already accounts for, so a candidate only
  /// replays (a) its improvements of locations with base distance >= T
  /// and (b) the base event tail above T.
  ///
  /// The ladder's rung 0 sits at the second-largest per-point minimum
  /// base distance (valid unless a candidate improves every flagged
  /// bottleneck point — the common case, with a tiny ~O(m) replay); the
  /// deeper rungs descend through upper quantiles of the per-point
  /// minima down to the median. A candidate that kills rung 0 (it
  /// covers the current bottleneck region — exactly the improving swaps
  /// local search hunts) escalates: one gated re-collection computes
  /// each deep point's improved service, lower-bounding the new
  /// emission start, and the highest still-valid rung scores it with a
  /// partial replay. Only a candidate that improves essentially half
  /// the points below the median rung pays the full merge.
  /// Depth justified by wall_s@solve: 2 and 3 rungs ran slower (ROADMAP 4(a)).
  static constexpr size_t kSwapLadderRungs = 7;

  struct SwapBase {
    /// One rung: the sweep state just below `threshold`. Only rung 0
    /// and the deepest rung keep their `cdf` resident (2n instead of
    /// kSwapLadderRungs·n doubles per table); an intermediate rung's
    /// `cdf` is empty and is re-derived on demand from the deepest rung
    /// by replaying events[deepest.index, index) — the product state
    /// (zeros, mantissa, exponent) stays stored, it is O(1).
    struct Snapshot {
      double threshold = 0.0;
      size_t index = 0;  // First event with value >= threshold.
      size_t zeros = 0;
      double mantissa = 1.0;
      int exponent = 0;
      std::vector<double> cdf;  // Per-point CDF of events < threshold.
    };

    std::vector<Event> events;  // Sorted by (value, location).
    /// Rungs in decreasing threshold order: [0] the second-largest
    /// per-point min, then descending quantiles of the per-point
    /// minima, ending at the median.
    Snapshot levels[kSwapLadderRungs];
    std::vector<uint8_t> bottleneck;  // Point's min base >= levels[0].
    size_t bottleneck_count = 0;      // Number of flagged points.
    /// Points whose min base distance >= the deepest rung's threshold
    /// (the escalation pass re-derives their service from these), with
    /// the minima themselves parallel in deep_first.
    std::vector<uint32_t> deep_points;
    std::vector<double> deep_first;
    /// Collection gate of the fast path == levels[0].threshold.
    double threshold = 0.0;
    /// Process-unique id stamped by every BuildSwapBase — the
    /// derived-rung cache keys on it, so a table rebuilt at a reused
    /// address (ParallelCandidateEvaluator rebuilds every table on
    /// every SwapCostMatrix call) can never serve a stale derivation.
    uint64_t build_id = 0;
  };

  /// Builds the presorted base tables for UnassignedCostSwapPresorted
  /// from base_distances[l] (distance of flat location l to the
  /// unchanged centers) and point_of[l]. The stream is radix-sorted in
  /// place in out->events (this evaluator's radix scratch is the
  /// ping-pong buffer); the result is shareable read-only across
  /// threads.
  Status BuildSwapBase(const uncertain::UncertainDataset& dataset,
                       std::span<const double> base_distances,
                       std::span<const uint32_t> point_of, SwapBase* out);

  /// Exact unassigned cost of a one-center swap — location l's distance
  /// to the swapped set is min(base_distances[l], d(l, extra)) — scored
  /// against tables built once by BuildSwapBase and shared across many
  /// candidates. A candidate's events below the threshold merely shift
  /// CDF mass that the snapshot already accounts for, so the call costs
  /// one kernel distance per location plus a replay of the tail —
  /// unless the candidate improves a bottleneck point below the
  /// threshold (rare), which falls back to a full merge-sweep. Agrees
  /// with a full evaluation of the swapped center set to rounding
  /// (~1 ulp per event: identical value-axis order; only
  /// tied/below-threshold events may apply in a different order); the
  /// result is a pure function of the inputs, so it is identical no
  /// matter which thread or evaluator runs it.
  Result<double> UnassignedCostSwapPresorted(
      const uncertain::UncertainDataset& dataset,
      std::span<const double> base_distances, const SwapBase& base,
      std::span<const uint32_t> point_of, metric::SiteId extra);

  /// Exact E[max_i X_i] for independent discrete X_i. O(N log N) in the
  /// total support size N. Reuses the evaluator's event/CDF scratch.
  double ExpectedMaxOfIndependent(
      std::span<const DiscreteDistribution> distributions);

  /// Monte-Carlo estimators (alias-table sampling over a precomputed
  /// per-location distance table; serial, all draws from `rng`).
  Result<MonteCarloEstimate> MonteCarloAssignedCost(
      const uncertain::UncertainDataset& dataset, const Assignment& assignment,
      int64_t samples, Rng& rng);
  Result<MonteCarloEstimate> MonteCarloUnassignedCost(
      const uncertain::UncertainDataset& dataset,
      const std::vector<metric::SiteId>& centers, int64_t samples, Rng& rng);

 private:
  // RAII enforcement of the one-thread-at-a-time contract: marks the
  // evaluator owned by the calling thread for the duration of a public
  // evaluation, CHECK-failing if another thread already holds it.
  // Nested entries from the owning thread are depth-counted, so one
  // public entry point may call another (none currently does).
  class ScratchGuard {
   public:
    explicit ScratchGuard(ExpectedCostEvaluator* evaluator);
    ~ScratchGuard();

   private:
    ExpectedCostEvaluator* evaluator_;
  };

  // Validates centers and fills events_ with one (distance, point,
  // probability) atom per location.
  Status FillUnassignedEvents(const uncertain::UncertainDataset& dataset,
                              const std::vector<metric::SiteId>& centers);

  // Sorts *events (events_ or a swap base's stream) ascending by
  // (value, location): LSD radix over the order-preserving bit
  // transform of the key for large inputs (the sweep's former
  // std::sort bottleneck), with events_scratch_ as the ping-pong
  // buffer; std::sort below the cutover. Returns the buffer holding
  // the sorted events: *events, or events_scratch_ after an odd number
  // of radix scatters. Every event fill writes ascending locations, so
  // the stable radix and the tie-spelled std::sort produce the same
  // permutation.
  const std::vector<Event>& SortEventsByValue(std::vector<Event>* events);

  // The no-shrink tripwire armed by ReserveScratch: a swap-base build
  // whose scratch capacity dropped below the reservation means
  // something deallocated mid-trajectory — crash, don't churn.
  void CheckScratchReservation() const;

  // Sorts events_ and runs the value-axis sweep for `num_variables`
  // variables (resets cdf_).
  double SweepEvents(size_t num_variables);

  // Resets changed_ and advances the stamp masks for a new candidate's
  // collection pass.
  void BeginChangedCollection(const uncertain::UncertainDataset& dataset);

  // The escalation pass after level 0 is invalidated: one gated
  // re-collection at the deepest rung's threshold, a lower bound on the
  // candidate's new emission start from the deep points' improved
  // service, and the highest still-valid rung as the scoring level —
  // or nullptr when only the full merge remains (in which case
  // changed_ is re-collected in full: every improved location, no
  // threshold gate).
  const SwapBase::Snapshot* EscalateAndCollect(
      const uncertain::UncertainDataset& dataset, const SwapBase& base,
      std::span<const uint32_t> point_of,
      std::span<const double> base_distances, metric::SiteId extra);

  // Scores a swap from the collected changed_ set: the replay against
  // ladder rung `level`, or — when level is nullptr — the full
  // merge-from-scratch over the complete improved set. changed_ must
  // be in ascending location order and stamped into changed_stamp_.
  Result<double> ScoreSwapFromChanged(const uncertain::UncertainDataset& dataset,
                                      const SwapBase& base,
                                      std::span<const uint32_t> point_of,
                                      std::span<const double> base_distances,
                                      const SwapBase::Snapshot* level);

  // Merge-sweeps base.events[a_begin..) (entries stamped in
  // changed_stamp_ skipped) against `changed` (ascending (value, l)),
  // starting from the given sweep state. cdf_ must already hold the
  // matching per-point CDFs. Counts the events it walks in
  // ukc_swap_tail_events_total.
  double MergeSweepFrom(const uncertain::UncertainDataset& dataset,
                        const SwapBase& base, size_t a_begin,
                        std::span<const std::pair<double, uint32_t>> changed,
                        std::span<const uint32_t> point_of, size_t zeros,
                        double mantissa, int exponent);

  // Fills distance_table_ with distance(site) for every flat location,
  // in flat-array order (one shared target set; per-point targets are
  // filled inline by MonteCarloAssignedCost instead).
  template <typename DistanceOfLocation>
  void FillDistanceTable(const uncertain::UncertainDataset& dataset,
                         DistanceOfLocation distance);

  // Runs the Monte-Carlo loop over the filled distance table.
  Result<MonteCarloEstimate> MonteCarloOverTable(
      const uncertain::UncertainDataset& dataset, int64_t samples, Rng& rng);

  Options options_;

  // Concurrent-reuse detection (see ScratchGuard). The owner id is the
  // thread currently evaluating; depth_ counts its nested entries.
  std::atomic<std::thread::id> owner_{std::thread::id()};
  int owner_depth_ = 0;

  // Exact-sweep scratch. events_ backs the scalar evaluations only;
  // swap bases sort in their own stream.
  std::vector<Event> events_;
  std::vector<Event> events_scratch_;   // Radix-sort ping-pong buffer.
  std::vector<uint32_t> radix_counts_;  // Radix-sort histograms.
  std::vector<double> cdf_;

  // Scratch reservation high-water (events); 0 = never reserved. Swap
  // base builds CHECK capacity never drops below it (no reallocation
  // churn mid-trajectory).
  size_t scratch_reservation_ = 0;
  size_t scratch_reservation_points_ = 0;

  // Derived-rung cache for the compacted ladder: the last intermediate
  // CDF reconstructed from the deepest rung, keyed by (table build id,
  // rung). Candidates of one round that escalate to the same rung of
  // the same table pay the O(prefix) replay once per evaluator instead
  // of once per candidate. A stale key can never alias a live table:
  // SwapBase::build_id is process-unique per build, no matter which
  // evaluator built the table.
  std::vector<double> derived_cdf_;
  uint64_t derived_build_id_ = 0;
  int derived_level_ = -1;

  // Presorted-swap scratch: the candidate's improved locations (cut
  // down in place to the subset participating in the tail merge), and
  // version-stamped membership masks — per location, and per point for
  // the bottleneck-hit count (avoids an O(N) clear per call).
  std::vector<std::pair<double, uint32_t>> changed_;
  std::vector<uint32_t> changed_stamp_;
  std::vector<uint32_t> point_stamp_;
  std::vector<double> point_min_;  // Stamped per-point improved minimum.
  uint32_t stamp_ = 0;

  // BuildSwapBase scratch: per-point minima and their order-statistic
  // workspace (one table per position per round — no per-call
  // allocations).
  std::vector<double> swap_first_;
  std::vector<double> swap_order_;

  // Gathered center coordinates for flat linear scans.
  std::vector<double> center_coords_;

  // kd-tree cache, keyed by the gathered center *coordinates* (content,
  // not identity: a space pointer + site ids could alias a destroyed
  // dataset's, but equal coordinates always build the same tree).
  std::vector<double> tree_coords_;
  size_t tree_dim_ = 0;
  std::optional<geometry::KdTree> tree_;

  // Monte-Carlo scratch: distance_table_[l] = distance of flat location
  // l to its target (assigned center / center set); the dataset's
  // offsets array delimits the points.
  std::vector<double> distance_table_;
};

/// A point the certified swap screen (cost/parallel_evaluator.h) may
/// prove a swap with: `base_sum` is its expected distance to the "all
/// centers but p" base set, Σ_l prob_l·base_l in location order.
struct SwapWitness {
  double base_sum;
  uint32_t point;
};

/// True when some witness point i has Σ_{l ∈ i} prob_l·x_l >= threshold,
/// summed in location order, where x_l = min(base_distances[l],
/// d(l, extra)) is taken with UnassignedCostSwapPresorted's own
/// comparison — so every x_l is bitwise the event value that call's
/// sweep applies. Walks `witnesses` in order and stops at the first one
/// that reaches; the answer does not depend on the order.
bool AnyWitnessReaches(const uncertain::UncertainDataset& dataset,
                       std::span<const double> base_distances,
                       std::span<const SwapWitness> witnesses,
                       metric::SiteId extra, double threshold);

}  // namespace cost
}  // namespace ukc

#endif  // UKC_COST_EXPECTED_COST_EVALUATOR_H_
