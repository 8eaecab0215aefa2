// A mergeable weighted coreset for uncertain k-center over expected-
// point surrogates — the summary object of the out-of-core ingestion
// layer.
//
// Each uncertain point P_i is summarized by its expected point P̄_i
// (the paper's Euclidean surrogate, core/surrogates.h) plus a
// dispersion scalar spread_i = max_j d(P_ij, P̄_i). The coreset is a
// doubling *grid* cover over these summaries: at level L every point
// falls into the axis-aligned cell of width base_cell_width·2^L that
// contains P̄_i, and all points of a cell collapse into one weighted
// cell record. When the number of occupied cells exceeds max_cells the
// level is doubled (cells merge pairwise per axis) until it fits.
//
// Why a grid cover instead of a greedy Gonzalez cover: cell membership
// is a pure function of the coordinates — it does not depend on the
// order points arrive, on how the stream was chunked, or on which
// shard processed which chunk. Combined with cell aggregates that are
// all commutative and exact (integer count, min of indices, max of
// spreads, representative owned by the minimum-index member), the
// extracted coreset is BITWISE identical for every (threads, shards,
// chunk size) configuration; a greedy cover cannot offer that, because
// its cell set depends on insertion order. Integer cell keys are
// computed once at the base level and coarsened by exact arithmetic
// shifts, so a point inserted directly at level L lands in exactly the
// cell its level-0 key coarsens into.
//
// Approximation contract (any norm; diameter() is the cell diameter at
// the final level): for every point i with cell representative r_i and
// any center set C,
//
//   | E[d(P̂_i, C)] − d(r_i, C) | <= diameter() + spread_i,
//
// because d(P̄_i, r_i) <= diameter() (same cell) and
// |E[d(P̂_i, C)] − d(P̄_i, C)| <= E[d(P̂_i, P̄_i)] <= spread_i (norm
// convexity, the paper's Lemma 3.1 direction). Hence solving k-center
// on the cell representatives with an α-approximate certain solver is
// within α·OPT + (α+1)·error_bound() of the full-data optimum.

#ifndef UKC_STREAM_CORESET_H_
#define UKC_STREAM_CORESET_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "metric/euclidean_space.h"

namespace ukc {
namespace stream {

/// Configuration of the doubling-grid coreset.
struct CoresetOptions {
  /// Target number of cells: the level doubles while more cells than
  /// this are occupied. (In dimensions where one doubling cannot go
  /// below 2^dim cells, the level cap wins and the target may be
  /// exceeded; irrelevant for the d <= 8 instances this repo runs.)
  size_t max_cells = 1024;
  /// Width of a level-0 grid cell. Coordinates must satisfy
  /// |x| / base_cell_width < 2^44 or Add fails (the cap keeps the
  /// floating-point cell assignment within the diameter() slack); the
  /// default supports coordinate magnitudes up to ~1.7e4 — raise the
  /// width for larger domains.
  double base_cell_width = 1e-9;
  /// Churn mode (0 = off). Stream indices are grouped into buckets of
  /// this many consecutive indices ([b·B, (b+1)·B)), and every cell
  /// keeps its aggregates per bucket as well as folded. Whole buckets
  /// retire deterministically via ExpireBefore — the sliding-window
  /// primitive — because the cell refold over the surviving buckets is
  /// exact and order-independent, just like the folds themselves.
  uint64_t churn_bucket = 0;
  /// Keep per-member records {index, spread, coords} inside each
  /// bucket so Remove can re-fold the non-invertible aggregates
  /// (min_index, representative, max_spread) exactly after deleting a
  /// single point. Requires churn_bucket > 0. Memory becomes O(live
  /// points) instead of O(max_cells); expiry-only windows do not need
  /// it (bucket retirement is self-contained).
  bool track_members = false;
};

/// Folds `options` into a configuration fingerprint: max_cells, the
/// bytes of base_cell_width, churn_bucket, then track_members. Shared by
/// the ingest checkpoint and the serving snapshot gates, so both refuse
/// a coreset image built under different cell or churn settings.
uint64_t HashCoresetOptions(uint64_t hash, const CoresetOptions& options);

/// The mergeable streaming summary. See file comment for invariants.
class StreamingCoreset {
 public:
  /// One extracted coreset cell.
  struct Cell {
    /// Smallest stream index among the members (the deterministic owner
    /// of the representative).
    uint64_t min_index = 0;
    /// Number of member uncertain points (the cell's weight; exact).
    uint64_t count = 0;
    /// max over members of spread_i.
    double max_spread = 0.0;
    /// Expected-point coordinates of the min_index member (dim values).
    std::vector<double> representative;
  };

  StreamingCoreset(size_t dim, metric::Norm norm, CoresetOptions options);

  /// Absorbs one summarized uncertain point. `expected_coords` has
  /// dim() entries; `spread` = max location distance to the expected
  /// point. Indices must be unique across the stream but may arrive in
  /// any order. In churn mode an index whose bucket already retired is
  /// rejected (it could never be expired again deterministically).
  Status Add(uint64_t index, const double* expected_coords, double spread);

  /// Exact single-point delete (churn mode with track_members only):
  /// removes the member added as (index, expected_coords, spread) and
  /// re-folds its bucket and cell, leaving the coreset bitwise equal
  /// to one whose surviving points were added at this level (see
  /// CoarsenTo for matching levels — the level itself stays monotone).
  /// kNotFound when no such member exists; kInvalidArgument when a
  /// member with that index exists but coords/spread disagree (caller
  /// replayed the wrong point — removing it anyway would corrupt the
  /// aggregates silently).
  Status Remove(uint64_t index, const double* expected_coords, double spread);

  /// Sliding-window expiry (churn mode only): retires every bucket
  /// that lies entirely below `min_live_index`, i.e. buckets with id
  /// < min_live_index / churn_bucket. Idempotent and monotone — the
  /// watermark never moves backwards — and a pure function of the
  /// largest watermark ever applied, so any schedule of calls with the
  /// same final watermark leaves bitwise-identical state. Points with
  /// index >= min_live_index are always retained; older points linger
  /// until their whole bucket ages out (at most churn_bucket - 1 of
  /// them). Returns the number of points retired.
  Result<uint64_t> ExpireBefore(uint64_t min_live_index);

  /// Coarsens the grid to `level` (>= level(); error above the level
  /// cap). Deletes make levels history-dependent — an incremental
  /// coreset may sit at a higher level than a fresh rebuild of its
  /// surviving points — so parity checks coarsen both sides to the max
  /// of the two levels before comparing.
  Status CoarsenTo(int level);

  /// Merges another shard's coreset into this one (same dim / norm /
  /// base_cell_width / max_cells / churn configuration required).
  /// Associative and commutative up to bitwise equality of the
  /// extracted cells; in churn mode the merged watermark is the max of
  /// the two (shard pipelines apply expiry only after the final merge,
  /// so shards normally carry watermark 0).
  Status MergeFrom(const StreamingCoreset& other);

  size_t dim() const { return dim_; }
  metric::Norm norm() const { return norm_; }
  int level() const { return level_; }
  size_t num_cells() const { return cells_.size(); }
  uint64_t num_points() const { return num_points_; }

  /// Current cell width (base_cell_width · 2^level).
  double cell_width() const;
  /// Upper bound on the distance between any two points of one cell
  /// under the configured norm (includes a 1e-2 relative slack that
  /// rigorously absorbs the floating-point cell assignment under the
  /// 2^44 key-magnitude cap).
  double diameter() const;
  /// max over cells of max_spread (0 when empty).
  double max_spread() const;
  /// diameter() + max_spread(): the additive error of evaluating any
  /// center set on representatives instead of the full data.
  double error_bound() const;

  /// Resident bytes of the cell table (representatives included) —
  /// bounded by max_cells, never by the number of points ingested.
  size_t ApproxMemoryBytes() const;

  /// The cells sorted by min_index (a deterministic, configuration-
  /// independent order).
  std::vector<Cell> ExtractCells() const;

  /// The representatives alone, in ExtractCells' order, as one flat
  /// row-major num_cells() × dim() array written to *out (resized;
  /// its capacity is reused across calls). Bitwise equal to the
  /// concatenated ExtractCells().representative vectors, without a
  /// per-cell allocation — the input of SolveOnCells
  /// (stream/pipeline.h).
  void ExtractRepresentatives(std::vector<double>* out) const;

  /// Appends a self-contained binary image (config, level, cells) to
  /// *out. Cells are written in min_index order, so equal coresets
  /// serialize to equal bytes regardless of hash-table iteration
  /// order. Host-endian raw values: a checkpoint is a crash-recovery
  /// artifact of one machine, not a portable interchange format.
  void SerializeTo(std::string* out) const;

  /// Rebuilds a coreset from bytes written by SerializeTo. The span
  /// must be consumed exactly; truncation, trailing bytes, or any
  /// out-of-range field is an error (the checkpoint layer treats every
  /// such error as "checkpoint unusable, re-ingest"). So is any record
  /// SerializeTo could not have written: cells out of min_index order
  /// or over capacity, a stored point outside its cell's grid key, a
  /// negative or non-finite spread, churn aggregates that are not the
  /// fold of their buckets and members.
  static Result<StreamingCoreset> Deserialize(std::string_view bytes);

 private:
  // Churn mode only: one member record inside a bucket, enough to
  // re-fold the bucket exactly after a single-point delete.
  struct Member {
    uint64_t index = 0;
    double spread = 0.0;
    std::vector<double> coords;
  };
  // Churn mode only: the cell's aggregates restricted to one index
  // bucket. Same commutative exact folds as the cell itself; members
  // (track_members) stay sorted by index, so the refold is a pure
  // function of the member set.
  struct BucketState {
    uint64_t min_index = 0;
    uint64_t count = 0;
    double max_spread = 0.0;
    std::vector<double> representative;
    std::vector<Member> members;
  };
  struct CellState {
    uint64_t min_index = 0;
    uint64_t count = 0;
    double max_spread = 0.0;
    std::vector<double> representative;
    // Ordered by bucket id: refolds and serialization walk buckets in
    // a deterministic order, and expiry retires a prefix.
    std::map<uint64_t, BucketState> buckets;
  };
  using Key = std::vector<int64_t>;
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  using CellMap = std::unordered_map<Key, CellState, KeyHash>;

  // Folds `state` into the cell at `key` (commutative, exact).
  static void Absorb(CellMap* cells, Key key, CellState state);
  // Folds one bucket's aggregates into another (commutative, exact).
  static void MergeBucket(BucketState* into, BucketState from);
  // Recomputes the cell's top-level aggregates from its buckets.
  static void RefoldCell(CellState* cell);
  // Recomputes a bucket's aggregates from its (sorted) members.
  static void RefoldBucket(BucketState* bucket);
  // Writes the point's current-level grid key into key_scratch_.
  Status ComputeKey(const double* expected_coords);
  // Rebuilds the table with every key shifted to `level` (> level_).
  void CoarsenToLevel(int level);
  // Doubles the level until the cell target (or the level cap) is met.
  void ReduceToCapacity();
  // The cell table in min_index order: the one walk ExtractCells,
  // ExtractRepresentatives and SerializeTo share. min_index is unique
  // (one owner point per cell), so the order never depends on the
  // hash table's iteration order. The key sits next to the pointer, so
  // the sort never chases the table's nodes.
  struct OrderedCell {
    uint64_t min_index;
    const CellMap::value_type* entry;
  };
  std::vector<OrderedCell> OrderedCells() const;

  bool churn() const { return options_.churn_bucket > 0; }

  size_t dim_;
  metric::Norm norm_;
  CoresetOptions options_;
  int level_ = 0;
  uint64_t num_points_ = 0;
  // Churn mode: buckets below this id have retired; Add rejects
  // indices that land under it, which keeps expiry monotone.
  uint64_t watermark_bucket_ = 0;
  CellMap cells_;
  Key key_scratch_;
};

}  // namespace stream
}  // namespace ukc

#endif  // UKC_STREAM_CORESET_H_
