// StreamingUncertainKCenter: the out-of-core facade.
//
//   1. Ingest  — stream the input (file / dataset / producer) through
//      the sharded coreset build (stream/ingest.h): O(max_cells)
//      resident state, one pass.
//   2. Solve   — SolveOnCells on the flat cell representatives: they
//      are certain points, and cell weights do not enter the max
//      objective, so the instance is the unweighted representative set
//      and its expected cost is the classical k-center radius.
//   3. Verify  — one more parallel pass over the full stream: every
//      point is ED-assigned to its nearest-in-expectation center and
//      its exact distance CDF is folded into a fixed-point log-product
//      grid, yielding a rigorous bracket [verified_lower,
//      verified_upper] of the TRUE exact expected assigned cost
//      E[max_i d(P̂_i, A(i))] in O(verify_buckets) memory.
//
// Determinism: the coreset is bitwise partition-invariant
// (stream/coreset.h), the solve consumes only the extracted cells (a
// deterministic order), and the verification grid is accumulated with
// exact commutative integer arithmetic — so centers, coreset cost, and
// the verified bracket are bitwise identical for every (threads,
// shards, chunk size) configuration.
//
// Why a bracket instead of the exact sweep: the exact evaluator
// (cost/expected_cost.h) sorts one event per location — O(n z) memory,
// exactly what an out-of-core pipeline cannot hold. The grid exploits
// log Π_i F_i(t) = Σ_i log F_i(t): each point's step-function log-CDF
// is range-added into the grid in fixed point (floor and ceil
// quantizations kept separately), so the product under- and
// over-estimates bracket the integrand rigorously and the integral
// error is O(grid_top / verify_buckets) plus the 2^-24 quantization.
// SolveDataset additionally reports the exact evaluator cost
// (verified_exact), which the bracket provably contains.

#ifndef UKC_STREAM_PIPELINE_H_
#define UKC_STREAM_PIPELINE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "metric/euclidean_space.h"
#include "solver/certain_solver.h"
#include "stream/ingest.h"

namespace ukc {
namespace stream {

/// Configuration of the streaming facade.
struct StreamingOptions {
  /// Number of centers.
  size_t k = 1;
  /// Chunking / sharding / coreset knobs.
  IngestOptions ingest;
  /// Deterministic solver run on the coreset representatives.
  solver::CertainSolverOptions certain;
  /// Borrowed worker pool for ingest, solve and verify; null runs them
  /// inline on the calling thread (the ingest reader thread still
  /// prefetches). The solution is bitwise independent of the pool.
  ThreadPool* pool = nullptr;
  /// Grid resolution of the verification bracket; the bracket width is
  /// about grid_top / verify_buckets.
  size_t verify_buckets = 4096;
};

/// Output of one streaming run.
struct StreamingSolution {
  /// Centers the certain solver returned: at most min(requested k,
  /// coreset cells), fewer when the solver stops early
  /// (Hochbaum–Shmoys can).
  size_t k = 0;
  size_t dim = 0;
  /// The chosen centers, row-major k × dim coordinates. (Site ids are
  /// meaningless across passes — the full data is never materialized —
  /// so centers are reported as coordinates.)
  std::vector<double> center_coords;

  /// Coreset summary.
  size_t coreset_cells = 0;
  int coreset_level = 0;
  double coreset_diameter = 0.0;
  double coreset_max_spread = 0.0;
  /// diameter + max spread: the additive evaluation error of the
  /// coreset (stream/coreset.h contract).
  double coreset_error_bound = 0.0;
  /// Resident bytes of the coreset cell table (independent of n).
  size_t coreset_memory_bytes = 0;
  /// Expected cost of center_coords on the coreset representatives
  /// (SolveOnCells' cost), and the certain solver's covering radius.
  double coreset_cost = 0.0;
  double coreset_radius = 0.0;

  /// Rigorous bracket of the exact expected assigned cost of
  /// center_coords on the full stream.
  double verified_lower = std::nan("");
  double verified_upper = std::nan("");
  /// max_i E[d(P̂_i, A(i))] — the exact max-of-expectations lower
  /// bound, a free by-product of the verification pass.
  double max_expected_distance = std::nan("");
  /// Exact evaluator cost; only SolveDataset fills this (it needs the
  /// materialized dataset). Always inside [verified_lower,
  /// verified_upper].
  double verified_exact = std::nan("");

  IngestStats ingest_stats;

  struct Timings {
    double ingest_seconds = 0.0;
    double solve_seconds = 0.0;
    double verify_seconds = 0.0;
    double TotalSeconds() const {
      return ingest_seconds + solve_seconds + verify_seconds;
    }
  } timings;
};

/// max over the n points of the distance to the nearest of the k
/// centers (both row-major, dim doubles each) under `norm`; 0 when
/// n == 0. A fixed-order scan with strict comparisons, so the result is
/// bitwise reproducible. The deadline is checked before every 256th
/// point, starting with the first.
Result<double> MaxNearestDistance(const double* points, size_t n,
                                  const double* centers, size_t k, size_t dim,
                                  metric::Norm norm, const Deadline& deadline);

/// Output of SolveOnCells.
struct CellSolution {
  /// Centers the solver returned: at most min(requested k, n), fewer
  /// when the solver stops early (Hochbaum–Shmoys can).
  size_t k = 0;
  /// The centers, row-major k × dim coordinates.
  std::vector<double> center_coords;
  /// Expected cost on the representatives: for certain points every
  /// realization is the same, so it is the classical k-center radius
  /// MaxNearestDistance(reps, center_coords).
  double cost = 0.0;
  /// The certain solver's own covering radius.
  double certain_radius = 0.0;
};

/// Solves k-center on n certain points (`reps`, row-major n × dim) —
/// the coreset instance both the streaming facade and serve's centers
/// query solve. Runs `options`' certain solver on the points directly:
/// no surrogate is minted, and only a solver that parallelizes itself
/// (gonzalez-refined) uses options.pool. Bitwise equal to
/// core::SolveUncertainKCenter with the ED rule on the same points as
/// a certain dataset: centers are emitted as x + 0.0, exactly the
/// expected-point surrogate of a one-location point (0.0 + x · 1.0),
/// so -0.0 coordinates answer alike. The deadline is checked at entry,
/// before clustering and through the cost scan (MaxNearestDistance).
Result<CellSolution> SolveOnCells(const double* reps, size_t n, size_t dim,
                                  metric::Norm norm, size_t k,
                                  const solver::CertainSolverOptions& options,
                                  const Deadline& deadline);

/// The facade. Thread-compatible: one Solve* call at a time.
class StreamingUncertainKCenter {
 public:
  explicit StreamingUncertainKCenter(StreamingOptions options)
      : options_(std::move(options)) {}

  /// Solves a re-startable stream of known dimension. The factory is
  /// invoked once for the ingest pass and once more for the
  /// verification pass. With options.ingest.checkpoint set, the ingest
  /// pass checkpoints and resumes through the replay-verify path (see
  /// stream/ingest.h AdaptBatchFactory).
  Result<StreamingSolution> SolveSource(size_t dim,
                                        const BatchSourceFactory& factory);

  /// Solves a dataset file (uncertain/io.h format) through the chunked
  /// reader; the file is read twice and never materialized. With
  /// options.ingest.checkpoint set, a resumed ingest seeks straight to
  /// the checkpointed byte offset.
  Result<StreamingSolution> SolveFile(const std::string& path);

  /// Solves an in-memory dataset through the same chunked path, then
  /// additionally reports the exact evaluator cost (verified_exact).
  /// The dataset's space grows: the chosen centers are minted into it
  /// for the exact evaluation.
  Result<StreamingSolution> SolveDataset(uncertain::UncertainDataset* dataset);

 private:
  Result<StreamingSolution> Solve(size_t dim,
                                  const ResumableSourceFactory& factory);

  StreamingOptions options_;
};

}  // namespace stream
}  // namespace ukc

#endif  // UKC_STREAM_PIPELINE_H_
