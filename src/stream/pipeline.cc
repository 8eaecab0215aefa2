#include "stream/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "cost/assignment.h"
#include "cost/expected_cost_evaluator.h"
#include "obs/trace.h"
#include "uncertain/io.h"

namespace ukc {
namespace stream {

namespace {

// Fixed-point scale of the log-CDF grid: 24 fractional bits keep the
// per-point quantization at 2^-24 nats while bounding the grid sums by
// ~64 · 2^24 · n — overflow-free for any realistic stream (n < ~8e9).
constexpr double kLogScale = 16777216.0;  // 2^24
constexpr double kInvLogScale = 1.0 / kLogScale;
// log F below this is folded into the zero counter (floor grid) or
// clamped (ceil grid): e^-64 is far below the double-sum resolution of
// the integrand.
constexpr double kLogClamp = -64.0;

// Relative slack of the certified verify grid top
//   T = (coreset_cost + diameter + 2 · max_spread) · (1 + slack).
// Exactly: let a point have locations x_l, normalised mean P̄ (a convex
// combination of them), computed expected point q, spread
// s = max_l |x_l − q| and cell representative r, and let c be its ED
// center and c' the center nearest r. Then
//   |x_l − c| <= |x_l − q| + |q − P̄| + |P̄ − c|
//             <= s + η + E|x − c'|          (Jensen, c is the ED argmin)
//             <= 2s + η + |q − r| + |r − c'|,
// with |q − r| under the diameter, |r − c'| under the coreset cost and
// η = |q − P̄| the rounding of the mean. In floating point, with
// u = 2^-53 and γ_m = m·u / (1 − m·u): every distance kernel (L2: d
// subtractions, d squares, d − 1 additions, a square root; L1 and L∞
// fewer) is within γ_{d+2} relative of the distance of its inputs
// (no overflow in the ValidateCoordinates domain; underflow only adds
// an absolute error below 1e-160), which affects the compared distance,
// the spread and the cost; the ED comparison rounds each expectation
// (z terms) by γ_{d+z+2}; and T itself rounds four times (two
// additions, the product and this constant). Together these are at
// most (4d + 2z + 12)·u relative, below 1e-9 for d and z < 2^20.
// η is absolute: per axis it is at most (γ_z + |1 − 1/Σp|) times the
// largest coordinate magnitude. The diameter absorbs it while that
// stays under what its 1e-2 slack keeps spare beyond the cell keys'
// own rounding (StreamingCoreset::diameter): 0.6% of a cell width at
// the 2^44 key cap, 0.8% for coordinates under 2^43 cell widths — with
// probabilities summing exactly to 1, any z <= 8 there. Past that
// (many locations at the key cap, or probabilities that use the 1e-9
// sum tolerance far from the origin) T is not certified, and
// VerifyPass refuses the run rather than return a bracket that misses
// the mass above T.
constexpr double kGridTopRelativeSlack = 1e-9;

// Per-worker accumulator of the verification pass. Every field merges
// commutatively and exactly (integer adds, double max), so the reduced
// grid does not depend on which worker saw which point.
struct VerifyGrid {
  std::vector<int64_t> s_floor;  // Range-add diff of floor-quantized logs.
  std::vector<int64_t> s_ceil;   // Same, ceil-quantized.
  std::vector<int64_t> z_floor;  // Diff of "product is zero" counters.
  std::vector<int64_t> z_ceil;
  double max_expected = 0.0;
  double max_location = 0.0;
  uint64_t points = 0;

  explicit VerifyGrid(size_t buckets)
      : s_floor(buckets + 2, 0),
        s_ceil(buckets + 2, 0),
        z_floor(buckets + 2, 0),
        z_ceil(buckets + 2, 0) {}

  void MergeFrom(const VerifyGrid& other) {
    for (size_t b = 0; b < s_floor.size(); ++b) {
      s_floor[b] += other.s_floor[b];
      s_ceil[b] += other.s_ceil[b];
      z_floor[b] += other.z_floor[b];
      z_ceil[b] += other.z_ceil[b];
    }
    max_expected = std::max(max_expected, other.max_expected);
    max_location = std::max(max_location, other.max_location);
    points += other.points;
  }
};

struct VerifyOutcome {
  double lower = 0.0;
  double upper = 0.0;
  double max_expected = 0.0;
  uint64_t points = 0;
};

// Folds one point of `batch` into `grid`: ED-assigns it to the nearest
// center in expectation, then range-adds its distance-CDF log onto the
// grid. `scratch` holds (distance, location) sort pairs.
void AccumulatePoint(const uncertain::UncertainPointBatch& batch, size_t i,
                     const std::vector<double>& center_coords, size_t k,
                     double grid_top, size_t buckets, VerifyGrid* grid,
                     std::vector<std::pair<double, size_t>>* scratch) {
  const size_t dim = batch.dim;
  const metric::Norm norm = batch.norm;
  const size_t begin = batch.offsets[i];
  const size_t end = batch.offsets[i + 1];

  // ED rule, bit-matching cost::AssignExpectedDistance: per-center
  // expected distance accumulated in location order, strict < argmin.
  size_t best = 0;
  double best_value = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < k; ++c) {
    const double* center = center_coords.data() + c * dim;
    double value = 0.0;
    for (size_t l = begin; l < end; ++l) {
      value += batch.probabilities[l] *
               metric::NormDistanceKernel(norm, batch.location_coords(l),
                                          center, dim);
    }
    if (value < best_value) {
      best_value = value;
      best = c;
    }
  }
  grid->max_expected = std::max(grid->max_expected, best_value);
  grid->points += 1;

  // Distances to the assigned center, sorted ascending ((d, l) pairs:
  // a strict total order, so ties cannot reorder across runs).
  const double* assigned = center_coords.data() + best * dim;
  scratch->clear();
  for (size_t l = begin; l < end; ++l) {
    const double d = metric::NormDistanceKernel(
        norm, batch.location_coords(l), assigned, dim);
    grid->max_location = std::max(grid->max_location, d);
    scratch->emplace_back(d, l);
  }
  std::sort(scratch->begin(), scratch->end());

  if (grid_top <= 0.0) return;  // Degenerate stream: every distance 0.
  const double dt = grid_top / static_cast<double>(buckets);

  // The point's CDF F(t) is a step function with one step per
  // location; on grid indices [seg_begin, seg_end) its value is the
  // cumulative probability so far. log F is range-added in fixed
  // point; F = 0 and log F < kLogClamp regions go to the zero
  // counters (floor grid) / the clamp (ceil grid), keeping
  //   G_floor <= Π F_i <= G_ceil
  // pointwise.
  auto bucket_of = [&](double d) -> size_t {
    if (d <= 0.0) return 0;
    const double b = std::ceil(d / dt);
    if (b >= static_cast<double>(buckets)) return buckets;
    return static_cast<size_t>(b);
  };
  // F = 0 before the first location's distance.
  const size_t first = bucket_of((*scratch)[0].first);
  if (first > 0) {
    grid->z_floor[0] += 1;
    grid->z_floor[first] -= 1;
    grid->z_ceil[0] += 1;
    grid->z_ceil[first] -= 1;
  }
  double cumulative = 0.0;
  const size_t z = scratch->size();
  for (size_t m = 0; m < z; ++m) {
    cumulative += batch.probabilities[(*scratch)[m].second];
    if (m + 1 == z) break;  // Final segment: F = 1 exactly, log = 0.
    const size_t seg_begin = bucket_of((*scratch)[m].first);
    const size_t seg_end = bucket_of((*scratch)[m + 1].first);
    if (seg_begin >= seg_end) continue;
    const double lf = std::min(std::log(cumulative), 0.0);
    if (lf < kLogClamp) {
      grid->z_floor[seg_begin] += 1;
      grid->z_floor[seg_end] -= 1;
      const int64_t qc = static_cast<int64_t>(kLogClamp * kLogScale);
      grid->s_ceil[seg_begin] += qc;
      grid->s_ceil[seg_end] -= qc;
    } else {
      const int64_t qf = static_cast<int64_t>(std::floor(lf * kLogScale));
      const int64_t qc = static_cast<int64_t>(std::ceil(lf * kLogScale));
      grid->s_floor[seg_begin] += qf;
      grid->s_floor[seg_end] -= qf;
      grid->s_ceil[seg_begin] += qc;
      grid->s_ceil[seg_end] -= qc;
    }
  }
}

// Integrates the reduced grid into the [lower, upper] bracket:
//   upper uses the left bucket endpoint of the underestimated product,
//   lower the right endpoint of the overestimated product — both sides
//   of Ecost = ∫ (1 − Π_i F_i(t)) dt for the monotone integrand.
VerifyOutcome IntegrateGrid(const VerifyGrid& grid, double grid_top,
                            size_t buckets) {
  VerifyOutcome outcome;
  outcome.max_expected = grid.max_expected;
  outcome.points = grid.points;
  if (grid_top <= 0.0) return outcome;
  const double dt = grid_top / static_cast<double>(buckets);
  int64_t sf = 0, sc = 0, zf = 0, zc = 0;
  double lower = 0.0, upper = 0.0;
  for (size_t b = 0; b <= buckets; ++b) {
    sf += grid.s_floor[b];
    sc += grid.s_ceil[b];
    zf += grid.z_floor[b];
    zc += grid.z_ceil[b];
    const double g_floor =
        zf > 0 ? 0.0 : std::exp(static_cast<double>(sf) * kInvLogScale);
    const double g_ceil =
        zc > 0 ? 0.0 : std::exp(static_cast<double>(sc) * kInvLogScale);
    if (b < buckets) upper += dt * (1.0 - g_floor);
    if (b > 0) lower += dt * (1.0 - g_ceil);
  }
  outcome.lower = lower;
  outcome.upper = upper;
  return outcome;
}

// The verification pass: drains a fresh source, sharding each batch's
// points over the pool (inline when null) into per-worker grids, then
// reduces and integrates.
Result<VerifyOutcome> VerifyPass(size_t dim, metric::Norm norm,
                                 const BatchSource& source,
                                 const std::vector<double>& center_coords,
                                 size_t k, double grid_top, size_t buckets,
                                 ThreadPool* shared_pool) {
  UKC_OBS_SPAN("stream.verify");
  ScopedPool pool(shared_pool, 1);
  std::vector<VerifyGrid> grids(pool->num_threads(), VerifyGrid(buckets));
  std::vector<std::vector<std::pair<double, size_t>>> scratch(
      pool->num_threads());
  uncertain::UncertainPointBatch batch;
  while (true) {
    UKC_ASSIGN_OR_RETURN(bool more, source(&batch));
    if (!more) break;
    UKC_RETURN_IF_ERROR(ValidateBatch(batch, dim));
    if (batch.norm != norm) {
      return Status::InvalidArgument(
          "VerifyPass: batch norm differs from the ingested stream's");
    }
    pool->ParallelFor(batch.n(), [&](int worker, size_t i) {
      AccumulatePoint(batch, i, center_coords, k, grid_top, buckets,
                      &grids[worker], &scratch[worker]);
    });
  }
  for (size_t w = 1; w < grids.size(); ++w) grids[0].MergeFrom(grids[w]);
  if (grids[0].max_location > grid_top) {
    return Status::Internal(
        StrFormat("VerifyPass: location distance %.17g exceeds the certified "
                  "grid top %.17g — coreset bound violated",
                  grids[0].max_location, grid_top));
  }
  return IntegrateGrid(grids[0], grid_top, buckets);
}

}  // namespace

Result<double> MaxNearestDistance(const double* points, size_t n,
                                  const double* centers, size_t k, size_t dim,
                                  metric::Norm norm, const Deadline& deadline) {
  double cost = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if ((i & 255u) == 0u) {
      UKC_RETURN_IF_ERROR(deadline.Check("MaxNearestDistance"));
    }
    const double* point = points + i * dim;
    double nearest = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      const double d =
          metric::NormDistanceKernel(norm, point, centers + c * dim, dim);
      if (d < nearest) nearest = d;
    }
    if (nearest > cost) cost = nearest;
  }
  return cost;
}

Result<CellSolution> SolveOnCells(const double* reps, size_t n, size_t dim,
                                  metric::Norm norm, size_t k,
                                  const solver::CertainSolverOptions& options,
                                  const Deadline& deadline) {
  UKC_RETURN_IF_ERROR(deadline.Check("SolveOnCells"));
  if (n == 0 || dim == 0) {
    return Status::InvalidArgument(
        "SolveOnCells: need at least one representative of dim >= 1");
  }
  if (k == 0) return Status::InvalidArgument("SolveOnCells: k must be >= 1");
  metric::EuclideanSpace space(dim, norm);
  std::vector<metric::SiteId> sites(n);
  for (size_t i = 0; i < n; ++i) sites[i] = space.AddCoords(reps + i * dim);

  UKC_RETURN_IF_ERROR(deadline.Check("SolveOnCells[cluster]"));
  UKC_ASSIGN_OR_RETURN(solver::KCenterSolution certain,
                       solver::SolveCertainKCenter(&space, sites, k, options));
  CellSolution solution;
  solution.k = certain.centers.size();
  solution.certain_radius = certain.radius;
  solution.center_coords.resize(solution.k * dim);
  for (size_t c = 0; c < solution.k; ++c) {
    const double* coords = space.coords(certain.centers[c]);
    for (size_t a = 0; a < dim; ++a) {
      solution.center_coords[c * dim + a] = coords[a] + 0.0;
    }
  }
  UKC_ASSIGN_OR_RETURN(
      solution.cost,
      MaxNearestDistance(reps, n, solution.center_coords.data(), solution.k,
                         dim, norm, deadline));
  return solution;
}

Result<StreamingSolution> StreamingUncertainKCenter::SolveSource(
    size_t dim, const BatchSourceFactory& factory) {
  return Solve(dim, AdaptBatchFactory(factory));
}

Result<StreamingSolution> StreamingUncertainKCenter::SolveFile(
    const std::string& path) {
  // Open once up front for the header (dimension + early validation);
  // each pass then opens the file afresh. The probe closes first, so
  // its read block is not held through the passes.
  size_t dim = 0;
  {
    UKC_ASSIGN_OR_RETURN(const uncertain::DatasetReader probe,
                         uncertain::DatasetReader::Open(path));
    dim = probe.dim();
  }
  return Solve(dim, ResumableFileFactory(path, options_.ingest.chunk_size));
}

Result<StreamingSolution> StreamingUncertainKCenter::SolveDataset(
    uncertain::UncertainDataset* dataset) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("SolveDataset: null dataset");
  }
  metric::EuclideanSpace* space = dataset->euclidean();
  if (space == nullptr) {
    return Status::FailedPrecondition(
        "SolveDataset: streaming requires a Euclidean dataset");
  }
  UKC_ASSIGN_OR_RETURN(
      StreamingSolution solution,
      Solve(space->dim(),
            ResumableDatasetFactory(dataset, options_.ingest.chunk_size)));

  // The materialized dataset allows the exact evaluator cost on top of
  // the streaming bracket: mint the centers into the space, ED-assign,
  // evaluate.
  std::vector<metric::SiteId> center_ids;
  center_ids.reserve(solution.k);
  for (size_t c = 0; c < solution.k; ++c) {
    center_ids.push_back(
        space->AddCoords(solution.center_coords.data() + c * solution.dim));
  }
  UKC_ASSIGN_OR_RETURN(cost::Assignment assignment,
                       cost::AssignExpectedDistance(*dataset, center_ids,
                                                    options_.pool));
  cost::ExpectedCostEvaluator evaluator;
  UKC_ASSIGN_OR_RETURN(solution.verified_exact,
                       evaluator.AssignedCost(*dataset, assignment));
  return solution;
}

Result<StreamingSolution> StreamingUncertainKCenter::Solve(
    size_t dim, const ResumableSourceFactory& factory) {
  if (dim == 0) {
    return Status::InvalidArgument(
        "StreamingUncertainKCenter: dim must be >= 1");
  }
  if (options_.k == 0) {
    return Status::InvalidArgument("StreamingUncertainKCenter: k must be >= 1");
  }
  if (options_.verify_buckets == 0) {
    return Status::InvalidArgument(
        "StreamingUncertainKCenter: verify_buckets must be >= 1");
  }
  UKC_OBS_SPAN("stream.solve");
  StreamingSolution solution;
  solution.dim = dim;
  Stopwatch stopwatch;

  // Pass 1: sharded coreset build (checkpoint-aware — restore, resume
  // and cadenced saves all live inside IngestCoreset).
  UKC_ASSIGN_OR_RETURN(
      StreamingCoreset coreset,
      IngestCoreset(dim, factory, options_.ingest, options_.pool,
                    &solution.ingest_stats));
  std::vector<double> reps;
  coreset.ExtractRepresentatives(&reps);
  solution.coreset_cells = coreset.num_cells();
  solution.coreset_level = coreset.level();
  solution.coreset_diameter = coreset.diameter();
  solution.coreset_max_spread = coreset.max_spread();
  solution.coreset_error_bound = coreset.error_bound();
  solution.coreset_memory_bytes = coreset.ApproxMemoryBytes();
  solution.timings.ingest_seconds = stopwatch.ElapsedSeconds();

  // Solve on the coreset instance: the cell representatives as certain
  // points, sharing this pipeline's worker pool with the solvers that
  // parallelize.
  stopwatch.Reset();
  solver::CertainSolverOptions certain_options = options_.certain;
  if (certain_options.pool == nullptr) certain_options.pool = options_.pool;
  UKC_ASSIGN_OR_RETURN(
      CellSolution cell_solution,
      SolveOnCells(reps.data(), solution.coreset_cells, dim, coreset.norm(),
                   std::min(options_.k, solution.coreset_cells),
                   certain_options, Deadline()));
  solution.k = cell_solution.k;
  solution.center_coords = std::move(cell_solution.center_coords);
  solution.coreset_cost = cell_solution.cost;
  solution.coreset_radius = cell_solution.certain_radius;
  solution.timings.solve_seconds = stopwatch.ElapsedSeconds();

  // Pass 2: verification. The grid top is certified from the coreset
  // alone: every location of every point sits within
  //   d(rep, nearest center) + diameter + 2 · spread
  // of its ED-assigned center (stream/coreset.h contract plus norm
  // convexity), so the integrand vanishes above it. The largest
  // d(rep, nearest center) is the coreset cost. The rounding of the
  // bound is derived at kGridTopRelativeSlack.
  stopwatch.Reset();
  const double grid_top = (solution.coreset_cost + coreset.diameter() +
                           2.0 * coreset.max_spread()) *
                          (1.0 + kGridTopRelativeSlack);
  bool verify_positioned = false;
  UKC_ASSIGN_OR_RETURN(ResumableSource verify_source,
                       factory(nullptr, &verify_positioned));
  UKC_ASSIGN_OR_RETURN(
      VerifyOutcome outcome,
      VerifyPass(dim, coreset.norm(), verify_source.next,
                 solution.center_coords, solution.k, grid_top,
                 options_.verify_buckets, options_.pool));
  if (outcome.points != solution.ingest_stats.points) {
    return Status::Internal(StrFormat(
        "StreamingUncertainKCenter: verification saw %llu points, ingest saw "
        "%llu — the source factory must replay the same stream",
        static_cast<unsigned long long>(outcome.points),
        static_cast<unsigned long long>(solution.ingest_stats.points)));
  }
  solution.verified_lower = outcome.lower;
  solution.verified_upper = outcome.upper;
  solution.max_expected_distance = outcome.max_expected;
  solution.timings.verify_seconds = stopwatch.ElapsedSeconds();
  return solution;
}

}  // namespace stream
}  // namespace ukc
