#include "cost/parallel_evaluator.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/hash.h"
#include "common/strings.h"
#include "metric/euclidean_space.h"
#include "obs/metrics.h"

namespace ukc {
namespace cost {

namespace {

// Content fingerprint of everything the cached swap tables depend on
// besides the centers: dimension, norm, the CSR layout, probabilities,
// site ids, and the coordinates of every location. Identity (the
// dataset's address) is deliberately not used — a loop that rebuilds a
// same-shaped dataset at the same address must invalidate the cache.
// One linear pass, negligible next to the kernel work it saves.
uint64_t DatasetSwapFingerprint(const uncertain::UncertainDataset& dataset,
                                const metric::EuclideanSpace& euclidean) {
  uint64_t hash = kHashSeed;
  const size_t dim = euclidean.dim();
  const metric::Norm norm = euclidean.norm();
  const size_t n = dataset.n();
  const size_t total = dataset.total_locations();
  hash = HashBytes(hash, &dim, sizeof(dim));
  hash = HashBytes(hash, &norm, sizeof(norm));
  hash = HashBytes(hash, &n, sizeof(n));
  hash = HashBytes(hash, &total, sizeof(total));
  hash = HashBytes(hash, dataset.offsets().data(),
                   dataset.offsets().size_bytes());
  hash = HashBytes(hash, dataset.flat_probabilities().data(),
                   dataset.flat_probabilities().size_bytes());
  hash = HashBytes(hash, dataset.flat_sites().data(),
                   dataset.flat_sites().size_bytes());
  for (metric::SiteId site : dataset.flat_sites()) {
    hash = HashBytes(hash, euclidean.coords(site), dim * sizeof(double));
  }
  return hash;
}

}  // namespace

ParallelCandidateEvaluator::ParallelCandidateEvaluator()
    : ParallelCandidateEvaluator(Options()) {}

ParallelCandidateEvaluator::ParallelCandidateEvaluator(Options options)
    : options_(options), pool_(options.pool, options.threads) {
  evaluators_ = std::vector<ExpectedCostEvaluator>(pool_->num_threads());
  for (ExpectedCostEvaluator& evaluator : evaluators_) {
    evaluator.set_options(options_.evaluator);
  }
}

template <typename Fn>
Status ParallelCandidateEvaluator::RunTasks(size_t count, const Fn& fn) {
  std::vector<Status> statuses(count);
  pool_->ParallelFor(count, [&](int worker, size_t index) {
    statuses[index] = fn(worker, index);
  });
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Result<std::vector<double>> ParallelCandidateEvaluator::SwapCostMatrix(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers,
    const std::vector<metric::SiteId>& pool) {
  if (centers.empty()) {
    return Status::InvalidArgument("SwapCostMatrix: no centers");
  }
  if (pool.empty()) {
    return Status::InvalidArgument("SwapCostMatrix: empty candidate pool");
  }
  const metric::MetricSpace& space = dataset.space();
  for (metric::SiteId c : centers) {
    if (c < 0 || c >= space.num_sites()) {
      return Status::InvalidArgument(
          StrFormat("SwapCostMatrix: center %d out of range", c));
    }
  }
  const size_t k = centers.size();
  const size_t total = dataset.total_locations();
  // Pre-reserve every evaluator's radix/CDF scratch from the dataset
  // header once per instance size, so swap rounds never reallocate
  // mid-trajectory (the evaluators CHECK the capacity never shrinks
  // again).
  if (dataset.n() > reserved_points_ || total > reserved_locations_) {
    reserved_points_ = std::max(reserved_points_, dataset.n());
    reserved_locations_ = std::max(reserved_locations_, total);
    for (ExpectedCostEvaluator& evaluator : evaluators_) {
      evaluator.ReserveScratch(reserved_points_, reserved_locations_);
    }
  }
  const metric::SiteId* sites = dataset.flat_sites().data();
  const metric::EuclideanSpace* euclidean = dataset.euclidean();
  const size_t dim = euclidean != nullptr ? euclidean->dim() : 0;

  // Every call is a new epoch; every table consulted below must carry
  // it. The cache validity flags are computed against the *previous
  // successful* call's state, then the state is poisoned until this
  // call completes — an error can therefore never leave half-rolled
  // tables behind as apparently valid.
  ++swap_epoch_;
  std::optional<uint64_t> fingerprint;
  if (euclidean != nullptr && !options_.reference_swap_paths) {
    fingerprint = DatasetSwapFingerprint(dataset, *euclidean);
  }
  const bool cache_hit = fingerprint.has_value() &&
                         swap_fingerprint_.has_value() &&
                         *swap_fingerprint_ == *fingerprint;
  // Rollover telemetry: handles resolve once per process (the counters
  // are registered lazily on first use), the per-round cost is one
  // relaxed add. A miss here means the whole table set rebuilds.
  {
    static obs::Counter* const rollover_hits =
        obs::MetricsRegistry::Default().GetCounter(
            "ukc_swap_rollover_total", "Swap-table rollover checks by outcome",
            {{"outcome", "hit"}});
    static obs::Counter* const rollover_misses =
        obs::MetricsRegistry::Default().GetCounter(
            "ukc_swap_rollover_total", "Swap-table rollover checks by outcome",
            {{"outcome", "miss"}});
    (cache_hit ? rollover_hits : rollover_misses)->Increment();
  }
  if (!cache_hit) location_tree_.reset();
  const bool have_tables =
      cache_hit && base_prev_valid_ &&
      cached_centers_.size() == k && cached_center_coords_.size() == k * dim &&
      center_distances_.size() == k * total &&
      base_without_.size() == k * total && swap_bases_.size() == k;
  std::vector<uint8_t> row_valid(k, 0);
  if (have_tables) {
    for (size_t p = 0; p < k; ++p) {
      row_valid[p] =
          centers[p] == cached_centers_[p] &&
          std::memcmp(euclidean->coords(centers[p]),
                      cached_center_coords_.data() + p * dim,
                      dim * sizeof(double)) == 0;
    }
  }
  swap_fingerprint_.reset();
  base_prev_valid_ = false;

  // 1. Distance of every location to every current center, one row per
  // center (the rows parallelize independently). Rollover: a row whose
  // center id and coordinates are unchanged since the previous call is
  // kept — on a one-swap round only the replaced center's row is
  // recomputed (O(N) kernels instead of O(kN)).
  center_distances_.resize(k * total);
  std::vector<size_t> stale_rows;
  for (size_t p = 0; p < k; ++p) {
    if (!row_valid[p]) stale_rows.push_back(p);
  }
  pool_->ParallelFor(stale_rows.size(), [&](int, size_t index) {
    const size_t c = stale_rows[index];
    double* row = center_distances_.data() + c * total;
    if (euclidean != nullptr) {
      const metric::Norm norm = euclidean->norm();
      const double* target = euclidean->coords(centers[c]);
      for (size_t l = 0; l < total; ++l) {
        row[l] = metric::NormDistanceKernel(norm, euclidean->coords(sites[l]),
                                            target, dim);
      }
    } else {
      for (size_t l = 0; l < total; ++l) {
        row[l] = space.Distance(sites[l], centers[c]);
      }
    }
  });

  // 2. base_without_[p][l] = min over c != p of the distance rows,
  // via a backward suffix pass plus a rolling forward prefix. The
  // previous round's tables move into base_prev_ for the bitwise diff
  // below (min over unchanged inputs is exact, so a recomputed table is
  // bit-equal whenever its inputs are).
  std::swap(base_without_, base_prev_);
  base_without_.resize(k * total);
  suffix_min_.assign((k + 1) * total, std::numeric_limits<double>::infinity());
  for (size_t p = k; p-- > 0;) {
    const double* row = center_distances_.data() + p * total;
    const double* next = suffix_min_.data() + (p + 1) * total;
    double* out = suffix_min_.data() + p * total;
    for (size_t l = 0; l < total; ++l) out[l] = std::min(row[l], next[l]);
  }
  {
    std::vector<double> prefix(total, std::numeric_limits<double>::infinity());
    for (size_t p = 0; p < k; ++p) {
      const double* after = suffix_min_.data() + (p + 1) * total;
      double* out = base_without_.data() + p * total;
      for (size_t l = 0; l < total; ++l) {
        out[l] = std::min(prefix[l], after[l]);
      }
      const double* row = center_distances_.data() + p * total;
      for (size_t l = 0; l < total; ++l) {
        prefix[l] = std::min(prefix[l], row[l]);
      }
    }
  }

  // Positions whose base table changed bitwise need their presorted
  // stream + snapshot (and kd bounds) rebuilt; the rest roll over. On a
  // one-swap round the swapped position's own table — the only one
  // excluding the replaced center — always survives the diff. A table
  // is epoch-stamped exactly where its validity is established: here
  // for a bitwise-unchanged rollover, below after a successful rebuild
  // — so a position that slipped through both is caught by the
  // consultation CHECK.
  std::vector<size_t> stale_tables;
  for (size_t p = 0; p < k; ++p) {
    const bool unchanged =
        have_tables &&
        std::memcmp(base_without_.data() + p * total,
                    base_prev_.data() + p * total,
                    total * sizeof(double)) == 0;
    if (unchanged) {
      swap_bases_[p].epoch = swap_epoch_;
    } else {
      stale_tables.push_back(p);
    }
  }

  // 3. Presort the stale positions' base distances into sequential
  // event streams, shared read-only by all of that position's
  // candidates (the per-worker evaluators supply the radix scratch).
  point_of_.resize(total);
  const size_t* offsets = dataset.offsets().data();
  for (size_t i = 0; i < dataset.n(); ++i) {
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      point_of_[l] = static_cast<uint32_t>(i);
    }
  }
  swap_bases_.resize(k);
  const auto build_table = [&](ExpectedCostEvaluator& evaluator,
                               size_t p) -> Status {
    const std::span<const double> new_row(base_without_.data() + p * total,
                                          total);
    if (have_tables) {
      // The previous round's table is valid for the old row: patch
      // the sorted stream instead of re-sorting from scratch
      // (bitwise identical — see PatchSwapBase).
      UKC_RETURN_IF_ERROR(evaluator.PatchSwapBase(
          dataset,
          std::span<const double>(base_prev_.data() + p * total, total),
          new_row, point_of_, &swap_bases_[p]));
    } else {
      UKC_RETURN_IF_ERROR(evaluator.BuildSwapBase(
          dataset, new_row, point_of_, &swap_bases_[p]));
    }
    swap_bases_[p].epoch = swap_epoch_;  // Freshly rebuilt: validated.
    return Status::OK();
  };
  UKC_RETURN_IF_ERROR(
      RunTasks(stale_tables.size(), [&](int worker, size_t index) -> Status {
        return build_table(evaluators_[worker], stale_tables[index]);
      }));

  // Location kd-tree + per-position subtree maxima for the pruned
  // candidate scans. The tree is a pure function of the location
  // coordinates (rebuilt only on a fingerprint miss); the bound rows
  // follow their position's base table.
  const bool prune = !options_.reference_swap_paths && euclidean != nullptr;
  bool fill_all_bounds = false;
  if (prune) {
    if (!location_tree_.has_value()) {
      std::vector<double> coords(total * dim);
      for (size_t l = 0; l < total; ++l) {
        const double* src = euclidean->coords(sites[l]);
        std::copy(src, src + dim, coords.data() + l * dim);
      }
      UKC_ASSIGN_OR_RETURN(
          geometry::BoundedKdTree tree,
          geometry::BoundedKdTree::BuildFlat(std::move(coords), dim));
      location_tree_ = std::move(tree);
      fill_all_bounds = true;
    }
    if (node_base_max_.size() != k * total) {
      node_base_max_.resize(k * total);
      fill_all_bounds = true;
    }
    const auto fill_bounds = [&](size_t p) {
      // Masked at the emission threshold: a location whose base
      // distance is below it can never contribute a relevant
      // improvement (see SwapBase), so it must not inflate its
      // ancestors' bounds — this is what prunes whole clusters.
      location_tree_->FillSubtreeMax(
          std::span<const double>(base_without_.data() + p * total, total),
          std::span<double>(node_base_max_.data() + p * total, total),
          swap_bases_[p].threshold);
    };
    if (fill_all_bounds) {
      pool_->ParallelFor(k, [&](int, size_t p) { fill_bounds(p); });
    } else {
      pool_->ParallelFor(stale_tables.size(), [&](int, size_t index) {
        fill_bounds(stale_tables[index]);
      });
    }
  }

  // 4. One task per (position, candidate) pair. With pruning each costs
  // ~m kernel distances (the locations the candidate can improve) plus
  // the tail replay; the reference path pays one kernel distance per
  // location. Every consulted table's epoch is CHECKed against this
  // round's.
  std::vector<double> values(k * pool.size());
  UKC_RETURN_IF_ERROR(RunTasks(
      k * pool.size(), [&](int worker, size_t task) -> Status {
        const size_t p = task / pool.size();
        const size_t c = task % pool.size();
        UKC_CHECK_EQ(swap_bases_[p].epoch, swap_epoch_)
            << "SwapCostMatrix: stale rolled-over base table consulted";
        const std::span<const double> base_row(base_without_.data() + p * total,
                                               total);
        if (prune) {
          UKC_ASSIGN_OR_RETURN(
              values[task],
              evaluators_[worker].UnassignedCostSwapPruned(
                  dataset, base_row, swap_bases_[p], point_of_, pool[c],
                  *location_tree_,
                  std::span<const double>(node_base_max_.data() + p * total,
                                          total)));
        } else {
          UKC_ASSIGN_OR_RETURN(
              values[task],
              evaluators_[worker].UnassignedCostSwapPresorted(
                  dataset, base_row, swap_bases_[p], point_of_, pool[c]));
        }
        return Status::OK();
      }));

  // Success: publish this round's state for the next call to roll from.
  if (fingerprint.has_value()) {
    swap_fingerprint_ = fingerprint;
    cached_centers_ = centers;
    cached_center_coords_.resize(k * dim);
    for (size_t p = 0; p < k; ++p) {
      const double* src = euclidean->coords(centers[p]);
      std::copy(src, src + dim, cached_center_coords_.data() + p * dim);
    }
    base_prev_valid_ = true;
  }
  return values;
}

size_t ParallelCandidateEvaluator::SwapLadderBytes() const {
  size_t bytes = 0;
  for (const ExpectedCostEvaluator::SwapBase& base : swap_bases_) {
    bytes += base.LadderBytes();
  }
  return bytes;
}

size_t ParallelCandidateEvaluator::SwapBaseMemoryBytes() const {
  size_t bytes = SwapLadderBytes();
  for (const ExpectedCostEvaluator::SwapBase& base : swap_bases_) {
    bytes += base.events.capacity() * sizeof(ExpectedCostEvaluator::Event);
    bytes += base.bottleneck.capacity() * sizeof(uint8_t);
    bytes += base.deep_points.capacity() * sizeof(uint32_t);
    bytes += base.deep_first.capacity() * sizeof(double);
  }
  return bytes;
}

Status ParallelCandidateEvaluator::ForEachTask(
    size_t count, const std::function<Status(ExpectedCostEvaluator&, size_t)>& fn) {
  return RunTasks(count, [&](int worker, size_t task) -> Status {
    return fn(evaluators_[worker], task);
  });
}

}  // namespace cost
}  // namespace ukc
