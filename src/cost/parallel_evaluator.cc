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

Result<std::vector<double>> ParallelCandidateEvaluator::UnassignedCostBatch(
    const uncertain::UncertainDataset& dataset,
    const std::vector<std::vector<metric::SiteId>>& center_sets) {
  std::vector<double> values(center_sets.size());
  UKC_RETURN_IF_ERROR(RunTasks(
      center_sets.size(), [&](int worker, size_t s) -> Status {
        UKC_ASSIGN_OR_RETURN(
            values[s], evaluators_[worker].UnassignedCost(dataset, center_sets[s]));
        return Status::OK();
      }));
  return values;
}

Result<std::vector<double>> ParallelCandidateEvaluator::AssignedCostBatch(
    const uncertain::UncertainDataset& dataset,
    const std::vector<Assignment>& assignments) {
  std::vector<double> values(assignments.size());
  UKC_RETURN_IF_ERROR(RunTasks(
      assignments.size(), [&](int worker, size_t a) -> Status {
        UKC_ASSIGN_OR_RETURN(
            values[a], evaluators_[worker].AssignedCost(dataset, assignments[a]));
        return Status::OK();
      }));
  return values;
}

Result<std::vector<MonteCarloEstimate>>
ParallelCandidateEvaluator::MonteCarloUnassignedCostBatch(
    const uncertain::UncertainDataset& dataset,
    const std::vector<std::vector<metric::SiteId>>& center_sets,
    int64_t samples, Rng& rng) {
  // Fork every candidate's stream up front on the calling thread, so
  // the draw for candidate s is a pure function of (seed, s).
  std::vector<Rng> rngs;
  rngs.reserve(center_sets.size());
  for (size_t s = 0; s < center_sets.size(); ++s) {
    rngs.push_back(rng.Fork(static_cast<uint64_t>(s)));
  }
  std::vector<MonteCarloEstimate> estimates(center_sets.size());
  UKC_RETURN_IF_ERROR(RunTasks(
      center_sets.size(), [&](int worker, size_t s) -> Status {
        UKC_ASSIGN_OR_RETURN(estimates[s],
                             evaluators_[worker].MonteCarloUnassignedCost(
                                 dataset, center_sets[s], samples, rngs[s]));
        return Status::OK();
      }));
  return estimates;
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
  if (euclidean != nullptr &&
      (options_.incremental_rollover || options_.kd_prune)) {
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
      cache_hit && options_.incremental_rollover && base_prev_valid_ &&
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
  const bool prune = options_.kd_prune && euclidean != nullptr;
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

Status ParallelCandidateEvaluator::ApplyDatasetEdit(
    const uncertain::UncertainDataset& dataset, const DatasetEdit& edit) {
  // Poison helper: an inconsistent half-edited cache must read as "no
  // cache" — the next SwapCostMatrix call then rebuilds from scratch,
  // which is always correct.
  const auto drop_cache = [this]() {
    swap_fingerprint_.reset();
    base_prev_valid_ = false;
    location_tree_.reset();
  };
  // Without published cached state there is nothing to roll; leave the
  // (absent) cache alone. base_prev_valid_ going false while the
  // fingerprint is set cannot happen outside a failed call, which
  // already poisoned.
  if (!swap_fingerprint_.has_value() || !base_prev_valid_) return Status::OK();
  const metric::EuclideanSpace* euclidean = dataset.euclidean();
  if (euclidean == nullptr || !options_.incremental_rollover) {
    // The cached state cannot describe this dataset (fingerprints are
    // Euclidean-only) or rollover is off: reference behavior is a full
    // rebuild next call.
    drop_cache();
    return Status::OK();
  }
  const size_t k = cached_centers_.size();
  const size_t dim = euclidean->dim();
  const size_t new_total = dataset.total_locations();
  if (edit.location_end <= edit.location_begin) {
    return Status::InvalidArgument(
        "ApplyDatasetEdit: edit location range must be non-empty");
  }
  const size_t span = edit.location_end - edit.location_begin;
  const size_t old_total = edit.is_insert ? new_total - span : new_total + span;
  if (edit.is_insert) {
    // The edit must describe the dataset's actual tail.
    if (edit.point + 1 != dataset.n() ||
        edit.location_begin != dataset.offsets()[edit.point] ||
        edit.location_end != new_total) {
      return Status::InvalidArgument(
          "ApplyDatasetEdit: insert edit does not match the dataset tail");
    }
  } else if (edit.location_end > old_total || edit.point >= dataset.n() + 1) {
    return Status::InvalidArgument(
        "ApplyDatasetEdit: delete edit out of the pre-edit range");
  }
  if (k == 0 || center_distances_.size() != k * old_total ||
      base_without_.size() != k * old_total ||
      cached_center_coords_.size() != k * dim || swap_bases_.size() != k) {
    // Cached state does not describe the pre-edit instance (e.g. two
    // edits were applied between calls, or the sizes never matched) —
    // refuse to guess.
    drop_cache();
    return Status::OK();
  }
  // Evaluator scratch must cover the grown instance before EditSwapBase
  // runs (same sizing protocol as SwapCostMatrix).
  if (dataset.n() > reserved_points_ || new_total > reserved_locations_) {
    reserved_points_ = std::max(reserved_points_, dataset.n());
    reserved_locations_ = std::max(reserved_locations_, new_total);
    for (ExpectedCostEvaluator& evaluator : evaluators_) {
      evaluator.ReserveScratch(reserved_points_, reserved_locations_);
    }
  }
  const metric::SiteId* sites = dataset.flat_sites().data();
  const metric::Norm norm = euclidean->norm();

  // 1. Re-stride the k distance rows to the post-edit width. Retained
  // entries are copied bytes; only the inserted locations run the
  // kernel — against the CACHED center coordinates, so the rows stay
  // exactly what a full recompute at those coordinates would produce.
  {
    std::vector<double> rows(k * new_total);
    pool_->ParallelFor(k, [&](int, size_t p) {
      const double* old_row = center_distances_.data() + p * old_total;
      double* row = rows.data() + p * new_total;
      if (edit.is_insert) {
        std::copy(old_row, old_row + old_total, row);
        const double* target = cached_center_coords_.data() + p * dim;
        for (size_t l = edit.location_begin; l < edit.location_end; ++l) {
          row[l] = metric::NormDistanceKernel(norm, euclidean->coords(sites[l]),
                                              target, dim);
        }
      } else {
        std::copy(old_row, old_row + edit.location_begin, row);
        std::copy(old_row + edit.location_end, old_row + old_total,
                  row + edit.location_begin);
      }
    });
    center_distances_ = std::move(rows);
  }

  // 2. The same re-stride for the per-position base tables. The
  // inserted tail is min over the other k-1 rows — min over a set is
  // order-invariant bitwise (exact in floating point), so these entries
  // equal what the next call's suffix/prefix recompute produces, and
  // the bitwise diff there classifies every table as unchanged.
  {
    std::vector<double> bases(k * new_total);
    pool_->ParallelFor(k, [&](int, size_t p) {
      const double* old_base = base_without_.data() + p * old_total;
      double* base = bases.data() + p * new_total;
      if (edit.is_insert) {
        std::copy(old_base, old_base + old_total, base);
        for (size_t l = edit.location_begin; l < edit.location_end; ++l) {
          double best = std::numeric_limits<double>::infinity();
          for (size_t c = 0; c < k; ++c) {
            if (c == p) continue;
            best = std::min(best, center_distances_[c * new_total + l]);
          }
          base[l] = best;
        }
      } else {
        std::copy(old_base, old_base + edit.location_begin, base);
        std::copy(old_base + edit.location_end, old_base + old_total,
                  base + edit.location_begin);
      }
    });
    base_without_ = std::move(bases);
  }

  // 3. Location → point map for the post-edit CSR layout.
  point_of_.resize(new_total);
  const size_t* offsets = dataset.offsets().data();
  for (size_t i = 0; i < dataset.n(); ++i) {
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      point_of_[l] = static_cast<uint32_t>(i);
    }
  }

  // 4. Sparse-edit every position's presorted stream + ladder. A
  // failure here leaves streams for two different instances side by
  // side — poison so the next call rebuilds.
  const Status edited =
      RunTasks(k, [&](int worker, size_t p) -> Status {
        return evaluators_[worker].EditSwapBase(
            dataset,
            std::span<const double>(base_without_.data() + p * new_total,
                                    new_total),
            point_of_, edit, &swap_bases_[p]);
      });
  if (!edited.ok()) {
    drop_cache();
    return edited;
  }

  // 5. The kd-tree indexes the pre-edit location set; drop it (the next
  // call rebuilds it, since the published fingerprint below matches and
  // the tree-absence path fills all bounds). Publish the POST-edit
  // fingerprint: the rolled tables now describe exactly this instance.
  location_tree_.reset();
  swap_fingerprint_ = DatasetSwapFingerprint(dataset, *euclidean);
  return Status::OK();
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
