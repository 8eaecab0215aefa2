#include "cost/parallel_evaluator.h"

#include <algorithm>
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
  const bool have_tables = cache_hit && tables_valid_ &&
                           base_without_.size() == k * total &&
                           swap_bases_.size() == k;
  swap_fingerprint_.reset();
  tables_valid_ = false;

  // 1. Nearest center (d1, owner) and the minimum over every other
  // position (d2) of each location, in parallel over location blocks,
  // written by index. Scanning positions in order with a strict `<`
  // makes owner the first nearest position, so a tie leaves d2 == d1.
  d1_.resize(total);
  d2_.resize(total);
  owner_.resize(total);
  std::vector<double> center_coords;
  if (euclidean != nullptr) euclidean->GatherCoords(centers, &center_coords);
  constexpr size_t kBlock = 8192;
  const metric::Norm norm =
      euclidean != nullptr ? euclidean->norm() : metric::Norm::kL2;
  pool_->ParallelFor((total + kBlock - 1) / kBlock, [&](int, size_t block) {
    const size_t end = std::min(total, (block + 1) * kBlock);
    for (size_t l = block * kBlock; l < end; ++l) {
      const double* from =
          euclidean != nullptr ? euclidean->coords(sites[l]) : nullptr;
      double d1 = std::numeric_limits<double>::infinity();
      double d2 = std::numeric_limits<double>::infinity();
      uint32_t owner = 0;
      for (size_t p = 0; p < k; ++p) {
        const double d =
            from != nullptr
                ? metric::NormDistanceKernel(
                      norm, from, center_coords.data() + p * dim, dim)
                : space.Distance(sites[l], centers[p]);
        if (d < d1) {
          d2 = d1;
          d1 = d;
          owner = static_cast<uint32_t>(p);
        } else if (d < d2) {
          d2 = d;
        }
      }
      d1_[l] = d1;
      d2_[l] = d2;
      owner_[l] = owner;
    }
  });

  point_of_.resize(total);
  const size_t* offsets = dataset.offsets().data();
  for (size_t i = 0; i < dataset.n(); ++i) {
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      point_of_[l] = static_cast<uint32_t>(i);
    }
  }

  // 2. Per position: rewrite base_without_[p] in place, diffing it
  // against last round's row, then bring the presorted event stream +
  // snapshots (shared read-only by that position's candidates) up to
  // date — kept when no location changed, patched with the changed
  // locations, or rebuilt. Patching beats the radix rebuild only while
  // the edit is sparse: sorting the replacements is O(changed log
  // changed) against the radix's O(N); past N/8 the rebuild wins. A
  // table is epoch-stamped exactly where its validity is established,
  // so a position that slipped through is caught by the consultation
  // CHECK.
  enum Outcome : uint8_t { kKept, kPatched, kRebuilt };
  const size_t patch_limit = total / 8;
  base_without_.resize(k * total);
  swap_bases_.resize(k);
  changed_locations_.resize(evaluators_.size());
  std::vector<Outcome> outcomes(k);
  UKC_RETURN_IF_ERROR(RunTasks(k, [&](int worker, size_t p) -> Status {
    std::vector<uint32_t>& changed = changed_locations_[worker];
    changed.clear();
    changed.reserve(patch_limit);
    bool rebuild = !have_tables;
    const uint32_t position = static_cast<uint32_t>(p);
    double* row = base_without_.data() + p * total;
    for (size_t l = 0; l < total; ++l) {
      const double value = owner_[l] == position ? d2_[l] : d1_[l];
      if (!rebuild && value != row[l]) {
        if (changed.size() == patch_limit) {
          rebuild = true;
        } else {
          changed.push_back(static_cast<uint32_t>(l));
        }
      }
      row[l] = value;
    }
    const std::span<const double> new_row(row, total);
    if (rebuild) {
      outcomes[p] = kRebuilt;
      UKC_RETURN_IF_ERROR(evaluators_[worker].BuildSwapBase(
          dataset, new_row, point_of_, &swap_bases_[p]));
    } else if (!changed.empty()) {
      outcomes[p] = kPatched;
      UKC_RETURN_IF_ERROR(evaluators_[worker].PatchSwapBase(
          dataset, new_row, changed, point_of_, &swap_bases_[p]));
    } else {
      outcomes[p] = kKept;
    }
    swap_bases_[p].epoch = swap_epoch_;
    return Status::OK();
  }));
  std::vector<size_t> stale_tables;
  {
    static obs::Counter* const table_outcomes[] = {
        obs::MetricsRegistry::Default().GetCounter(
            "ukc_swap_tables_total", "Swap base tables by rollover outcome",
            {{"outcome", "kept"}}),
        obs::MetricsRegistry::Default().GetCounter(
            "ukc_swap_tables_total", "Swap base tables by rollover outcome",
            {{"outcome", "patched"}}),
        obs::MetricsRegistry::Default().GetCounter(
            "ukc_swap_tables_total", "Swap base tables by rollover outcome",
            {{"outcome", "rebuilt"}}),
    };
    for (size_t p = 0; p < k; ++p) {
      table_outcomes[outcomes[p]]->Increment();
      if (outcomes[p] != kKept) stale_tables.push_back(p);
    }
  }

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

  // 3. One task per (position, candidate) pair. With pruning each costs
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
    tables_valid_ = true;
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

size_t ParallelCandidateEvaluator::SwapStateBytes() const {
  return SwapBaseMemoryBytes() +
         sizeof(double) * (base_without_.capacity() +
                           node_base_max_.capacity() + d1_.capacity() +
                           d2_.capacity()) +
         sizeof(uint32_t) * (owner_.capacity() + point_of_.capacity());
}

Status ParallelCandidateEvaluator::ForEachTask(
    size_t count, const std::function<Status(ExpectedCostEvaluator&, size_t)>& fn) {
  return RunTasks(count, [&](int worker, size_t task) -> Status {
    return fn(evaluators_[worker], task);
  });
}

}  // namespace cost
}  // namespace ukc
