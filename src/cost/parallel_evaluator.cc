#include "cost/parallel_evaluator.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"
#include "metric/euclidean_space.h"

namespace ukc {
namespace cost {

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

  // 2. Per position: write base_without_[p] (d2 where p owns the
  // location, else d1) and build its presorted event stream + snapshots,
  // shared read-only by that position's candidates.
  base_without_.resize(k * total);
  swap_bases_.resize(k);
  UKC_RETURN_IF_ERROR(RunTasks(k, [&](int worker, size_t p) -> Status {
    const uint32_t position = static_cast<uint32_t>(p);
    double* row = base_without_.data() + p * total;
    for (size_t l = 0; l < total; ++l) {
      row[l] = owner_[l] == position ? d2_[l] : d1_[l];
    }
    return evaluators_[worker].BuildSwapBase(
        dataset, std::span<const double>(row, total), point_of_,
        &swap_bases_[p]);
  }));

  // 3. One task per (position, candidate) pair: one kernel distance per
  // location, then the snapshot ladder and tail replay.
  std::vector<double> values(k * pool.size());
  UKC_RETURN_IF_ERROR(RunTasks(
      k * pool.size(), [&](int worker, size_t task) -> Status {
        const size_t p = task / pool.size();
        const size_t c = task % pool.size();
        const std::span<const double> base_row(base_without_.data() + p * total,
                                               total);
        UKC_ASSIGN_OR_RETURN(
            values[task],
            evaluators_[worker].UnassignedCostSwapPresorted(
                dataset, base_row, swap_bases_[p], point_of_, pool[c]));
        return Status::OK();
      }));
  return values;
}

size_t ParallelCandidateEvaluator::SwapBaseMemoryBytes() const {
  size_t bytes = 0;
  for (const ExpectedCostEvaluator::SwapBase& base : swap_bases_) {
    for (const ExpectedCostEvaluator::SwapBase::Snapshot& rung : base.levels) {
      bytes += rung.cdf.capacity() * sizeof(double);
    }
    bytes += base.events.capacity() * sizeof(ExpectedCostEvaluator::Event);
    bytes += base.bottleneck.capacity() * sizeof(uint8_t);
    bytes += base.deep_points.capacity() * sizeof(uint32_t);
    bytes += base.deep_first.capacity() * sizeof(double);
  }
  return bytes;
}

size_t ParallelCandidateEvaluator::SwapStateBytes() const {
  return SwapBaseMemoryBytes() +
         sizeof(double) * (base_without_.capacity() + d1_.capacity() +
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
