#include "cost/parallel_evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"
#include "metric/euclidean_space.h"
#include "obs/metrics.h"

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

namespace {

// Certificate of the swap screen. Notation: u = 2^-53; N locations and
// n points; for one swap, x_l is location l's swapped distance (bitwise
// the sweep's event value: AnyWitnessReaches applies the sweep's own
// comparison); s_i = Σ_{l∈i} prob_l exactly (probabilities are
// validated to sum to 1 only within 1e-9); B_i = Σ_{l∈i} prob_l·x_l
// exactly and B̂_i as computed; v̂ the swap's computed cost; I the
// incumbent and M = fl(kMinRelativeSwapGain·max(1, I)) the acceptance
// margin of core::LocalSearchUnassigned.
//  1. Exact bound. In exact arithmetic every sweep path computes
//     S = Σ_j v_j (P_j − P_{j−1}) over the distinct values v_1 < … < v_J,
//     P_j = Π_i F_i(v_j) with F_i point i's unnormalised CDF. With
//     G_i = F_i / s_i, S = (Π_k s_k)·E_G[max_k X_k] ≥ (Π_k s_k)·E_G[X_i]
//     = B_i·Π_{k≠i} s_k ≥ B_i·(1 − Δ⁻), Δ⁻ = Σ_k max(0, 1 − s_k).
//  2. The sweep's rounding of the candidate value. The CDFs round at
//     most N times in all, and a CDF step costs the running product at
//     most two roundings (CdfProduct::Apply renormalises exactly), so
//     every P̂_j = P_j(1 + θ), |θ| ≤ γ_{3N} ≤ g := 8N·u (N ≤ 2^50).
//     Summation by parts (dropping the negative masses only raises v̂),
//     the mass subtraction, the v·mass product and the compensated sum
//     (< 3u) give v̂ ≥ (1 − 5u)(S − 2g·v_J·P_J − 2^-1074·v_J) − η ≥
//     (1 − 5u)(S − 4g·D) − η. Here v_J ≤ D = max_l d2_l, as x_l ≤
//     base_l ≤ d2_l; P_J = Π_k s_k ≤ e^{Δ⁺} < 1.3 for Δ⁺ = Σ_k max(0,
//     s_k − 1) ≤ 1/4; the 2^-1074 is a subnormal P̂_j; and η = N·2^-1072
//     covers every other underflow (≤ 2^-1075 per operation, < 8 per
//     value).
//  3. The rounding of the z-term bound sum: B̂_i ≤ B_i(1 + γ_z) ≤ B_i(1 + g).
//  4. The acceptance test and the incumbent. The search takes its argmin
//     v̂ only if v̂ < I and fl(I − v̂) ≥ M. Any v̂ ≥ I − M/2 fails:
//     rounding is monotone, so fl(I − v̂) ≤ M/2 < M. I enters as the
//     double the test compares against, so only the test's own rounding
//     (of I − v̂ and of M) is a term; the sweep that produced I is not.
//     A skipped argmin thus stops the search in the screened and in the
//     full matrix alike (every other entry is no smaller), and any other
//     skip changes nothing: the trajectory is bitwise the full one's.
// Together: B̂_i ≥ T := (1 + g)²·((I − M/2)⁺ + 4g·D + η) / (1 − Δ⁻)
// gives v̂ ≥ (1 − 5u)(1 + g)((I − M/2)⁺ + η) − η ≥ I − M/2, as g ≥ 8u.
// Δ^± come from the computed sums ŝ_k (|ŝ_k − s_k| ≤ γ_{z_k}·s_k, and
// the sums of the terms round by at most γ_{2n}): Δ^± ≤ (1 + g)·Δ̂^± + g.
// T is evaluated with fewer than 20 correctly rounded operations on
// nonnegative values, each moving it by a relative at most u (an error
// in Δ⁻ moves 1 − Δ⁻ ≥ 3/4 by less), so the computed T is at least
// (1 − 20u)·T, and the final factor 1 + 2^-40 more than restores it.
// +inf (no screen) when D is infinite — k = 1 makes every d2 +inf, so
// no swapped distance is bounded — or Δ^± exceed 1/4.
double ScreenThreshold(double incumbent, size_t total, double max_d2,
                       double deficit, double excess) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double g = std::ldexp(static_cast<double>(total), -50);
  const double eta = std::ldexp(static_cast<double>(total), -1072);
  const double deficit_bound = (1.0 + g) * deficit + g;
  const double excess_bound = (1.0 + g) * excess + g;
  if (!(incumbent < kInf) || !(max_d2 < kInf) || !(deficit_bound <= 0.25) ||
      !(excess_bound <= 0.25)) {
    return kInf;
  }
  const double margin = kMinRelativeSwapGain * std::max(1.0, incumbent);
  const double base = std::max(0.0, incumbent - 0.5 * margin);
  const double grow = (1.0 + g) * (1.0 + g);
  return grow * (base + 4.0 * g * max_d2 + eta) / (1.0 - deficit_bound) *
         (1.0 + 0x1p-40);
}

}  // namespace

Result<std::vector<double>> ParallelCandidateEvaluator::SwapCostMatrix(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers,
    const std::vector<metric::SiteId>& pool, double incumbent) {
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
  for (metric::SiteId c : pool) {
    if (c < 0 || c >= space.num_sites()) {
      return Status::InvalidArgument(
          StrFormat("SwapCostMatrix: candidate %d out of range", c));
    }
  }
  const size_t k = centers.size();
  const size_t n = dataset.n();
  const size_t total = dataset.total_locations();
  // Pre-reserve every evaluator's radix/CDF scratch from the dataset
  // header once per instance size, so swap rounds never reallocate
  // mid-trajectory (the evaluators CHECK the capacity never shrinks
  // again).
  if (n > reserved_points_ || total > reserved_locations_) {
    reserved_points_ = std::max(reserved_points_, n);
    reserved_locations_ = std::max(reserved_locations_, total);
    for (ExpectedCostEvaluator& evaluator : evaluators_) {
      evaluator.ReserveScratch(reserved_points_, reserved_locations_);
    }
  }
  const metric::SiteId* sites = dataset.flat_sites().data();
  const double* probabilities = dataset.flat_probabilities().data();
  const size_t* offsets = dataset.offsets().data();
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

  // The location → point map, and the inputs of the screen's
  // certificate (ScreenThreshold): the largest d2 and the probability
  // mass each point lacks or exceeds.
  point_of_.resize(total);
  double max_d2 = 0.0;
  double deficit = 0.0;
  double excess = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double mass = 0.0;
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      point_of_[l] = static_cast<uint32_t>(i);
      mass += probabilities[l];
      max_d2 = std::max(max_d2, d2_[l]);
    }
    deficit += std::max(0.0, 1.0 - mass);
    excess += std::max(0.0, mass - 1.0);
  }
  const double threshold =
      ScreenThreshold(incumbent, total, max_d2, deficit, excess);
  const bool screen = threshold < std::numeric_limits<double>::infinity();
  // Calls fn(base_sum, i) for every point i whose expected distance to
  // `row`'s base set reaches the threshold: the only points whose
  // swapped sum can (every product and sum rounds monotonically, and a
  // swap only lowers distances).
  const auto for_each_witness = [&](const double* row, auto&& fn) {
    for (size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
        sum += probabilities[l] * row[l];
      }
      if (sum >= threshold) fn(sum, i);
    }
  };

  // 2. Per position: write base_without_[p] (d2 where p owns the
  // location, else d1) and build its presorted event stream + snapshots,
  // shared read-only by that position's candidates; when screening,
  // count its witnesses into witness_begin_[p + 1].
  base_without_.resize(k * total);
  swap_bases_.resize(k);
  witness_begin_.assign(k + 1, 0);
  UKC_RETURN_IF_ERROR(RunTasks(k, [&](int worker, size_t p) -> Status {
    const uint32_t position = static_cast<uint32_t>(p);
    double* row = base_without_.data() + p * total;
    for (size_t l = 0; l < total; ++l) {
      row[l] = owner_[l] == position ? d2_[l] : d1_[l];
    }
    if (screen) {
      for_each_witness(row, [&](double, size_t) { ++witness_begin_[p + 1]; });
    }
    return evaluators_[worker].BuildSwapBase(
        dataset, std::span<const double>(row, total), point_of_,
        &swap_bases_[p]);
  }));

  // 2b. The witnesses of every position, in one flat buffer ordered by
  // position, each position's by descending base sum (the likeliest
  // proof first), ties by point.
  for (size_t p = 0; p < k; ++p) witness_begin_[p + 1] += witness_begin_[p];
  witnesses_.resize(witness_begin_[k]);
  if (!witnesses_.empty()) {
    pool_->ParallelFor(k, [&](int, size_t p) {
      SwapWitness* out = witnesses_.data() + witness_begin_[p];
      for_each_witness(base_without_.data() + p * total,
                       [&](double sum, size_t i) {
                         *out++ = SwapWitness{sum, static_cast<uint32_t>(i)};
                       });
      std::sort(witnesses_.begin() + witness_begin_[p],
                witnesses_.begin() + witness_begin_[p + 1],
                [](const SwapWitness& a, const SwapWitness& b) {
                  return a.base_sum != b.base_sum ? a.base_sum > b.base_sum
                                                  : a.point < b.point;
                });
    });
  }

  // 3. One task per (position, candidate) pair: the screen first (a
  // walk over the position's witnesses), then one kernel distance per
  // location, the snapshot ladder and the tail replay.
  static obs::Counter* const screened =
      obs::MetricsRegistry::Default().GetCounter(
          "ukc_swap_screened_total",
          "One-center swaps the certified screen proved non-improving");
  std::vector<double> values(k * pool.size());
  UKC_RETURN_IF_ERROR(RunTasks(
      k * pool.size(), [&](int worker, size_t task) -> Status {
        const size_t p = task / pool.size();
        const size_t c = task % pool.size();
        const std::span<const double> base_row(base_without_.data() + p * total,
                                               total);
        const std::span<const SwapWitness> witnesses(
            witnesses_.data() + witness_begin_[p],
            witness_begin_[p + 1] - witness_begin_[p]);
        if (!witnesses.empty() &&
            AnyWitnessReaches(dataset, base_row, witnesses, pool[c],
                              threshold)) {
          screened->Increment();
          values[task] = std::numeric_limits<double>::infinity();
          return Status::OK();
        }
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
         sizeof(uint32_t) * (owner_.capacity() + point_of_.capacity()) +
         sizeof(SwapWitness) * witnesses_.capacity() +
         sizeof(size_t) * witness_begin_.capacity();
}

Status ParallelCandidateEvaluator::ForEachTask(
    size_t count, const std::function<Status(ExpectedCostEvaluator&, size_t)>& fn) {
  return RunTasks(count, [&](int worker, size_t task) -> Status {
    return fn(evaluators_[worker], task);
  });
}

}  // namespace cost
}  // namespace ukc
