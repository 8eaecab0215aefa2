#include "cost/expected_cost_evaluator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <thread>

#include "common/stats.h"
#include "common/strings.h"
#include "metric/euclidean_space.h"
#include "obs/metrics.h"
#include "uncertain/sampler.h"

namespace ukc {
namespace cost {

namespace {

// Distance from `from` to the nearest row of the gathered block
// `centers` (count rows of length dim) under `norm`.
double FlatDistanceToSet(metric::Norm norm, const double* from,
                         const double* centers, size_t count, size_t dim) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < count; ++c) {
    const double d =
        metric::NormDistanceKernel(norm, from, centers + c * dim, dim);
    if (d < best) best = d;
  }
  return best;
}

}  // namespace

ExpectedCostEvaluator::ScratchGuard::ScratchGuard(
    ExpectedCostEvaluator* evaluator)
    : evaluator_(evaluator) {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected{};  // No owner.
  if (!evaluator_->owner_.compare_exchange_strong(
          expected, self, std::memory_order_acquire) &&
      expected != self) {
    UKC_CHECK(false) << "ExpectedCostEvaluator used concurrently from two "
                        "threads; it is mutable scratch — create one "
                        "evaluator per thread (see "
                        "cost::ParallelCandidateEvaluator)";
  }
  // Only the owning thread touches the depth counter.
  ++evaluator_->owner_depth_;
}

ExpectedCostEvaluator::ScratchGuard::~ScratchGuard() {
  if (--evaluator_->owner_depth_ == 0) {
    evaluator_->owner_.store(std::thread::id(), std::memory_order_release);
  }
}

namespace {

// Maps a double to a uint64 whose unsigned order matches the double's
// numeric order (the standard sign-flip transform).
inline uint64_t OrderedBits(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return (bits & (1ULL << 63)) ? ~bits : (bits | (1ULL << 63));
}

// Below this, std::sort's cache behavior beats the fixed radix overhead
// (four 65536-entry histograms).
constexpr size_t kRadixSortCutover = 2048;

// Running P = Π_{F_i > 0} F_i over the sweep, as a mantissa/exponent
// pair renormalized lazily when the mantissa leaves [2^-16, 2^16):
// power-of-two scaling is exact, so lazy renormalization changes no
// bits, and the pair cannot underflow the way a plain double product
// over many small CDFs would. The band is kept narrow so that even a
// pathological new/old ratio (old as small as ~1e-290 still satisfies
// Build's p > 0) multiplies a mantissa ≤ 2^16 and stays finite. The
// unclamped ratio keeps the telescoping exact even when round-off
// pushes a final CDF past 1. All four sweep variants (full sort-sweep,
// swap-base snapshot, the snapshot pre-application, and the tail
// merge) share this.
struct CdfProduct {
  size_t zeros;  // Variables still at F_i = 0 (product reads as 0).
  double mantissa = 1.0;
  int exponent = 0;

  explicit CdfProduct(size_t variables) : zeros(variables) {}

  /// Folds one CDF step of a variable: old -> new (new > old >= 0).
  void Apply(double old_cdf, double new_cdf) {
    if (old_cdf == 0.0) {
      --zeros;
      mantissa *= new_cdf;
    } else {
      mantissa *= new_cdf / old_cdf;
    }
    if (mantissa < 0x1p-16 || mantissa >= 0x1p16) {
      int shift;
      mantissa = std::frexp(mantissa, &shift);
      exponent += shift;
    }
  }

  /// Π F_i, or 0 while some variable's CDF is still empty.
  double Value() const {
    return zeros > 0 ? 0.0 : std::ldexp(mantissa, exponent);
  }
};

}  // namespace

const std::vector<ExpectedCostEvaluator::Event>&
ExpectedCostEvaluator::SortEventsByValue(std::vector<Event>* events) {
  const size_t count = events->size();
  if (count < kRadixSortCutover) {
    // The (value, location) tiebreak spells out what the stable radix
    // below does implicitly (every fill writes ascending locations), so
    // the two regimes produce one permutation.
    std::sort(events->begin(), events->end(),
              [](const Event& a, const Event& b) {
                return a.value != b.value ? a.value < b.value
                                          : a.location < b.location;
              });
    return *events;
  }
  // LSD radix, 4 passes of 16 bits over the order-preserving key. One
  // histogram pass, then per-digit scatters ping-ponging between the
  // event buffer and its scratch twin; digit positions where every key
  // agrees are skipped (typical for the high exponent bits of a
  // distance distribution).
  constexpr int kPasses = 4;
  constexpr size_t kBuckets = 65536;
  events_scratch_.resize(count);
  radix_counts_.assign(kPasses * kBuckets, 0);
  for (const Event& event : *events) {
    const uint64_t key = OrderedBits(event.value);
    for (int p = 0; p < kPasses; ++p) {
      ++radix_counts_[p * kBuckets + ((key >> (16 * p)) & 0xFFFF)];
    }
  }
  Event* src = events->data();
  Event* dst = events_scratch_.data();
  bool swapped = false;
  for (int p = 0; p < kPasses; ++p) {
    uint32_t* counts = radix_counts_.data() + p * kBuckets;
    const uint64_t first_digit = (OrderedBits(src[0].value) >> (16 * p)) & 0xFFFF;
    if (counts[first_digit] == count) continue;  // All keys share this digit.
    uint32_t running = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t c = counts[b];
      counts[b] = running;
      running += c;
    }
    for (size_t i = 0; i < count; ++i) {
      const uint64_t digit = (OrderedBits(src[i].value) >> (16 * p)) & 0xFFFF;
      dst[counts[digit]++] = src[i];
    }
    std::swap(src, dst);
    swapped = !swapped;
  }
  // An odd number of scatters leaves the order in the scratch twin.
  // The buffers never trade places, so neither one's capacity moves.
  return swapped ? events_scratch_ : *events;
}

double ExpectedCostEvaluator::SweepEvents(size_t num_variables) {
  UKC_CHECK_GT(num_variables, 0u);
  const std::vector<Event>& events = SortEventsByValue(&events_);
  cdf_.assign(num_variables, 0.0);

  // Sweep the value axis maintaining F_i (per-variable CDF) and the
  // running product P = Π_{F_i > 0} F_i (see CdfProduct).
  CdfProduct product(num_variables);
  KahanSum expectation;
  double previous_cdf_product = 0.0;  // P(max <= previous value).

  const size_t count = events.size();
  size_t e = 0;
  while (e < count) {
    const double value = events[e].value;
    // Apply every event at this exact value.
    while (e < count && events[e].value == value) {
      const Event& event = events[e];
      const double old_cdf = cdf_[event.index];
      const double new_cdf = old_cdf + event.probability;
      cdf_[event.index] = new_cdf;
      product.Apply(old_cdf, new_cdf);
      ++e;
    }
    if (product.zeros == 0) {
      const double cdf_product = product.Value();
      const double mass = cdf_product - previous_cdf_product;
      if (mass > 0.0) expectation.Add(value * mass);
      previous_cdf_product = cdf_product;
    }
  }
  return expectation.Total();
}

double ExpectedCostEvaluator::ExpectedMaxOfIndependent(
    std::span<const DiscreteDistribution> distributions) {
  ScratchGuard guard(this);
  UKC_CHECK(!distributions.empty());
  const size_t n = distributions.size();
  size_t total = 0;
  for (const auto& d : distributions) total += d.size();
  events_.clear();
  events_.reserve(total);
  for (size_t i = 0; i < n; ++i) {
    UKC_CHECK(!distributions[i].empty());
    for (const auto& [value, probability] : distributions[i]) {
      UKC_CHECK_GT(probability, 0.0);
      // location = fill position, so value ties keep one order across
      // the serial std::sort tiebreak and the stable radix.
      events_.push_back(Event{value, static_cast<uint32_t>(i),
                              static_cast<uint32_t>(events_.size()),
                              probability});
    }
  }
  return SweepEvents(n);
}

Result<double> ExpectedCostEvaluator::AssignedCost(
    const uncertain::UncertainDataset& dataset, const Assignment& assignment) {
  ScratchGuard guard(this);
  UKC_RETURN_IF_ERROR(options_.deadline.Check("AssignedCost"));
  if (assignment.size() != dataset.n()) {
    return Status::InvalidArgument(
        StrFormat("ExactAssignedCost: assignment covers %zu points, dataset "
                  "has %zu",
                  assignment.size(), dataset.n()));
  }
  const metric::MetricSpace& space = dataset.space();
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] < 0 || assignment[i] >= space.num_sites()) {
      return Status::InvalidArgument(
          StrFormat("ExactAssignedCost: assignment[%zu]=%d out of range", i,
                    assignment[i]));
    }
  }
  if (dataset.n() == 0) return 0.0;

  // Stream the flat location arrays: sites/probs are contiguous; only
  // the per-point target changes at offset boundaries.
  const metric::SiteId* sites = dataset.flat_sites().data();
  const double* probabilities = dataset.flat_probabilities().data();
  const size_t* offsets = dataset.offsets().data();
  events_.clear();
  events_.reserve(dataset.total_locations());
  const metric::EuclideanSpace* euclidean = dataset.euclidean();
  if (euclidean != nullptr) {
    // Distances evaluated straight off the coordinate arena.
    const size_t dim = euclidean->dim();
    const metric::Norm norm = euclidean->norm();
    for (size_t i = 0; i < dataset.n(); ++i) {
      const double* target = euclidean->coords(assignment[i]);
      for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
        events_.push_back(Event{
            metric::NormDistanceKernel(norm, euclidean->coords(sites[l]),
                                       target, dim),
            static_cast<uint32_t>(i), static_cast<uint32_t>(l),
            probabilities[l]});
      }
    }
  } else {
    for (size_t i = 0; i < dataset.n(); ++i) {
      for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
        events_.push_back(Event{space.Distance(sites[l], assignment[i]),
                                static_cast<uint32_t>(i),
                                static_cast<uint32_t>(l), probabilities[l]});
      }
    }
  }
  return SweepEvents(dataset.n());
}

Status ExpectedCostEvaluator::FillUnassignedEvents(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers) {
  if (centers.empty()) {
    return Status::InvalidArgument("ExactUnassignedCost: no centers");
  }
  const metric::MetricSpace& space = dataset.space();
  for (metric::SiteId c : centers) {
    if (c < 0 || c >= space.num_sites()) {
      return Status::InvalidArgument(
          StrFormat("ExactUnassignedCost: center %d out of range", c));
    }
  }

  const metric::SiteId* sites = dataset.flat_sites().data();
  const double* probabilities = dataset.flat_probabilities().data();
  const size_t* offsets = dataset.offsets().data();
  const size_t total = dataset.total_locations();
  events_.clear();
  events_.reserve(total);
  const metric::EuclideanSpace* euclidean = dataset.euclidean();
  if (euclidean != nullptr && euclidean->norm() == metric::Norm::kL2 &&
      centers.size() >= options_.kdtree_cutover) {
    // With many centers in a Euclidean space, nearest-center queries
    // dominate; a kd-tree over the centers turns each O(k) scan into a
    // near-logarithmic search. The tree is cached across calls and only
    // rebuilt when the gathered center coordinates actually change.
    euclidean->GatherCoords(centers, &center_coords_);
    if (!tree_.has_value() || tree_dim_ != euclidean->dim() ||
        tree_coords_ != center_coords_) {
      UKC_ASSIGN_OR_RETURN(
          geometry::KdTree tree,
          geometry::KdTree::BuildFlat(center_coords_, euclidean->dim()));
      tree_ = std::move(tree);
      tree_dim_ = euclidean->dim();
      tree_coords_ = center_coords_;
    }
    const geometry::KdTree& tree = *tree_;
    size_t i = 0;
    for (size_t l = 0; l < total; ++l) {
      while (l >= offsets[i + 1]) ++i;
      events_.push_back(Event{
          std::sqrt(tree.Nearest(euclidean->coords(sites[l])).squared_distance),
          static_cast<uint32_t>(i), static_cast<uint32_t>(l),
          probabilities[l]});
    }
    return Status::OK();
  }
  if (euclidean != nullptr && euclidean->norm() == metric::Norm::kL2) {
    // Flat linear scan comparing SQUARED distances, one sqrt for the
    // winner: IEEE sqrt is monotone and correctly rounded, so
    // min_c sqrt(s_c) == sqrt(min_c s_c) bit for bit — identical to
    // the per-center-sqrt scan at one sqrt per location instead of k
    // (e2ebench cost.seed_eval_s / cost.final_eval_s @solve run it).
    const size_t dim = euclidean->dim();
    euclidean->GatherCoords(centers, &center_coords_);
    const double* center_block = center_coords_.data();
    const size_t k = centers.size();
    size_t i = 0;
    for (size_t l = 0; l < total; ++l) {
      while (l >= offsets[i + 1]) ++i;
      const double* from = euclidean->coords(sites[l]);
      double best = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        const double s =
            geometry::SquaredDistanceKernel(from, center_block + c * dim, dim);
        if (s < best) best = s;
      }
      events_.push_back(Event{std::sqrt(best), static_cast<uint32_t>(i),
                              static_cast<uint32_t>(l), probabilities[l]});
    }
    return Status::OK();
  }
  if (euclidean != nullptr) {
    // Flat linear scan over the gathered center block.
    const size_t dim = euclidean->dim();
    const metric::Norm norm = euclidean->norm();
    euclidean->GatherCoords(centers, &center_coords_);
    size_t i = 0;
    for (size_t l = 0; l < total; ++l) {
      while (l >= offsets[i + 1]) ++i;
      events_.push_back(
          Event{FlatDistanceToSet(norm, euclidean->coords(sites[l]),
                                  center_coords_.data(), centers.size(), dim),
                static_cast<uint32_t>(i), static_cast<uint32_t>(l),
                probabilities[l]});
    }
    return Status::OK();
  }
  size_t i = 0;
  for (size_t l = 0; l < total; ++l) {
    while (l >= offsets[i + 1]) ++i;
    events_.push_back(Event{space.DistanceToSet(sites[l], centers),
                            static_cast<uint32_t>(i),
                            static_cast<uint32_t>(l), probabilities[l]});
  }
  return Status::OK();
}

Result<double> ExpectedCostEvaluator::UnassignedCost(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers) {
  ScratchGuard guard(this);
  UKC_RETURN_IF_ERROR(options_.deadline.Check("UnassignedCost"));
  UKC_RETURN_IF_ERROR(FillUnassignedEvents(dataset, centers));
  if (dataset.n() == 0) return 0.0;
  return SweepEvents(dataset.n());
}

Status ExpectedCostEvaluator::BuildSwapBase(
    const uncertain::UncertainDataset& dataset,
    std::span<const double> base_distances, std::span<const uint32_t> point_of,
    SwapBase* out) {
  ScratchGuard guard(this);
  UKC_CHECK(out != nullptr);
  const size_t total = dataset.total_locations();
  if (base_distances.size() != total || point_of.size() != total) {
    return Status::InvalidArgument(
        "BuildSwapBase: table sizes must equal total_locations");
  }
  const double* probabilities = dataset.flat_probabilities().data();
  CheckScratchReservation();

  // Sorted (value, location) base event stream, filled in ascending
  // location order as SortEventsByValue requires and sorted where it
  // lives.
  out->events.resize(total);
  for (size_t l = 0; l < total; ++l) {
    out->events[l] = Event{base_distances[l], point_of[l],
                           static_cast<uint32_t>(l), probabilities[l]};
  }
  const std::vector<Event>& sorted = SortEventsByValue(&out->events);
  if (&sorted != &out->events) {
    std::copy(sorted.begin(), sorted.end(), out->events.begin());
  }

  // Every build gets a process-unique id: the derived-rung cache keys
  // on it, so no evaluator — this one or any other — can mistake a
  // rebuilt table at a reused address for the one it derived from.
  static std::atomic<uint64_t> next_build_id{1};
  out->build_id = next_build_id.fetch_add(1, std::memory_order_relaxed);
  const size_t n = dataset.n();
  const size_t* offsets = dataset.offsets().data();

  // Per-point minimum base distance (the value axis of the ladder).
  // swap_first_/swap_order_/cdf_ are member scratch — this runs once
  // per table per round, so no per-call allocations.
  std::vector<double>& first = swap_first_;
  first.assign(n, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < n; ++i) {
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      first[i] = std::min(first[i], base_distances[l]);
    }
  }

  // Rung 0: the SECOND-largest per-point minimum. Until the sweep
  // passes the largest, some CDF is still 0 and Π F_i = 0 — and the
  // second-largest stays a valid merge start unless a candidate
  // improves every flagged point below it. The deeper rungs descend
  // through upper quantiles of the per-point minima to the median:
  // a candidate that covers the whole bottleneck cluster lands on the
  // rung just below the worst point it does NOT improve, replaying only
  // the events above it.
  // Rung ranks in the descending order statistics of the minima,
  // selected by an nth_element chain over shrinking prefixes (deepest
  // rank first) — O(n) total, no full sort.
  const double quantiles[kSwapLadderRungs] = {0.0,  0.02, 0.04, 0.08,
                                              0.16, 0.32, 0.50};
  size_t ranks[kSwapLadderRungs];
  ranks[0] = n > 1 ? 1 : 0;  // Second largest.
  for (size_t level = 1; level < kSwapLadderRungs; ++level) {
    size_t rank = static_cast<size_t>(quantiles[level] *
                                      static_cast<double>(n));
    if (rank >= n) rank = n - 1;
    ranks[level] = std::max(rank, ranks[level - 1]);
  }
  std::vector<double>& order = swap_order_;
  order.assign(first.begin(), first.end());
  size_t prefix = n;
  size_t positioned = n;  // No rank positioned yet.
  for (size_t level = kSwapLadderRungs; level-- > 0;) {
    const size_t rank = ranks[level];
    if (rank != positioned) {
      std::nth_element(order.begin(), order.begin() + rank,
                       order.begin() + prefix, std::greater<double>());
      positioned = rank;
      prefix = rank + 1;
    }
    out->levels[level].threshold = order[rank];
  }
  for (size_t level = 1; level < kSwapLadderRungs; ++level) {
    out->levels[level].threshold = std::min(out->levels[level].threshold,
                                            out->levels[level - 1].threshold);
  }
  out->threshold = out->levels[0].threshold;

  const double deepest = out->levels[kSwapLadderRungs - 1].threshold;
  out->bottleneck.assign(n, 0);
  out->bottleneck_count = 0;
  out->deep_points.clear();
  out->deep_first.clear();
  for (size_t i = 0; i < n; ++i) {
    if (first[i] >= out->levels[0].threshold) {
      out->bottleneck[i] = 1;
      ++out->bottleneck_count;
    }
    if (first[i] >= deepest) {
      out->deep_points.push_back(static_cast<uint32_t>(i));
      out->deep_first.push_back(first[i]);
    }
  }

  // One prefix sweep capturing every rung's state just below its
  // threshold: per-point CDFs, the zero count, and the running Π F_i
  // mantissa/exponent. (No mass emission is tracked — each rung is only
  // consulted when nothing can have been emitted below it.)
  std::vector<double>& cdf = cdf_;
  cdf.assign(n, 0.0);
  CdfProduct product(n);
  const auto capture = [&](int level, size_t index) {
    SwapBase::Snapshot& snapshot = out->levels[level];
    snapshot.index = index;
    snapshot.zeros = product.zeros;
    snapshot.mantissa = product.mantissa;
    snapshot.exponent = product.exponent;
    // Only rung 0 and the deepest rung keep their n-length CDF
    // resident (2·n instead of kSwapLadderRungs·n doubles per table);
    // an intermediate rung is re-derived on escalation by replaying
    // events[deepest.index, index) — see ScoreSwapFromChanged. The
    // swap releases the capacity, not just the size: held capacity
    // would defeat the compaction.
    if (level == 0 || level == static_cast<int>(kSwapLadderRungs) - 1) {
      snapshot.cdf.assign(cdf.begin(), cdf.end());
    } else {
      std::vector<double>().swap(snapshot.cdf);
    }
  };
  int next_level = kSwapLadderRungs - 1;  // Lowest threshold crossed first.
  size_t s = 0;
  for (; s < total; ++s) {
    const Event& event = out->events[s];
    while (next_level >= 0 &&
           event.value >= out->levels[next_level].threshold) {
      capture(next_level, s);
      --next_level;
    }
    if (next_level < 0) break;  // Everything from here on is tail.
    const double old_cdf = cdf[event.index];
    const double new_cdf = old_cdf + event.probability;
    cdf[event.index] = new_cdf;
    product.Apply(old_cdf, new_cdf);
  }
  // Rungs the stream never reached see the whole applied prefix.
  while (next_level >= 0) {
    capture(next_level, s);
    --next_level;
  }
  return Status::OK();
}

double ExpectedCostEvaluator::MergeSweepFrom(
    const uncertain::UncertainDataset& dataset, const SwapBase& base,
    size_t a_begin, std::span<const std::pair<double, uint32_t>> changed,
    std::span<const uint32_t> point_of, size_t zeros, double mantissa,
    int exponent) {
  const double* probabilities = dataset.flat_probabilities().data();
  const Event* events = base.events.data();
  const size_t total = base.events.size();
  CdfProduct product(0);
  product.zeros = zeros;
  product.mantissa = mantissa;
  product.exponent = exponent;
  KahanSum expectation;
  double previous_cdf_product = 0.0;

  const size_t changed_count = changed.size();
  size_t a = a_begin;
  size_t b = 0;
  const auto skip_changed = [&] {
    while (a < total && changed_stamp_[events[a].location] == stamp_) ++a;
  };
  // Single-pass merge: take the lexicographically smaller (value, l)
  // head, apply it, and emit mass once the next head moves past the
  // current value (the streams are nondecreasing, so "different" means
  // "greater"). va/vb mirror the stream heads to keep the loop
  // load-light; the base stream walk is sequential memory.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  skip_changed();
  double va = a < total ? events[a].value : kInf;
  double vb = b < changed_count ? changed[b].first : kInf;
  while (a < total || b < changed_count) {
    double value;
    bool take_base;
    if (va < vb) {
      take_base = true;
    } else if (vb < va) {
      take_base = false;
    } else {
      take_base = b >= changed_count ||
                  (a < total && events[a].location < changed[b].second);
    }
    if (take_base) {
      value = va;
      const Event& event = events[a];
      const double old_cdf = cdf_[event.index];
      const double new_cdf = old_cdf + event.probability;
      cdf_[event.index] = new_cdf;
      product.Apply(old_cdf, new_cdf);
      ++a;
      skip_changed();
      va = a < total ? events[a].value : kInf;
    } else {
      value = vb;
      const uint32_t l = changed[b].second;
      const uint32_t i = point_of[l];
      const double old_cdf = cdf_[i];
      const double new_cdf = old_cdf + probabilities[l];
      cdf_[i] = new_cdf;
      product.Apply(old_cdf, new_cdf);
      ++b;
      vb = b < changed_count ? changed[b].first : kInf;
    }
    if (va != value && vb != value && product.zeros == 0) {
      const double cdf_product = product.Value();
      const double mass = cdf_product - previous_cdf_product;
      if (mass > 0.0) expectation.Add(value * mass);
      previous_cdf_product = cdf_product;
    }
  }
  {
    // Every base entry from a_begin (skipped ones included) plus every
    // changed event: a pure function of the candidate, unlike the
    // rung re-derivations the per-worker cache shares.
    static obs::Counter* const walked =
        obs::MetricsRegistry::Default().GetCounter(
            "ukc_swap_tail_events_total",
            "Base and changed events walked by swap tail merges");
    walked->Add(total - a_begin + changed_count);
  }
  return expectation.Total();
}

namespace {

// The one swapped-distance rule, shared by every collection pass and
// the certified screen: calls body(improves) once, where improves(l, b,
// &d) reports whether flat location l's distance d to `extra` is below
// its base distance b (and sets d when it is). L2 compares *squared*
// distances — the sqrt is monotone, so d² < b² decides d < b, and only
// the winners pay a sqrt (a rounding tie after sqrt just moves the
// event between the base and changed streams; the applied (value,
// point, probability) multiset is the same). The metric branch is
// chosen once per call, outside the caller's loop.
template <typename Body>
void WithImprovementTest(const uncertain::UncertainDataset& dataset,
                         metric::SiteId extra, Body&& body) {
  const metric::SiteId* sites = dataset.flat_sites().data();
  const metric::EuclideanSpace* euclidean = dataset.euclidean();
  if (euclidean != nullptr && euclidean->norm() == metric::Norm::kL2) {
    const size_t dim = euclidean->dim();
    const double* target = euclidean->coords(extra);
    body([=](size_t l, double b, double* d) {
      const double dsq = geometry::SquaredDistanceKernel(
          euclidean->coords(sites[l]), target, dim);
      if (!(dsq < b * b)) return false;
      *d = std::sqrt(dsq);
      return true;
    });
  } else if (euclidean != nullptr) {
    const size_t dim = euclidean->dim();
    const metric::Norm norm = euclidean->norm();
    const double* target = euclidean->coords(extra);
    body([=](size_t l, double b, double* d) {
      *d = metric::NormDistanceKernel(norm, euclidean->coords(sites[l]),
                                      target, dim);
      return *d < b;
    });
  } else {
    const metric::MetricSpace* space = &dataset.space();
    body([=](size_t l, double b, double* d) {
      *d = space->Distance(sites[l], extra);
      return *d < b;
    });
  }
}

// The one improved-location scan shared by every collection pass:
// calls consider(d, l) for each flat location l with d(l, extra) <
// base_distances[l], restricted to base_distances[l] >= gate (pass
// -infinity for an ungated scan). The gate runs before the kernel, so
// on gated passes most locations skip the distance entirely.
template <typename Consider>
void ScanImproved(const uncertain::UncertainDataset& dataset,
                  std::span<const double> base_distances, metric::SiteId extra,
                  double gate, Consider&& consider) {
  const size_t total = dataset.total_locations();
  WithImprovementTest(dataset, extra, [&](auto improves) {
    for (size_t l = 0; l < total; ++l) {
      const double b = base_distances[l];
      if (b < gate) continue;
      double d;
      if (improves(l, b, &d)) consider(d, l);
    }
  });
}

}  // namespace

bool AnyWitnessReaches(const uncertain::UncertainDataset& dataset,
                       std::span<const double> base_distances,
                       std::span<const SwapWitness> witnesses,
                       metric::SiteId extra, double threshold) {
  const double* probabilities = dataset.flat_probabilities().data();
  const size_t* offsets = dataset.offsets().data();
  bool reached = false;
  WithImprovementTest(dataset, extra, [&](auto improves) {
    for (const SwapWitness& witness : witnesses) {
      double sum = 0.0;
      for (size_t l = offsets[witness.point]; l < offsets[witness.point + 1];
           ++l) {
        const double b = base_distances[l];
        double d;
        sum += probabilities[l] * (improves(l, b, &d) ? d : b);
      }
      if (sum >= threshold) {
        reached = true;
        return;
      }
    }
  });
  return reached;
}

Result<double> ExpectedCostEvaluator::UnassignedCostSwapPresorted(
    const uncertain::UncertainDataset& dataset,
    std::span<const double> base_distances, const SwapBase& base,
    std::span<const uint32_t> point_of, metric::SiteId extra) {
  ScratchGuard guard(this);
  UKC_RETURN_IF_ERROR(options_.deadline.Check("UnassignedCostSwapPresorted"));
  const metric::MetricSpace& space = dataset.space();
  if (extra < 0 || extra >= space.num_sites()) {
    return Status::InvalidArgument(
        StrFormat("UnassignedCostSwapPresorted: center %d out of range", extra));
  }
  const size_t total = dataset.total_locations();
  if (base_distances.size() != total || base.events.size() != total ||
      point_of.size() != total || base.levels[0].cdf.size() != dataset.n()) {
    return Status::InvalidArgument(
        "UnassignedCostSwapPresorted: table sizes must match the dataset");
  }
  // The candidate's *relevant* improved locations (d < base, restricted
  // to base >= threshold — an improvement entirely below the snapshot
  // threshold only moves CDF mass the snapshot already accounts for),
  // stamped out of the base stream. A candidate that improves EVERY
  // flagged bottleneck point below the threshold moves the emission
  // start earlier than the snapshot, so it must take the full-merge
  // fallback over the complete improved set.
  BeginChangedCollection(dataset);
  const double threshold = base.threshold;
  size_t bottleneck_hits = 0;
  const auto consider = [&](double d, size_t l) {
    changed_.emplace_back(d, static_cast<uint32_t>(l));
    changed_stamp_[l] = stamp_;
    if (d < threshold) {
      const uint32_t i = point_of[l];
      if (base.bottleneck[i] && point_stamp_[i] != stamp_) {
        point_stamp_[i] = stamp_;
        ++bottleneck_hits;
      }
    }
  };
  ScanImproved(dataset, base_distances, extra, threshold, consider);

  const SwapBase::Snapshot* level = &base.levels[0];
  if (bottleneck_hits == base.bottleneck_count) {
    level = EscalateAndCollect(dataset, base, point_of, base_distances, extra);
  }
  return ScoreSwapFromChanged(dataset, base, point_of, base_distances, level);
}

void ExpectedCostEvaluator::BeginChangedCollection(
    const uncertain::UncertainDataset& dataset) {
  const size_t total = dataset.total_locations();
  if (changed_stamp_.size() != total) changed_stamp_.assign(total, 0);
  if (point_stamp_.size() != dataset.n()) {
    point_stamp_.assign(dataset.n(), 0);
    point_min_.assign(dataset.n(), 0.0);
  }
  if (++stamp_ == 0) {  // Stamp wrapped: reset the masks once.
    std::fill(changed_stamp_.begin(), changed_stamp_.end(), 0);
    std::fill(point_stamp_.begin(), point_stamp_.end(), 0);
    stamp_ = 1;
  }
  changed_.clear();
}

const ExpectedCostEvaluator::SwapBase::Snapshot*
ExpectedCostEvaluator::EscalateAndCollect(
    const uncertain::UncertainDataset& dataset, const SwapBase& base,
    std::span<const uint32_t> point_of, std::span<const double> base_distances,
    metric::SiteId extra) {
  // One gated pass at the deepest rung: collect every improvement of a
  // location with base >= median threshold (a superset of what any rung
  // >= it replays — entries below the chosen rung are skipped by the
  // scoring loop), tracking each point's improved minimum service.
  {
    static obs::Counter* const escalations =
        obs::MetricsRegistry::Default().GetCounter(
            "ukc_ladder_escalations_total",
            "Swap evaluations escalated past ladder rung 0");
    escalations->Increment();
  }
  BeginChangedCollection(dataset);
  const double gate = base.levels[kSwapLadderRungs - 1].threshold;
  ScanImproved(dataset, base_distances, extra, gate, [&](double d, size_t l) {
    changed_.emplace_back(d, static_cast<uint32_t>(l));
    changed_stamp_[l] = stamp_;
    const uint32_t i = point_of[l];
    if (point_stamp_[i] != stamp_) {
      point_stamp_[i] = stamp_;
      point_min_[i] = d;
    } else if (d < point_min_[i]) {
      point_min_[i] = d;
    }
  });

  // Every location of a deep point (min base >= gate) has base >= gate,
  // so the gated pass saw ALL its improvements — its new first service
  // is exact, and the max over deep points lower-bounds the swapped
  // configuration's emission start. (Non-deep points sit below the gate
  // and cannot raise the max past it.)
  double start = 0.0;
  for (size_t j = 0; j < base.deep_points.size(); ++j) {
    const uint32_t i = base.deep_points[j];
    double new_first = base.deep_first[j];
    if (point_stamp_[i] == stamp_ && point_min_[i] < new_first) {
      new_first = point_min_[i];
    }
    start = std::max(start, new_first);
  }
  for (size_t level = 1; level < kSwapLadderRungs; ++level) {
    if (base.levels[level].threshold <= start) return &base.levels[level];
  }
  // Only the full merge remains: collect EVERY improved location.
  BeginChangedCollection(dataset);
  ScanImproved(dataset, base_distances, extra,
               -std::numeric_limits<double>::infinity(),
               [&](double d, size_t l) {
                 changed_.emplace_back(d, static_cast<uint32_t>(l));
                 changed_stamp_[l] = stamp_;
               });
  return nullptr;
}

Result<double> ExpectedCostEvaluator::ScoreSwapFromChanged(
    const uncertain::UncertainDataset& dataset, const SwapBase& base,
    std::span<const uint32_t> point_of, std::span<const double> base_distances,
    const SwapBase::Snapshot* level) {
  const double* probabilities = dataset.flat_probabilities().data();
  const size_t num_variables = dataset.n();
  if (level == nullptr) {
    // Full merge from scratch: every event replayed (changed_ holds the
    // complete improved set).
    std::sort(changed_.begin(), changed_.end());
    cdf_.assign(num_variables, 0.0);
    return MergeSweepFrom(dataset, base, 0, changed_, point_of, num_variables,
                          1.0, 0);
  }

  // Snapshot path against rung `level`. A changed location below the
  // rung's threshold only *moves* CDF mass that is already below it:
  //   - old value also below (base[l] < threshold): the snapshot holds
  //     the same mass at the old value — since no mass is emitted below
  //     the threshold, only the accumulated CDFs matter, so nothing to
  //     do (the order of additions differs by ~1 ulp from a full
  //     replay);
  //   - old value at/above the threshold: the mass newly drops below —
  //     apply it on top of the snapshot state;
  //   - new value at/above the threshold: a regular tail-merge event.
  const double threshold = level->threshold;
  if (level->cdf.empty()) {
    // Intermediate rung: re-derive its CDF from the deepest rung
    // (always resident) by replaying the base prefix
    // events[deepest.index, level->index) — the same per-variable
    // additions in the same order BuildSwapBase applied them, so the
    // result is bitwise identical to the CDF the build sweep held at
    // this rung. The derivation is cached per (table build, rung):
    // every further candidate of the round escalating to this rung
    // reuses it, so the O(prefix) replay is paid once per evaluator,
    // not once per candidate.
    const int level_index = static_cast<int>(level - base.levels);
    if (derived_build_id_ != base.build_id || derived_level_ != level_index) {
      const SwapBase::Snapshot& deepest =
          base.levels[kSwapLadderRungs - 1];
      UKC_CHECK(!deepest.cdf.empty())
          << "compacted swap ladder: deepest rung lost its CDF";
      UKC_CHECK_LE(deepest.index, level->index);
      derived_cdf_.assign(deepest.cdf.begin(), deepest.cdf.end());
      for (size_t e = deepest.index; e < level->index; ++e) {
        const Event& event = base.events[e];
        derived_cdf_[event.index] += event.probability;
      }
      {
        static obs::Counter* const replayed =
            obs::MetricsRegistry::Default().GetCounter(
                "ukc_ladder_replayed_events_total",
                "Base events replayed to re-derive compacted rung CDFs");
        replayed->Add(level->index - deepest.index);
      }
      derived_build_id_ = base.build_id;
      derived_level_ = level_index;
    }
    cdf_.assign(derived_cdf_.begin(), derived_cdf_.end());
  } else {
    cdf_.assign(level->cdf.begin(), level->cdf.end());
  }
  CdfProduct product(0);
  product.zeros = level->zeros;
  product.mantissa = level->mantissa;
  product.exponent = level->exponent;
  // changed_ is in ascending location order, so a point's entries are
  // consecutive: mass newly dropping below the threshold is accumulated
  // per point-run and folded into the product once per point instead of
  // once per event (the expensive part of Apply is the division). The
  // tail-merge events are compacted to the front of changed_ as they
  // are read (the write index never passes the read index); their
  // locations stay stamped, so the merge still skips them in the base.
  uint32_t run_point = 0;
  double run_delta = 0.0;
  const auto flush_run = [&] {
    if (run_delta == 0.0) return;
    const double old_cdf = cdf_[run_point];
    const double new_cdf = old_cdf + run_delta;
    cdf_[run_point] = new_cdf;
    product.Apply(old_cdf, new_cdf);
    run_delta = 0.0;
  };
  size_t tail = 0;
  for (const auto& [d, l] : changed_) {
    if (d >= threshold) {
      changed_[tail++] = {d, l};
      continue;
    }
    if (base_distances[l] >= threshold) {
      const uint32_t i = point_of[l];
      if (i != run_point) flush_run();
      run_point = i;
      run_delta += probabilities[l];
    }
  }
  flush_run();
  changed_.resize(tail);
  std::sort(changed_.begin(), changed_.end());
  return MergeSweepFrom(dataset, base, level->index, changed_, point_of,
                        product.zeros, product.mantissa, product.exponent);
}

void ExpectedCostEvaluator::ReserveScratch(size_t n, size_t total_locations) {
  ScratchGuard guard(this);
  events_scratch_.reserve(total_locations);
  cdf_.reserve(n);
  changed_.reserve(total_locations);
  swap_first_.reserve(n);
  swap_order_.reserve(n);
  scratch_reservation_ = std::max(scratch_reservation_, total_locations);
  scratch_reservation_points_ = std::max(scratch_reservation_points_, n);
}

void ExpectedCostEvaluator::CheckScratchReservation() const {
  if (scratch_reservation_ == 0) return;
  UKC_CHECK_GE(events_scratch_.capacity(), scratch_reservation_)
      << "ExpectedCostEvaluator: radix scratch shrank below its "
         "ReserveScratch reservation mid-trajectory";
  UKC_CHECK_GE(cdf_.capacity(), scratch_reservation_points_)
      << "ExpectedCostEvaluator: CDF scratch shrank below its "
         "ReserveScratch reservation mid-trajectory";
}

template <typename DistanceOfLocation>
void ExpectedCostEvaluator::FillDistanceTable(
    const uncertain::UncertainDataset& dataset, DistanceOfLocation distance) {
  const metric::SiteId* sites = dataset.flat_sites().data();
  const size_t total = dataset.total_locations();
  distance_table_.resize(total);
  for (size_t l = 0; l < total; ++l) {
    distance_table_[l] = distance(sites[l]);
  }
}

Result<MonteCarloEstimate> ExpectedCostEvaluator::MonteCarloOverTable(
    const uncertain::UncertainDataset& dataset, int64_t samples, Rng& rng) {
  if (samples <= 0) {
    return Status::InvalidArgument("MonteCarloCost: samples must be positive");
  }
  const uncertain::RealizationSampler sampler(dataset);
  const size_t n = dataset.n();
  const size_t* offsets = dataset.offsets().data();

  RunningStats stats;
  for (int64_t s = 0; s < samples; ++s) {
    double worst = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const size_t j = sampler.SamplePoint(rng, i);
      const double d = distance_table_[offsets[i] + j];
      if (d > worst) worst = d;
    }
    stats.Add(worst);
  }

  MonteCarloEstimate estimate;
  estimate.mean = stats.Mean();
  estimate.std_error = stats.StdError();
  estimate.samples = samples;
  return estimate;
}

Result<MonteCarloEstimate> ExpectedCostEvaluator::MonteCarloAssignedCost(
    const uncertain::UncertainDataset& dataset, const Assignment& assignment,
    int64_t samples, Rng& rng) {
  ScratchGuard guard(this);
  if (assignment.size() != dataset.n()) {
    return Status::InvalidArgument("MonteCarloAssignedCost: size mismatch");
  }
  const metric::MetricSpace& space = dataset.space();
  for (size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] < 0 || assignment[i] >= space.num_sites()) {
      return Status::InvalidArgument(
          StrFormat("MonteCarloAssignedCost: assignment[%zu]=%d out of range",
                    i, assignment[i]));
    }
  }
  // Assigned targets vary per point, so the fill walks offsets.
  const metric::SiteId* sites = dataset.flat_sites().data();
  const size_t* offsets = dataset.offsets().data();
  distance_table_.resize(dataset.total_locations());
  for (size_t i = 0; i < dataset.n(); ++i) {
    for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
      distance_table_[l] = space.Distance(sites[l], assignment[i]);
    }
  }
  return MonteCarloOverTable(dataset, samples, rng);
}

Result<MonteCarloEstimate> ExpectedCostEvaluator::MonteCarloUnassignedCost(
    const uncertain::UncertainDataset& dataset,
    const std::vector<metric::SiteId>& centers, int64_t samples, Rng& rng) {
  ScratchGuard guard(this);
  if (centers.empty()) {
    return Status::InvalidArgument("MonteCarloUnassignedCost: no centers");
  }
  const metric::MetricSpace& space = dataset.space();
  for (metric::SiteId c : centers) {
    if (c < 0 || c >= space.num_sites()) {
      return Status::InvalidArgument(
          StrFormat("MonteCarloUnassignedCost: center %d out of range", c));
    }
  }
  FillDistanceTable(dataset, [&](metric::SiteId site) {
    return space.DistanceToSet(site, centers);
  });
  return MonteCarloOverTable(dataset, samples, rng);
}

}  // namespace cost
}  // namespace ukc
