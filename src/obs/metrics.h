// Process-wide observability: a metrics registry of counters, gauges
// and fixed-bucket latency histograms, exported as Prometheus text or
// JSON. This is the "which tenant is slow, which stage is hot, how
// often do retries fire" layer for a live process; e2ebench's traced
// per-layer rows are read from it.
//
// Design stance, mirroring the repo's determinism discipline:
//
//   - Metrics live OUTSIDE fingerprinted state. Nothing here feeds a
//     checkpoint fingerprint, a swap-table epoch, or any other
//     correctness decision; deleting every instrumentation site leaves
//     all answers bitwise unchanged (asserted by tests/obs_test.cc,
//     which runs a local search, a streaming solve and a serve script
//     once on a zeroed registry and once on a saturated one).
//   - Hot-path cost is ONE RELAXED ATOMIC ADD: each metric keeps a
//     small fixed array of cache-line-padded per-thread shards (a
//     thread's stable slot is assigned on first touch), so concurrent
//     increments do not contend. Snapshots merge the shards in fixed
//     registry order with commutative integer arithmetic — a snapshot
//     is deterministic given the same event counts, regardless of
//     which thread observed which event.
//   - There is one build: the layer is always compiled in. A build
//     without it measured no faster end to end (docs/operations.md).
//
// Handles returned by MetricsRegistry::Get* are owned by the registry
// and stable for its lifetime; call sites cache them (registration
// takes a mutex, increments never do). Histograms default to
// LatencyBuckets() — 1 µs .. ~67 s exponential — and extract p50/p95/
// p99 by linear interpolation inside the landing bucket. The metric
// inventory lives in docs/operations.md ("Observability").

#ifndef UKC_OBS_METRICS_H_
#define UKC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ukc {
namespace obs {

/// Always true: kept only because the e2e benchmark prints it in its
/// provenance line.
inline constexpr bool kEnabled = true;

/// Label set of one metric: (key, value) pairs, stored sorted by key
/// so {a,b} and {b,a} are one metric.
using LabelList = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

std::string_view MetricTypeToString(MetricType type);

/// Exponential bucket upper bounds: start, start·factor, ... (count
/// bounds; the registry adds the implicit +Inf overflow bucket).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// The default latency ladder: 1 µs .. ~67 s, factor 2 (27 bounds).
/// Wide enough for a shed-path nanosecond count at one end and a
/// checkpointed 10^6-point ingest at the other.
const std::vector<double>& LatencyBuckets();

/// Point-in-time view of one histogram. `counts[i]` is the
/// observations with value <= bounds[i] (non-cumulative per bucket);
/// counts.size() == bounds.size() + 1, the last entry being the +Inf
/// overflow bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;

  /// Quantile estimate (q in [0, 1]) by linear interpolation within
  /// the landing bucket; 0 when empty. When the quantile lands in the
  /// +Inf overflow bucket the true value is unbounded above: the last
  /// finite bound is returned and *overflow (when non-null) is set, so
  /// callers can report "p99 >= X" instead of silently understating
  /// the tail.
  double Quantile(double q, bool* overflow = nullptr) const;
  double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Folds `other` (same bounds; checked) into this snapshot — the
  /// cross-label aggregation the CLI report uses to merge per-tenant
  /// histograms into one latency distribution.
  void MergeFrom(const HistogramSnapshot& other);
};

/// Point-in-time view of one metric.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  LabelList labels;
  uint64_t counter_value = 0;  // kCounter
  int64_t gauge_value = 0;     // kGauge
  HistogramSnapshot histogram; // kHistogram
};

/// Snapshot of a whole registry, in registration order (the fixed
/// merge order that makes snapshots comparable run to run).
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// First metric with this name (any labels), or nullptr.
  const MetricSnapshot* Find(std::string_view name) const;
  /// Metric with exactly these labels, or nullptr. `labels` need not
  /// be pre-sorted.
  const MetricSnapshot* Find(std::string_view name, LabelList labels) const;
  /// Sum of counter_value over every label set of `name`.
  uint64_t CounterTotal(std::string_view name) const;
  /// Merge of every histogram label set of `name` (empty when none).
  HistogramSnapshot HistogramTotal(std::string_view name) const;
};

namespace internal {

/// Per-thread shard slots. 16 covers the pools this repo runs (worker
/// counts 1..8 plus the serving thread); threads beyond that share
/// slots round-robin — still one relaxed add, just potentially
/// contended.
inline constexpr size_t kShards = 16;

/// The calling thread's stable shard slot (assigned round-robin on
/// first touch).
size_t ShardIndex();

struct alignas(64) ShardCell {
  std::atomic<uint64_t> value{0};
};

/// Fixed-point scale of histogram sums: integer nanounits accumulate
/// commutatively, so the merged sum is deterministic given the same
/// observations (a float accumulator would depend on arrival order).
inline constexpr double kSumScale = 1e9;

}  // namespace internal

/// Monotone counter. Add is one relaxed atomic add on the calling
/// thread's shard.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[internal::ShardIndex()].value.fetch_add(n,
                                                    std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Merged value (shards summed in fixed order).
  uint64_t Value() const;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  void Reset();

  std::array<internal::ShardCell, internal::kShards> shards_;
};

/// Last-write-wins instantaneous value (queue depths, resident cells).
/// One relaxed atomic store / add.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram. Observe is two relaxed atomic adds (bucket
/// count + fixed-point sum) after a branch-free upper-bound search
/// over ~27 bounds.
class Histogram {
 public:
  void Observe(double value);

  HistogramSnapshot Snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  void Reset();

  std::vector<double> bounds_;
  // Shard-major layout: slot s owns [s*stride_, s*stride_+buckets]
  // counts plus the fixed-point sum at offset buckets; stride_ is
  // padded to a cache line so shards do not false-share.
  size_t stride_ = 0;
  std::vector<std::atomic<uint64_t>> cells_;
};

/// The registry: named metrics with labels, get-or-create semantics,
/// snapshot/export in registration order. Get* takes a mutex and is
/// called once per handle at setup time; increments through the
/// returned handles never lock. Instantiable so tests and embedded
/// subsystems can meter into a private registry; production code uses
/// the process-wide Default().
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (what a null registry knob resolves to
  /// throughout the repo).
  static MetricsRegistry& Default();

  /// Get-or-create. The (name, labels) pair identifies the metric;
  /// re-requesting it returns the same handle. Requesting an existing
  /// metric as a different type is a programmer error (CHECK).
  Counter* GetCounter(std::string_view name, std::string_view help = "",
                      LabelList labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help = "",
                  LabelList labels = {});
  /// `bounds` must be strictly ascending; it is fixed on first
  /// registration (later calls with different bounds get the original
  /// — bounds are part of the metric's identity contract, not per-call
  /// state).
  Histogram* GetHistogram(std::string_view name, std::string_view help = "",
                          LabelList labels = {},
                          const std::vector<double>& bounds = LatencyBuckets());

  /// Point-in-time snapshot, metrics in registration order.
  RegistrySnapshot Snapshot() const;

  /// Prometheus text exposition format (one # HELP / # TYPE block per
  /// metric name, histogram as cumulative _bucket/_sum/_count series).
  std::string ExportPrometheus() const;
  /// JSON: {"metrics": [...]} with per-histogram bucket arrays and
  /// extracted p50/p95/p99.
  std::string ExportJson() const;

  /// Zeroes every registered metric (handles stay valid). Test hook.
  void Reset();

  size_t NumMetrics() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    LabelList labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(std::string_view name, std::string_view help,
                      LabelList* labels, MetricType type);
  MetricSnapshot SnapshotEntry(const Entry& entry) const;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // Registration order.
  std::unordered_map<std::string, Entry*> index_;
};

}  // namespace obs
}  // namespace ukc

#endif  // UKC_OBS_METRICS_H_
