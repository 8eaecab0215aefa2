#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace ukc {
namespace obs {

std::string_view MetricTypeToString(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  UKC_CHECK_GT(start, 0.0);
  UKC_CHECK_GT(factor, 1.0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

const std::vector<double>& LatencyBuckets() {
  static const std::vector<double>* const kBuckets =
      new std::vector<double>(ExponentialBuckets(1e-6, 2.0, 27));
  return *kBuckets;
}

double HistogramSnapshot::Quantile(double q, bool* overflow) const {
  if (overflow != nullptr) *overflow = false;
  if (count == 0 || counts.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const uint64_t next = cumulative + counts[b];
    if (static_cast<double>(next) >= target) {
      // The overflow bucket has no upper bound: the quantile is only
      // known to be at least the last finite edge. Report that edge
      // and flag it, so callers surface ">= X" rather than a value
      // that understates the tail.
      if (b >= bounds.size()) {
        if (overflow != nullptr) *overflow = true;
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lower = b == 0 ? 0.0 : bounds[b - 1];
      const double upper = bounds[b];
      const double into =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[b]);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, into));
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  if (other.counts.empty()) return;
  if (counts.empty()) {
    *this = other;
    return;
  }
  UKC_CHECK(bounds == other.bounds)
      << "HistogramSnapshot::MergeFrom: mismatched bucket bounds";
  for (size_t b = 0; b < counts.size(); ++b) counts[b] += other.counts[b];
  count += other.count;
  sum += other.sum;
}

const MetricSnapshot* RegistrySnapshot::Find(std::string_view name) const {
  for (const MetricSnapshot& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

const MetricSnapshot* RegistrySnapshot::Find(std::string_view name,
                                             LabelList labels) const {
  std::sort(labels.begin(), labels.end());
  for (const MetricSnapshot& metric : metrics) {
    if (metric.name == name && metric.labels == labels) return &metric;
  }
  return nullptr;
}

uint64_t RegistrySnapshot::CounterTotal(std::string_view name) const {
  uint64_t total = 0;
  for (const MetricSnapshot& metric : metrics) {
    if (metric.name == name && metric.type == MetricType::kCounter) {
      total += metric.counter_value;
    }
  }
  return total;
}

HistogramSnapshot RegistrySnapshot::HistogramTotal(
    std::string_view name) const {
  HistogramSnapshot total;
  for (const MetricSnapshot& metric : metrics) {
    if (metric.name == name && metric.type == MetricType::kHistogram) {
      total.MergeFrom(metric.histogram);
    }
  }
  return total;
}

namespace internal {

size_t ShardIndex() {
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

}  // namespace internal

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const internal::ShardCell& cell : shards_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (internal::ShardCell& cell : shards_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  UKC_CHECK(!bounds_.empty()) << "Histogram: at least one bucket bound";
  UKC_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "Histogram: bounds must ascend";
  // Buckets (bounds + overflow) plus the fixed-point sum slot, padded
  // to whole cache lines so shards do not false-share.
  const size_t slots = bounds_.size() + 2;
  stride_ = (slots + 7) / 8 * 8;
  cells_ = std::vector<std::atomic<uint64_t>>(stride_ * internal::kShards);
}

void Histogram::Observe(double value) {
  const size_t bucket =
      std::upper_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  std::atomic<uint64_t>* shard =
      cells_.data() + internal::ShardIndex() * stride_;
  shard[bucket].fetch_add(1, std::memory_order_relaxed);
  // Commutative integer sum (nanounits): deterministic merged total
  // regardless of which thread observed which value. Negative or NaN
  // observations contribute 0 to the sum but still count.
  const double scaled = value * internal::kSumScale;
  const uint64_t fixed =
      std::isfinite(scaled) && scaled > 0.0
          ? static_cast<uint64_t>(std::llround(scaled))
          : 0;
  shard[bounds_.size() + 1].fetch_add(fixed, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.assign(bounds_.size() + 1, 0);
  uint64_t sum_fixed = 0;
  for (size_t s = 0; s < internal::kShards; ++s) {
    const std::atomic<uint64_t>* shard = cells_.data() + s * stride_;
    for (size_t b = 0; b <= bounds_.size(); ++b) {
      snapshot.counts[b] += shard[b].load(std::memory_order_relaxed);
    }
    sum_fixed += shard[bounds_.size() + 1].load(std::memory_order_relaxed);
  }
  for (const uint64_t c : snapshot.counts) snapshot.count += c;
  snapshot.sum = static_cast<double>(sum_fixed) / internal::kSumScale;
  return snapshot;
}

void Histogram::Reset() {
  for (std::atomic<uint64_t>& cell : cells_) {
    cell.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* const kDefault = new MetricsRegistry();
  return *kDefault;
}

namespace {

// Identity key of a metric: name plus sorted labels, with separators
// that cannot appear in Prometheus-legal names.
std::string MetricKey(std::string_view name, const LabelList& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key += k;
    key.push_back('=');
    key += v;
  }
  return key;
}

void AppendLabels(std::string* out, const LabelList& labels,
                  const char* extra_key = nullptr,
                  const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return;
  out->push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out->push_back(',');
    first = false;
    *out += k;
    *out += "=\"";
    *out += v;
    out->push_back('"');
  }
  if (extra_key != nullptr) {
    if (!first) out->push_back(',');
    *out += extra_key;
    *out += "=\"";
    *out += extra_value;
    out->push_back('"');
  }
  out->push_back('}');
}

std::string FormatDouble(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  std::ostringstream out;
  out.precision(12);
  out << value;
  return out.str();
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(std::string_view name,
                                                      std::string_view help,
                                                      LabelList* labels,
                                                      MetricType type) {
  std::sort(labels->begin(), labels->end());
  const std::string key = MetricKey(name, *labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    UKC_CHECK(it->second->type == type)
        << "MetricsRegistry: metric '" << std::string(name)
        << "' re-requested as a different type";
    return it->second;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->type = type;
  entry->labels = std::move(*labels);
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  index_.emplace(key, raw);
  return raw;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help, LabelList labels) {
  Entry* entry = FindOrCreate(name, help, &labels, MetricType::kCounter);
  if (entry->counter == nullptr) entry->counter.reset(new Counter());
  return entry->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 LabelList labels) {
  Entry* entry = FindOrCreate(name, help, &labels, MetricType::kGauge);
  if (entry->gauge == nullptr) entry->gauge.reset(new Gauge());
  return entry->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         LabelList labels,
                                         const std::vector<double>& bounds) {
  Entry* entry = FindOrCreate(name, help, &labels, MetricType::kHistogram);
  if (entry->histogram == nullptr) {
    entry->histogram.reset(new Histogram(bounds));
  }
  return entry->histogram.get();
}

MetricSnapshot MetricsRegistry::SnapshotEntry(const Entry& entry) const {
  MetricSnapshot snapshot;
  snapshot.name = entry.name;
  snapshot.help = entry.help;
  snapshot.type = entry.type;
  snapshot.labels = entry.labels;
  switch (entry.type) {
    case MetricType::kCounter:
      snapshot.counter_value = entry.counter->Value();
      break;
    case MetricType::kGauge:
      snapshot.gauge_value = entry.gauge->Value();
      break;
    case MetricType::kHistogram:
      snapshot.histogram = entry.histogram->Snapshot();
      break;
  }
  return snapshot;
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.metrics.reserve(entries_.size());
  for (const auto& entry : entries_) {
    snapshot.metrics.push_back(SnapshotEntry(*entry));
  }
  return snapshot;
}

std::string MetricsRegistry::ExportPrometheus() const {
  const RegistrySnapshot snapshot = Snapshot();
  std::string out;
  std::string typed;  // Names already given a HELP/TYPE block.
  for (const MetricSnapshot& metric : snapshot.metrics) {
    const std::string marker = "\x1f" + metric.name + "\x1f";
    if (typed.find(marker) == std::string::npos) {
      typed += marker;
      if (!metric.help.empty()) {
        out += "# HELP " + metric.name + " " + metric.help + "\n";
      }
      out += "# TYPE " + metric.name + " " +
             std::string(MetricTypeToString(metric.type)) + "\n";
    }
    switch (metric.type) {
      case MetricType::kCounter:
        out += metric.name;
        AppendLabels(&out, metric.labels);
        out += " " + std::to_string(metric.counter_value) + "\n";
        break;
      case MetricType::kGauge:
        out += metric.name;
        AppendLabels(&out, metric.labels);
        out += " " + std::to_string(metric.gauge_value) + "\n";
        break;
      case MetricType::kHistogram: {
        const HistogramSnapshot& h = metric.histogram;
        uint64_t cumulative = 0;
        for (size_t b = 0; b < h.counts.size(); ++b) {
          cumulative += h.counts[b];
          const std::string le =
              b < h.bounds.size() ? FormatDouble(h.bounds[b]) : "+Inf";
          out += metric.name + "_bucket";
          AppendLabels(&out, metric.labels, "le", le);
          out += " " + std::to_string(cumulative) + "\n";
        }
        out += metric.name + "_sum";
        AppendLabels(&out, metric.labels);
        out += " " + FormatDouble(h.sum) + "\n";
        out += metric.name + "_count";
        AppendLabels(&out, metric.labels);
        out += " " + std::to_string(h.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  const RegistrySnapshot snapshot = Snapshot();
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& metric : snapshot.metrics) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"" + JsonEscape(metric.name) + "\",\"type\":\"" +
           std::string(MetricTypeToString(metric.type)) + "\"";
    if (!metric.labels.empty()) {
      out += ",\"labels\":{";
      bool first_label = true;
      for (const auto& [k, v] : metric.labels) {
        if (!first_label) out.push_back(',');
        first_label = false;
        out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
      }
      out.push_back('}');
    }
    switch (metric.type) {
      case MetricType::kCounter:
        out += ",\"value\":" + std::to_string(metric.counter_value);
        break;
      case MetricType::kGauge:
        out += ",\"value\":" + std::to_string(metric.gauge_value);
        break;
      case MetricType::kHistogram: {
        const HistogramSnapshot& h = metric.histogram;
        out += ",\"count\":" + std::to_string(h.count);
        out += ",\"sum\":" + FormatDouble(h.sum);
        for (const auto& [label, q] :
             {std::pair<const char*, double>{"p50", 0.50},
              {"p95", 0.95},
              {"p99", 0.99}}) {
          bool overflow = false;
          const double value = h.Quantile(q, &overflow);
          out += ",\"" + std::string(label) + "\":" + FormatDouble(value);
          // Overflow-bucket quantiles are lower bounds, not estimates.
          if (overflow) out += ",\"" + std::string(label) + "_lower_bound\":true";
        }
        out += ",\"buckets\":[";
        for (size_t b = 0; b < h.counts.size(); ++b) {
          if (b != 0) out.push_back(',');
          const std::string le =
              b < h.bounds.size() ? FormatDouble(h.bounds[b]) : "\"+Inf\"";
          out += "[" + le + "," + std::to_string(h.counts[b]) + "]";
        }
        out.push_back(']');
        break;
      }
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    switch (entry->type) {
      case MetricType::kCounter:
        entry->counter->Reset();
        break;
      case MetricType::kGauge:
        entry->gauge->Reset();
        break;
      case MetricType::kHistogram:
        entry->histogram->Reset();
        break;
    }
  }
}

size_t MetricsRegistry::NumMetrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace obs
}  // namespace ukc
