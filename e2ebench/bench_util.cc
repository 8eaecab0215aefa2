#include "bench_util.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace e2e {

void RunResult::Fail(const std::string& what) {
  correct = false;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

void AddUnitLatencies(const std::vector<double>& unit_seconds,
                      RunResult* result) {
  double measured = 0.0;
  for (double seconds : unit_seconds) measured += seconds;
  const double median_s = Median(unit_seconds);
  result->Add("wall_s", median_s, "s");
  result->Add("ops_per_s",
              measured > 0.0 ? static_cast<double>(unit_seconds.size()) / measured
                             : 0.0,
              "ops/s");
  result->Add("query_p50_us", median_s * 1e6, "us");
  result->Add("query_p99_us", median_s * 1e6, "us");
  result->Add("ack_p99_us", median_s * 1e6, "us");
}

void ResetPeakRss() {
#ifdef __GLIBC__
  // Hand the pages the allocator kept from earlier work back to the
  // kernel, so the reset starts from the live set.
  malloc_trim(0);
#endif
  // "5" resets the peak-RSS high-water mark of this process.
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (clear_refs.is_open()) clear_refs << "5";
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

using ukc::obs::LabelList;
using ukc::obs::MetricSnapshot;
using ukc::obs::MetricType;
using ukc::obs::RegistrySnapshot;

// Sum of counter values (or histogram sums / counts) over the matching
// label sets of `name`; `labels` empty matches every label set.
template <typename Field>
double Total(const RegistrySnapshot& snapshot, std::string_view name,
             LabelList labels, Field field) {
  std::sort(labels.begin(), labels.end());
  double total = 0.0;
  for (const MetricSnapshot& metric : snapshot.metrics) {
    if (metric.name != name) continue;
    if (!labels.empty() && metric.labels != labels) continue;
    total += field(metric);
  }
  return total;
}

}  // namespace

uint64_t RegistryDiff::Counter(std::string_view name, LabelList labels) const {
  const auto value = [](const MetricSnapshot& m) {
    return static_cast<double>(m.counter_value);
  };
  return static_cast<uint64_t>(Total(after_, name, labels, value) -
                               Total(before_, name, labels, value));
}

double RegistryDiff::HistogramSum(std::string_view name, LabelList labels) const {
  const auto sum = [](const MetricSnapshot& m) { return m.histogram.sum; };
  return Total(after_, name, labels, sum) - Total(before_, name, labels, sum);
}

uint64_t RegistryDiff::HistogramCount(std::string_view name,
                                      LabelList labels) const {
  const auto count = [](const MetricSnapshot& m) {
    return static_cast<double>(m.histogram.count);
  };
  return static_cast<uint64_t>(Total(after_, name, labels, count) -
                               Total(before_, name, labels, count));
}

}  // namespace e2e
