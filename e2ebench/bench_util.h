// Shared plumbing of the end-to-end benchmark: run context, metric
// sink, sample statistics, timed-section peak RSS and registry diffs.
//
// The benchmark measures from the outside: every timing here is taken
// with steady_clock around a call into a public library entry point,
// and every per-layer count is the difference of two
// obs::MetricsRegistry::Default() snapshots taken around the traced
// part of a workload. Nothing in src/ is instrumented for it.

#ifndef UKC_E2EBENCH_BENCH_UTIL_H_
#define UKC_E2EBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Everything a workload needs from the command line.
struct RunContext {
  uint64_t seed = 1;
  /// Target measured time of the run (sum of timed sections).
  double seconds = 10.0;
  /// false: end-to-end metrics; true: the per-layer split.
  bool trace = false;
  /// Per-run scratch directory (files, sidecars, snapshots); removed
  /// when the run ends.
  std::filesystem::path temp_dir;
  /// The one shared pool every workload borrows.
  ukc::ThreadPool* pool = nullptr;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run. `attempted` and `failed` count the
/// workload's operations (one timed section each for solve and stream,
/// one script op for serve); a failed output check counts as a failed
/// operation and also clears `correct`.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First few check failures, for the diagnostic line.
  std::vector<std::string> failures;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check (one failed operation).
  void Fail(const std::string& what);
};

/// Median (mean of the middle two for even sizes); 0 when empty.
double Median(std::vector<double> values);

/// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// The latency metrics of a workload whose operation is one blocking
/// call that both accepts the input and returns the answer (solve,
/// stream): wall_s and the three latencies are the median operation (a
/// run holds about ten, too few for a tail), ops_per_s the operations
/// per measured second.
void AddUnitLatencies(const std::vector<double>& unit_seconds,
                      RunResult* result);

/// Peak resident set of the timed section: ResetPeakRss() trims the
/// allocator's free pages and clears the kernel's high-water mark (Linux
/// /proc/self/clear_refs), PeakRssMiB() reads it back (VmHWM). When the
/// reset is unavailable the process-lifetime peak is reported instead.
void ResetPeakRss();
double PeakRssMiB();

/// Differences of the process-wide registry between two snapshots.
class RegistryDiff {
 public:
  RegistryDiff(const ukc::obs::RegistrySnapshot& before,
               const ukc::obs::RegistrySnapshot& after)
      : before_(before), after_(after) {}

  /// Counter delta, one label set (empty = every label set).
  uint64_t Counter(std::string_view name,
                   ukc::obs::LabelList labels = {}) const;
  /// Histogram sum / count deltas, one label set (empty = merged).
  double HistogramSum(std::string_view name,
                      ukc::obs::LabelList labels = {}) const;
  uint64_t HistogramCount(std::string_view name,
                          ukc::obs::LabelList labels = {}) const;

 private:
  const ukc::obs::RegistrySnapshot& before_;
  const ukc::obs::RegistrySnapshot& after_;
};

inline ukc::obs::RegistrySnapshot Snapshot() {
  return ukc::obs::MetricsRegistry::Default().Snapshot();
}

}  // namespace e2e

#endif  // UKC_E2EBENCH_BENCH_UTIL_H_
