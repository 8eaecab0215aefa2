#include "obs/trace.h"

namespace ukc {
namespace obs {

namespace {

std::string& ThreadPath() {
  thread_local std::string path;
  return path;
}

}  // namespace

namespace internal {
namespace {

double CalibrateSecondsPerTick() {
#if defined(__x86_64__) || defined(_M_X64)
  // Measure the TSC against steady_clock over a ~100 µs spin: with
  // ~25 ns clock-read granularity that bounds the rate error well
  // under 0.1%, plenty for latency histograms with 2x-wide buckets.
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t c0 = TimerTicks();
  auto t1 = t0;
  while (t1 - t0 < std::chrono::microseconds(100)) {
    t1 = std::chrono::steady_clock::now();
  }
  const uint64_t c1 = TimerTicks();
  return std::chrono::duration<double>(t1 - t0).count() /
         static_cast<double>(c1 - c0);
#else
  // TimerTicks IS steady_clock here: one tick per clock duration unit.
  return std::chrono::duration<double>(
             std::chrono::steady_clock::duration(1))
      .count();
#endif
}

}  // namespace

double SecondsPerTick() {
  static const double seconds_per_tick = CalibrateSecondsPerTick();
  return seconds_per_tick;
}

}  // namespace internal

TraceSpan::TraceSpan(std::string_view name, MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Default()),
      start_(internal::TimerTicks()) {
  std::string& path = ThreadPath();
  parent_length_ = path.size();
  if (!path.empty()) path.push_back('.');
  path += name;
}

TraceSpan::~TraceSpan() {
  const double seconds =
      static_cast<double>(internal::TimerTicks() - start_) *
      internal::SecondsPerTick();
  std::string& path = ThreadPath();
  registry_
      ->GetHistogram("ukc_span_seconds", "Wall seconds per trace span",
                     {{"span", path}})
      ->Observe(seconds);
  registry_
      ->GetCounter("ukc_span_total", "Completed trace spans",
                   {{"span", path}})
      ->Increment();
  path.resize(parent_length_);
}

const std::string& TraceSpan::CurrentPath() { return ThreadPath(); }

}  // namespace obs
}  // namespace ukc
