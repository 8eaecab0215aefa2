// Lightweight trace spans and scoped timers over obs/metrics.h.
//
// A TraceSpan names a region of work; nested spans build a dotted path
// on a thread-local stack ("stream.ingest" inside "solve" records as
// "solve.stream.ingest"). On destruction the span observes its wall
// duration into the histogram `ukc_span_seconds{span="<path>"}` of its
// registry and bumps `ukc_span_total{span="<path>"}` — there is no
// global trace buffer, no id propagation, no sampling: spans ARE
// metrics, which keeps the hot-path cost at two tick reads plus two
// relaxed adds and makes stage latency queryable from the same
// Prometheus surface as every counter.
//
// A ScopedTimer is the span's unlabeled cousin: it times its scope
// into a caller-provided Histogram handle (resolved once at setup, so
// the destructor never touches the registry mutex). Use ScopedTimer on
// per-batch / per-query paths, TraceSpan on per-run stage structure.

#ifndef UKC_OBS_TRACE_H_
#define UKC_OBS_TRACE_H_

#include <chrono>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace ukc {
namespace obs {

namespace internal {

/// Monotonic tick source for interval timing: the TSC on x86-64
/// (constant-rate on any hardware this targets; ~2 ns a read vs
/// ~25 ns for a steady_clock read — the difference between metering
/// a 40 ns cached query invisibly and doubling it), steady_clock
/// elsewhere.
inline uint64_t TimerTicks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Seconds per TimerTicks tick, calibrated once against steady_clock
/// (~100 µs one-time spin at first conversion; never inside a measured
/// interval — both endpoints are read before any conversion happens).
double SecondsPerTick();

}  // namespace internal

/// Scoped wall-clock timer into a pre-resolved histogram handle.
/// Null histogram = measure-only (ElapsedSeconds still works).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_(internal::TimerTicks()) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Observe(ElapsedSeconds());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double ElapsedSeconds() const {
    return static_cast<double>(internal::TimerTicks() - start_) *
           internal::SecondsPerTick();
  }

  /// Detaches the histogram: the destructor records nothing. For
  /// error paths that should not pollute a success-latency series.
  void Cancel() { histogram_ = nullptr; }

 private:
  Histogram* histogram_;
  uint64_t start_;
};

/// Named span; see file comment. Spans must be destroyed in LIFO order
/// per thread (scoped usage guarantees it).
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name,
                     MetricsRegistry* registry = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// The calling thread's current dotted span path ("" outside spans).
  static const std::string& CurrentPath();

 private:
  MetricsRegistry* registry_;
  size_t parent_length_;  // Thread path length to restore on close.
  uint64_t start_;
};

}  // namespace obs
}  // namespace ukc

#define UKC_OBS_CONCAT_INNER_(a, b) a##b
#define UKC_OBS_CONCAT_(a, b) UKC_OBS_CONCAT_INNER_(a, b)
/// Times the enclosing scope into `histogram` (an obs::Histogram*).
#define UKC_OBS_TIMER(histogram) \
  ::ukc::obs::ScopedTimer UKC_OBS_CONCAT_(ukc_obs_timer_, __LINE__)(histogram)
/// Opens a named span over the enclosing scope (default registry).
#define UKC_OBS_SPAN(name) \
  ::ukc::obs::TraceSpan UKC_OBS_CONCAT_(ukc_obs_span_, __LINE__)(name)

#endif  // UKC_OBS_TRACE_H_
