// Wall-clock stopwatch for benchmark harnesses and stage timers.

#ifndef UKC_COMMON_STOPWATCH_H_
#define UKC_COMMON_STOPWATCH_H_

#include <chrono>

namespace ukc {

/// Measures elapsed wall time since construction or the last Reset().
/// Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch from zero.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ukc

#endif  // UKC_COMMON_STOPWATCH_H_
