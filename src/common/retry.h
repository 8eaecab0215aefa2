// Bounded, deterministic retry with exponential backoff for transient
// failures at external-input boundaries (batch sources, file reads).
//
// Classification rides on common/status.h: only IsTransient codes
// (kUnavailable) are retried; every other error propagates on the
// first attempt. The backoff schedule is a pure function of the
// attempt number — base · 2^(attempt-1), capped — so a retried run is
// reproducible; tests substitute the sleeper to record the schedule
// instead of sleeping.
//
// Retrying is only sound when the failed operation did not consume
// input (the injected faults of common/fault_injection.h fire before
// any read; a real mid-record stream failure leaves the stream
// sticky-failed, so the retry re-observes the same permanent error and
// gives up) — callers wrap idempotent pulls, not partial writes.

#ifndef UKC_COMMON_RETRY_H_
#define UKC_COMMON_RETRY_H_

#include <chrono>
#include <functional>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace ukc {

/// Policy of one retry loop.
struct RetryOptions {
  /// Total tries, including the first (>= 1; 1 = no retry).
  int max_attempts = 3;
  /// Backoff before retry r (1-based): base_backoff · 2^(r-1), capped
  /// at max_backoff. The defaults are tuned for local file I/O; see
  /// docs/operations.md for guidance.
  std::chrono::nanoseconds base_backoff = std::chrono::milliseconds(1);
  std::chrono::nanoseconds max_backoff = std::chrono::milliseconds(100);
  /// Sleep hook; null = std::this_thread::sleep_for. Tests inject a
  /// recorder to assert the schedule without wall-clock waits.
  std::function<void(std::chrono::nanoseconds)> sleeper;
};

/// The deterministic backoff before 1-based retry `retry_number`.
std::chrono::nanoseconds BackoffForRetry(const RetryOptions& options,
                                         int retry_number);

/// Runs `op` up to max_attempts times while it fails transiently.
/// Returns the first success, the first permanent error, or — when
/// every attempt failed transiently — the last error annotated with
/// the attempt count. Every loop counts into `metrics` under
/// ukc_retry_{attempts,retries,exhausted}_total{site=`site`}, the
/// only record of its attempts; the site label names the boundary
/// ("ingest.read").
Status RetryTransient(const RetryOptions& options,
                      obs::MetricsRegistry& metrics, const std::string& site,
                      const std::function<Status()>& op);

}  // namespace ukc

#endif  // UKC_COMMON_RETRY_H_
