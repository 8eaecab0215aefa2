#include "common/retry.h"

#include <algorithm>
#include <thread>

#include "common/strings.h"

namespace ukc {

std::chrono::nanoseconds BackoffForRetry(const RetryOptions& options,
                                         int retry_number) {
  if (retry_number <= 0 || options.base_backoff.count() <= 0) {
    return std::chrono::nanoseconds(0);
  }
  // Shift saturating well below overflow: 2^62 ns is ~146 years.
  const int shift = std::min(retry_number - 1, 62);
  std::chrono::nanoseconds backoff = options.base_backoff;
  for (int i = 0; i < shift && backoff < options.max_backoff; ++i) {
    backoff += backoff;
  }
  return std::min(backoff, options.max_backoff);
}

namespace {

// Per-site counter handles of one retry boundary, resolved once per
// RetryTransient call (registration is get-or-create; the adds inside
// the loop are lock-free relaxed increments).
struct RetryCounters {
  obs::Counter* attempts;
  obs::Counter* retries;
  obs::Counter* exhausted;
};

RetryCounters CountersForSite(obs::MetricsRegistry& registry,
                              const std::string& site) {
  const obs::LabelList labels = {{"site", site}};
  return RetryCounters{
      registry.GetCounter("ukc_retry_attempts_total",
                          "Operations started under RetryTransient, first "
                          "tries included",
                          labels),
      registry.GetCounter("ukc_retry_retries_total",
                          "Re-tries after a transient failure", labels),
      registry.GetCounter("ukc_retry_exhausted_total",
                          "Retry budgets exhausted (the loop then failed)",
                          labels)};
}

}  // namespace

Status RetryTransient(const RetryOptions& options,
                      obs::MetricsRegistry& metrics, const std::string& site,
                      const std::function<Status()>& op) {
  const int attempts = std::max(1, options.max_attempts);
  const RetryCounters counters = CountersForSite(metrics, site);
  Status last = Status::OK();
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    counters.attempts->Increment();
    last = op();
    if (!last.IsTransientError()) return last;  // Success or permanent.
    if (attempt == attempts) break;
    counters.retries->Increment();
    const std::chrono::nanoseconds backoff = BackoffForRetry(options, attempt);
    if (backoff.count() > 0) {
      if (options.sleeper != nullptr) {
        options.sleeper(backoff);
      } else {
        std::this_thread::sleep_for(backoff);
      }
    }
  }
  counters.exhausted->Increment();
  return last.WithPrefix(
      StrFormat("transient failure persisted after %d attempts", attempts));
}

}  // namespace ukc
