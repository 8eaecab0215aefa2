// Retry layer (common/retry.h): transient-only classification, the
// deterministic exponential backoff schedule (asserted through a
// recording sleeper, no wall-clock waits), exhaustion annotation, and
// the ukc_retry_*_total counters, read from a private registry.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace ukc {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

constexpr char kSite[] = "test.pull";

// The ukc_retry_*_total counts of one site, as the registry holds them.
struct RetryCounts {
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t exhausted = 0;
};

RetryCounts CountsAt(const obs::MetricsRegistry& registry) {
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::LabelList site = {{"site", kSite}};
  const auto value = [&](const char* name) -> uint64_t {
    const obs::MetricSnapshot* series = snapshot.Find(name, site);
    EXPECT_NE(series, nullptr) << name;
    return series == nullptr ? 0u : series->counter_value;
  };
  return RetryCounts{value("ukc_retry_attempts_total"),
                     value("ukc_retry_retries_total"),
                     value("ukc_retry_exhausted_total")};
}

TEST(BackoffTest, DoublesFromBaseAndCaps) {
  RetryOptions options;
  options.base_backoff = milliseconds(1);
  options.max_backoff = milliseconds(100);
  EXPECT_EQ(BackoffForRetry(options, 1), nanoseconds(milliseconds(1)));
  EXPECT_EQ(BackoffForRetry(options, 2), nanoseconds(milliseconds(2)));
  EXPECT_EQ(BackoffForRetry(options, 3), nanoseconds(milliseconds(4)));
  EXPECT_EQ(BackoffForRetry(options, 7), nanoseconds(milliseconds(64)));
  EXPECT_EQ(BackoffForRetry(options, 8), nanoseconds(milliseconds(100)));
  EXPECT_EQ(BackoffForRetry(options, 60), nanoseconds(milliseconds(100)));
  // Degenerate inputs.
  EXPECT_EQ(BackoffForRetry(options, 0), nanoseconds(0));
  options.base_backoff = nanoseconds(0);
  EXPECT_EQ(BackoffForRetry(options, 3), nanoseconds(0));
}

TEST(RetryTest, SuccessOnFirstTryDoesNotSleep) {
  RetryOptions options;
  int sleeps = 0;
  options.sleeper = [&](nanoseconds) { ++sleeps; };
  obs::MetricsRegistry registry;
  EXPECT_TRUE(
      RetryTransient(options, registry, kSite, [] { return Status::OK(); })
          .ok());
  EXPECT_EQ(sleeps, 0);
  const RetryCounts stats = CountsAt(registry);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(RetryTest, TransientFailuresRetryUntilSuccess) {
  RetryOptions options;
  options.max_attempts = 5;
  std::vector<nanoseconds> schedule;
  options.sleeper = [&](nanoseconds d) { schedule.push_back(d); };
  int calls = 0;
  obs::MetricsRegistry registry;
  const Status status = RetryTransient(options, registry, kSite, [&] {
    ++calls;
    return calls < 3 ? Status::Unavailable("hiccup") : Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  // Two retries: backoff 1ms then 2ms (the deterministic schedule).
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule[0], nanoseconds(milliseconds(1)));
  EXPECT_EQ(schedule[1], nanoseconds(milliseconds(2)));
  const RetryCounts stats = CountsAt(registry);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(RetryTest, PermanentErrorsAreNeverRetried) {
  RetryOptions options;
  options.max_attempts = 5;
  int sleeps = 0;
  options.sleeper = [&](nanoseconds) { ++sleeps; };
  int calls = 0;
  obs::MetricsRegistry registry;
  const Status status = RetryTransient(options, registry, kSite, [&] {
    ++calls;
    return Status::InvalidArgument("malformed record");
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sleeps, 0);
  const RetryCounts stats = CountsAt(registry);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(RetryTest, ExhaustionKeepsTheCodeAndAnnotatesTheMessage) {
  RetryOptions options;
  options.max_attempts = 3;
  options.sleeper = [](nanoseconds) {};
  int calls = 0;
  obs::MetricsRegistry registry;
  const Status status = RetryTransient(options, registry, kSite, [&] {
    ++calls;
    return Status::Unavailable("disk flaky");
  });
  EXPECT_EQ(calls, 3);
  // Still transient-coded (callers can tell it was an I/O problem),
  // with the attempt count in the message.
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("3 attempts"), std::string::npos);
  EXPECT_NE(status.message().find("disk flaky"), std::string::npos);
  const RetryCounts stats = CountsAt(registry);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.exhausted, 1u);
}

TEST(RetryTest, MaxAttemptsOneMeansNoRetry) {
  RetryOptions options;
  options.max_attempts = 1;
  int calls = 0;
  obs::MetricsRegistry registry;
  const Status status = RetryTransient(options, registry, kSite, [&] {
    ++calls;
    return Status::Unavailable("x");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(status.ok());
}

TEST(RetryTest, StatsAccumulateAcrossCalls) {
  RetryOptions options;
  options.max_attempts = 2;
  options.sleeper = [](nanoseconds) {};
  obs::MetricsRegistry registry;
  int calls = 0;
  // First loop: one transient then success. Second loop: clean.
  ASSERT_TRUE(RetryTransient(options, registry, kSite, [&] {
                return ++calls == 1 ? Status::Unavailable("once")
                                    : Status::OK();
              }).ok());
  ASSERT_TRUE(
      RetryTransient(options, registry, kSite, [] { return Status::OK(); })
          .ok());
  const RetryCounts stats = CountsAt(registry);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
}

// Every loop meters ukc_retry_{attempts,retries,exhausted}_total into
// the registry it is handed, labeled by its site; loops at another
// site count apart.
TEST(RetryTest, EmitsCountersThroughTheMetricsRegistry) {
  obs::MetricsRegistry registry;
  RetryOptions options;
  options.max_attempts = 3;
  options.sleeper = [](nanoseconds) {};

  // Loop 1: one transient, then success. Loop 2: every attempt fails
  // transiently — the budget exhausts. Loop 3 runs at another site.
  int calls = 0;
  ASSERT_TRUE(RetryTransient(options, registry, kSite, [&] {
                return ++calls == 1 ? Status::Unavailable("once")
                                    : Status::OK();
              }).ok());
  EXPECT_FALSE(RetryTransient(options, registry, kSite, [] {
                 return Status::Unavailable("always");
               }).ok());
  ASSERT_TRUE(RetryTransient(options, registry, "test.other", [] {
                return Status::OK();
              }).ok());

  const RetryCounts stats = CountsAt(registry);
  EXPECT_EQ(stats.attempts, 5u);  // 2 + 3.
  EXPECT_EQ(stats.retries, 3u);   // 1 + 2.
  EXPECT_EQ(stats.exhausted, 1u);
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSnapshot* other =
      snapshot.Find("ukc_retry_attempts_total", {{"site", "test.other"}});
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->counter_value, 1u);
}

}  // namespace
}  // namespace ukc
