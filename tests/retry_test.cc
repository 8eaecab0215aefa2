// Retry layer (common/retry.h): transient-only classification, the
// deterministic exponential backoff schedule (asserted through a
// recording sleeper, no wall-clock waits), exhaustion annotation, and
// stat accounting.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"

namespace ukc {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

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
  RetryStats stats;
  EXPECT_TRUE(
      RetryTransient(options, [] { return Status::OK(); }, &stats).ok());
  EXPECT_EQ(sleeps, 0);
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
  RetryStats stats;
  const Status status = RetryTransient(
      options,
      [&] {
        ++calls;
        return calls < 3 ? Status::Unavailable("hiccup") : Status::OK();
      },
      &stats);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  // Two retries: backoff 1ms then 2ms (the deterministic schedule).
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule[0], nanoseconds(milliseconds(1)));
  EXPECT_EQ(schedule[1], nanoseconds(milliseconds(2)));
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
  RetryStats stats;
  const Status status = RetryTransient(
      options,
      [&] {
        ++calls;
        return Status::InvalidArgument("malformed record");
      },
      &stats);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sleeps, 0);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(RetryTest, ExhaustionKeepsTheCodeAndAnnotatesTheMessage) {
  RetryOptions options;
  options.max_attempts = 3;
  options.sleeper = [](nanoseconds) {};
  int calls = 0;
  RetryStats stats;
  const Status status = RetryTransient(
      options,
      [&] {
        ++calls;
        return Status::Unavailable("disk flaky");
      },
      &stats);
  EXPECT_EQ(calls, 3);
  // Still transient-coded (callers can tell it was an I/O problem),
  // with the attempt count in the message.
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("3 attempts"), std::string::npos);
  EXPECT_NE(status.message().find("disk flaky"), std::string::npos);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.exhausted, 1u);
}

TEST(RetryTest, MaxAttemptsOneMeansNoRetry) {
  RetryOptions options;
  options.max_attempts = 1;
  int calls = 0;
  const Status status = RetryTransient(options, [&] {
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
  RetryStats stats;
  int calls = 0;
  // First loop: one transient then success. Second loop: clean.
  ASSERT_TRUE(RetryTransient(options,
                             [&] {
                               return ++calls == 1
                                          ? Status::Unavailable("once")
                                          : Status::OK();
                             },
                             &stats)
                  .ok());
  ASSERT_TRUE(RetryTransient(options, [] { return Status::OK(); }, &stats).ok());
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
}

// Every loop also meters ukc_retry_{attempts,retries,exhausted}_total
// into its RetryOptions::metrics registry, labeled by metrics_site —
// the counts must mirror RetryStats exactly.
TEST(RetryTest, EmitsCountersThroughTheMetricsRegistry) {
  obs::MetricsRegistry registry;
  RetryOptions options;
  options.max_attempts = 3;
  options.sleeper = [](nanoseconds) {};
  options.metrics = &registry;
  options.metrics_site = "test.pull";

  // Loop 1: one transient, then success. Loop 2: every attempt fails
  // transiently — the budget exhausts.
  RetryStats stats;
  int calls = 0;
  ASSERT_TRUE(RetryTransient(options,
                             [&] {
                               return ++calls == 1
                                          ? Status::Unavailable("once")
                                          : Status::OK();
                             },
                             &stats)
                  .ok());
  EXPECT_FALSE(
      RetryTransient(options, [] { return Status::Unavailable("always"); },
                     &stats)
          .ok());

  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::LabelList site = {{"site", "test.pull"}};
  const obs::MetricSnapshot* attempts =
      snapshot.Find("ukc_retry_attempts_total", site);
  const obs::MetricSnapshot* retries =
      snapshot.Find("ukc_retry_retries_total", site);
  const obs::MetricSnapshot* exhausted =
      snapshot.Find("ukc_retry_exhausted_total", site);
  ASSERT_NE(attempts, nullptr);
  ASSERT_NE(retries, nullptr);
  ASSERT_NE(exhausted, nullptr);
  EXPECT_EQ(attempts->counter_value, stats.attempts);
  EXPECT_EQ(retries->counter_value, stats.retries);
  EXPECT_EQ(exhausted->counter_value, stats.exhausted);
  EXPECT_EQ(attempts->counter_value, 5u);  // 2 + 3.
  EXPECT_EQ(retries->counter_value, 3u);   // 1 + 2.
  EXPECT_EQ(exhausted->counter_value, 1u);
}

}  // namespace
}  // namespace ukc
