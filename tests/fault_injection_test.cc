// Deterministic fault-injection framework (common/fault_injection.h):
// fire decisions must be a pure function of (seed, site, hit index),
// site rules must match exactly or by '*' prefix, and the disabled
// path (no injector installed) must always return OK. The
// "io.read_block" site of the text reader (uncertain/io.h) must fail
// as a read error and poison the reader.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "stream/ingest.h"
#include "uncertain/io.h"

namespace ukc {
namespace {

TEST(FaultInjectionTest, NoInjectorMeansAlwaysOk) {
  ASSERT_EQ(FaultInjector::Active(), nullptr);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(FaultInjector::Check("ingest.read").ok());
  }
}

TEST(FaultInjectionTest, FiresAtExactlyTheRequestedHits) {
  FaultPlan plan;
  plan.seed = 1;
  plan.rules.push_back(FaultRule{"ingest.read", {2, 5}, 0.0,
                                 StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);
  std::vector<bool> fired;
  for (uint64_t hit = 0; hit < 8; ++hit) {
    fired.push_back(!FaultInjector::Check("ingest.read").ok());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false}));
  EXPECT_EQ(scope.injector().hits("ingest.read"), 8u);
  EXPECT_EQ(scope.injector().fires(), 2u);
}

TEST(FaultInjectionTest, OnlyMatchingSitesAreAffected) {
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule{"checkpoint.write", {0}, 0.0, StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);
  EXPECT_TRUE(FaultInjector::Check("checkpoint.rename").ok());
  EXPECT_TRUE(FaultInjector::Check("ingest.read").ok());
  EXPECT_FALSE(FaultInjector::Check("checkpoint.write").ok());
}

TEST(FaultInjectionTest, PrefixWildcardMatchesTheSubsystem) {
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule{"checkpoint.*", {0}, 0.0, StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);
  EXPECT_FALSE(FaultInjector::Check("checkpoint.open").ok());
  EXPECT_FALSE(FaultInjector::Check("checkpoint.write").ok());
  EXPECT_TRUE(FaultInjector::Check("ingest.read").ok());
}

TEST(FaultInjectionTest, InjectedCodeIsTheRulesCode) {
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule{"io.read_chunk", {0}, 0.0, StatusCode::kInvalidArgument, 0});
  plan.rules.push_back(
      FaultRule{"ingest.read", {0}, 0.0, StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);
  const Status permanent = FaultInjector::Check("io.read_chunk");
  EXPECT_EQ(permanent.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(permanent.IsTransientError());
  const Status transient = FaultInjector::Check("ingest.read");
  EXPECT_EQ(transient.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(transient.IsTransientError());
}

TEST(FaultInjectionTest, MaxFiresCapsTheRule) {
  // probability = 1 would fire every hit; max_fires = 2 models the
  // "two hiccups then healthy" scenario retries recover from.
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule{"ingest.read", {}, 1.0, StatusCode::kUnavailable, 2});
  ScopedFaultInjection scope(plan);
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (!FaultInjector::Check("ingest.read").ok()) ++fires;
  }
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(scope.injector().fires(), 2u);
}

TEST(FaultInjectionTest, ProbabilityDecisionsAreSeedDeterministic) {
  auto decisions = [](uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.rules.push_back(
        FaultRule{"ingest.read", {}, 0.5, StatusCode::kUnavailable, 0});
    ScopedFaultInjection scope(plan);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!FaultInjector::Check("ingest.read").ok());
    }
    return fired;
  };
  const auto run_a = decisions(42);
  const auto run_b = decisions(42);
  EXPECT_EQ(run_a, run_b);  // Same seed: bit-identical decision stream.
  // A p=0.5 rule over 64 hits fires somewhere strictly inside (0, 64)
  // for any reasonable mixer; seed 42 and 43 should disagree somewhere.
  int fires_a = 0;
  for (const bool f : run_a) fires_a += f ? 1 : 0;
  EXPECT_GT(fires_a, 0);
  EXPECT_LT(fires_a, 64);
  EXPECT_NE(run_a, decisions(43));
}

TEST(FaultInjectionTest, DecisionsAreIndependentPerSite) {
  // The same seed must not fire the same hit indices at every site —
  // the site name is part of the hash key.
  FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back(FaultRule{"*", {}, 0.5, StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);
  std::vector<bool> site_a, site_b;
  for (int i = 0; i < 64; ++i) {
    site_a.push_back(!FaultInjector::Check("a.read").ok());
  }
  for (int i = 0; i < 64; ++i) {
    site_b.push_back(!FaultInjector::Check("b.read").ok());
  }
  EXPECT_NE(site_a, site_b);
}

TEST(FaultInjectionTest, ScopeUninstallsOnExit) {
  {
    FaultPlan plan;
    plan.rules.push_back(
        FaultRule{"ingest.read", {0}, 0.0, StatusCode::kUnavailable, 0});
    ScopedFaultInjection scope(plan);
    EXPECT_NE(FaultInjector::Active(), nullptr);
    EXPECT_FALSE(FaultInjector::Check("ingest.read").ok());
  }
  EXPECT_EQ(FaultInjector::Active(), nullptr);
  EXPECT_TRUE(FaultInjector::Check("ingest.read").ok());
}

// A dim-1 text file of `n` one-location points; 20000 points span
// more than five 64 KiB read blocks.
std::string ManyPointsText(size_t n) {
  std::string text = StrFormat("ukc-dataset 1\ndim 1\nn %zu\n", n);
  for (size_t i = 0; i < n; ++i) text += StrFormat("point 1\n1 %zu.5\n", i);
  return text;
}

// Serves the first `fail_at` bytes of `text`, then throws from
// underflow — the stream sees a read that fails mid-block (badbit).
class FailingBuffer : public std::streambuf {
 public:
  FailingBuffer(std::string text, size_t fail_at) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + fail_at);
  }

 protected:
  int_type underflow() override { throw std::runtime_error("disk gone"); }

 private:
  std::string text_;
};

// Every later call on a poisoned reader returns `error` again.
void ExpectPoisoned(uncertain::DatasetReader* reader, const Status& error) {
  uncertain::UncertainPointBatch batch;
  for (int retry = 0; retry < 2; ++retry) {
    auto again = reader->ReadChunk(4, &batch);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), error.code());
    EXPECT_EQ(again.status().message(), error.message());
  }
  const Status seek = reader->SeekTo(0, 0);
  EXPECT_EQ(seek.code(), error.code());
  EXPECT_EQ(seek.message(), error.message());
  EXPECT_FALSE(reader->TellByteOffset().has_value());
}

TEST(ReadBlockFaultTest, InjectedRefillFailureIsAReadErrorAndPoisons) {
  const std::string text = ManyPointsText(20000);
  ASSERT_GT(text.size(), size_t{3} << 16);
  FaultPlan plan;
  // Hit 0 is the header's first block; hit 1 is the refill at byte
  // 65536, in the middle of the first chunk.
  plan.rules.push_back(
      FaultRule{"io.read_block", {1}, 0.0, StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);
  std::istringstream stream(text);
  auto reader = uncertain::DatasetReader::FromStream(stream);
  ASSERT_TRUE(reader.ok()) << reader.status();
  uncertain::UncertainPointBatch batch;
  auto produced = reader->ReadChunk(20000, &batch);
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kInternal);
  EXPECT_EQ(produced.status().message(),
            "DatasetReader: read error at byte offset 65536");
  ExpectPoisoned(&*reader, produced.status());
}

TEST(ReadBlockFaultTest, ShortStreamReadIsAReadErrorNotTruncation) {
  const std::string text = ManyPointsText(20000);
  FailingBuffer buffer(text, 100000);
  std::istream stream(&buffer);
  auto reader = uncertain::DatasetReader::FromStream(stream);
  ASSERT_TRUE(reader.ok()) << reader.status();
  uncertain::UncertainPointBatch batch;
  auto produced = reader->ReadChunk(20000, &batch);
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kInternal);
  EXPECT_EQ(produced.status().message(),
            "DatasetReader: read error at byte offset 65536");
  ExpectPoisoned(&*reader, produced.status());
}

TEST(ReadBlockFaultTest, MalformedRecordPoisonsTheReader) {
  // Point 5's location line is malformed. A second pull must not skip
  // it and go on with point 6.
  std::string text = "ukc-dataset 1\ndim 1\nn 10\n";
  for (int i = 0; i < 10; ++i) {
    text += i == 5 ? "point 1\n1 oops\n" : StrFormat("point 1\n1 %d\n", i);
  }
  std::istringstream stream(text);
  auto reader = uncertain::DatasetReader::FromStream(stream);
  ASSERT_TRUE(reader.ok()) << reader.status();
  uncertain::UncertainPointBatch batch;
  ASSERT_TRUE(reader->ReadChunk(4, &batch).ok());
  auto produced = reader->ReadChunk(4, &batch);
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().message(),
            "ReadChunk: malformed location line for point 5: '1 oops'");
  ExpectPoisoned(&*reader, produced.status());
}

TEST(ReadBlockFaultTest, TransientCodedRefillFaultIsNotRetriedIntoASplice) {
  // A kUnavailable rule on io.read_block would be retried by the ingest
  // pull loop if it surfaced as transient; it surfaces as Internal, and
  // the reader is poisoned besides, so the ingest fails instead of
  // resuming mid-record.
  const std::string path = ::testing::TempDir() + "/read_block_fault.ukc";
  std::ofstream(path) << ManyPointsText(20000);
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule{"io.read_block", {2}, 0.0, StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);
  obs::MetricsRegistry metrics;
  stream::IngestOptions options;
  options.chunk_size = 1000;
  options.shards = 1;
  options.retry.max_attempts = 3;
  options.metrics = &metrics;
  ThreadPool pool(1);
  auto coreset = stream::IngestCoreset(
      1, stream::ResumableFileFactory(path, options.chunk_size), options,
      &pool);
  ASSERT_FALSE(coreset.ok());
  EXPECT_EQ(coreset.status().code(), StatusCode::kInternal);
  EXPECT_NE(coreset.status().message().find(
                "DatasetReader: read error at byte offset"),
            std::string::npos)
      << coreset.status();
  const obs::RegistrySnapshot snapshot = metrics.Snapshot();
  const obs::MetricSnapshot* retries =
      snapshot.Find("ukc_retry_retries_total", {{"site", "ingest.read"}});
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->counter_value, 0u);
}

TEST(FaultSeedsFromEnvTest, ParsesSeedLists) {
  const char* kVar = "UKC_FAULTS_TEST_VAR";
  ::unsetenv(kVar);
  EXPECT_TRUE(FaultSeedsFromEnv(kVar).empty());

  ::setenv(kVar, "1,2,42", 1);
  EXPECT_EQ(FaultSeedsFromEnv(kVar), (std::vector<uint64_t>{1, 2, 42}));

  ::setenv(kVar, " 7  9 ,11 ", 1);  // Spaces and commas both separate.
  EXPECT_EQ(FaultSeedsFromEnv(kVar), (std::vector<uint64_t>{7, 9, 11}));

  ::setenv(kVar, "", 1);
  EXPECT_TRUE(FaultSeedsFromEnv(kVar).empty());

  ::setenv(kVar, "3,banana,5", 1);  // Malformed: all-or-nothing.
  EXPECT_TRUE(FaultSeedsFromEnv(kVar).empty());
  ::unsetenv(kVar);
}

}  // namespace
}  // namespace ukc
