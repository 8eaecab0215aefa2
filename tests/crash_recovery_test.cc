// Randomized crash-recovery property suite for checkpointed ingestion
// (stream/ingest.h IngestCoreset + stream/checkpoint.h).
//
// The property under test: crash an ingestion at a deterministic batch
// via fault injection, re-run against the same sidecar, and the final
// coreset is BITWISE identical to the uninterrupted run — across
// threads {1, 2, 8} × shards {1, 3, 8} × checkpoint cadence {1, 7, 64},
// on both restore paths (seek-positioned file streams and
// replay-verified in-memory streams). Degraded modes must degrade to a
// full re-ingest, never to a wrong coreset: corrupted sidecars, config
// mismatches and stale cursors are detected and rejected.
//
// Extra crash seeds sweep in from the environment (UKC_FAULTS=1,2,42)
// so CI can widen the randomized coverage without a rebuild; see
// docs/operations.md.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "exper/instances.h"
#include "obs/metrics.h"
#include "stream/checkpoint.h"
#include "stream/coreset.h"
#include "stream/ingest.h"
#include "uncertain/io.h"

namespace ukc {
namespace {

constexpr size_t kN = 400;
constexpr size_t kChunk = 16;
// ceil(kN / kChunk): the number of non-empty batches of the stream.
constexpr uint64_t kTotalBatches = (kN + kChunk - 1) / kChunk;

const int kThreadCounts[] = {1, 2, 8};
const int kShardCounts[] = {1, 3, 8};
const uint64_t kCadences[] = {1, 7, 64};

uncertain::UncertainDataset MakeDataset(uint64_t seed) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = kN;
  spec.z = 3;
  spec.dim = 2;
  spec.k = 4;
  spec.spread = 0.5;
  spec.seed = seed;
  return std::move(exper::MakeInstance(spec)).value();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

stream::IngestOptions IngestConfig(int shards, uint64_t cadence,
                                   const std::string& checkpoint_path) {
  stream::IngestOptions options;
  options.chunk_size = kChunk;
  options.shards = shards;
  options.coreset.max_cells = 128;
  options.checkpoint.path = checkpoint_path;
  options.checkpoint.every_n_batches = cadence;
  options.checkpoint.sync = false;  // Logic-only tests skip the fsyncs.
  return options;
}

struct IngestOutcome {
  Status status = Status::OK();
  stream::IngestStats stats;
  std::vector<stream::StreamingCoreset::Cell> cells;
  bool ok = false;
};

IngestOutcome RunOnce(const stream::ResumableSourceFactory& factory, size_t dim,
                  int threads, const stream::IngestOptions& options) {
  ThreadPool pool(threads);
  IngestOutcome out;
  auto coreset = stream::IngestCoreset(dim, factory, options, &pool, &out.stats);
  if (coreset.ok()) {
    out.ok = true;
    out.cells = coreset->ExtractCells();
  } else {
    out.status = coreset.status();
  }
  return out;
}

// One ingest.read retry counter (ukc_retry_<what>_total) as `registry`
// holds it; 0 when no pull has registered the series.
uint64_t ReadRetryCounter(const obs::MetricsRegistry& registry,
                          const char* name) {
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSnapshot* series =
      snapshot.Find(name, {{"site", "ingest.read"}});
  return series == nullptr ? 0u : series->counter_value;
}

void ExpectCellsBitwiseEqual(
    const std::vector<stream::StreamingCoreset::Cell>& got,
    const std::vector<stream::StreamingCoreset::Cell>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].min_index, want[c].min_index);
    EXPECT_EQ(got[c].count, want[c].count);
    EXPECT_EQ(got[c].max_spread, want[c].max_spread);
    EXPECT_EQ(got[c].representative, want[c].representative);
  }
}

// Crashes the ingestion at batch pull `crash_hit` (permanent error, so
// the retry layer does not absorb it), then re-runs against the same
// sidecar and asserts bitwise recovery. Returns whether the recovery
// actually restored from a checkpoint (vs a clean full re-ingest).
bool CrashAndRecover(const stream::ResumableSourceFactory& factory,
                     const std::vector<stream::StreamingCoreset::Cell>& want,
                     int threads, int shards, uint64_t cadence,
                     uint64_t crash_hit, const std::string& checkpoint_path,
                     bool seek_path) {
  std::remove(checkpoint_path.c_str());
  const stream::IngestOptions options =
      IngestConfig(shards, cadence, checkpoint_path);

  bool crashed = false;
  {
    FaultPlan plan;
    plan.rules.push_back(
        FaultRule{"ingest.read", {crash_hit}, 0.0, StatusCode::kInternal, 0});
    ScopedFaultInjection scope(plan);
    const IngestOutcome crash = RunOnce(factory, 2, threads, options);
    crashed = !crash.ok;
    // A crash_hit beyond the stream's pulls (incl. the EOF pull) never
    // fires; the run then completes and already equals the baseline.
    if (crash.ok) ExpectCellsBitwiseEqual(crash.cells, want);
  }

  const IngestOutcome recovery = RunOnce(factory, 2, threads, options);
  EXPECT_TRUE(recovery.ok) << recovery.status;
  if (!recovery.ok) return false;
  ExpectCellsBitwiseEqual(recovery.cells, want);
  // Resumed totals must match an uninterrupted run exactly.
  EXPECT_EQ(recovery.stats.batches, kTotalBatches);
  EXPECT_EQ(recovery.stats.points, kN);
  EXPECT_FALSE(recovery.stats.checkpoint_rejected);
  // Note a completed first run also leaves a (final) sidecar, so the
  // recovery may legitimately restore even when no crash fired.
  (void)crashed;
  if (recovery.stats.restored) {
    EXPECT_GT(recovery.stats.restored_batches, 0u);
    if (seek_path) {
      EXPECT_EQ(recovery.stats.replayed_batches, 0u);
    } else {
      EXPECT_EQ(recovery.stats.replayed_batches,
                recovery.stats.restored_batches);
    }
  }
  return recovery.stats.restored;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new uncertain::UncertainDataset(MakeDataset(101));
    file_path_ = new std::string(TempPath("crash_recovery.ukc"));
    ASSERT_TRUE(uncertain::SaveDatasetToFile(*dataset_, *file_path_).ok());
    // The uninterrupted baseline; the coreset is partition-invariant,
    // so one baseline covers every (threads, shards, cadence) combo.
    const IngestOutcome base =
        RunOnce(stream::ResumableDatasetFactory(dataset_, kChunk), 2, 1,
            IngestConfig(1, 1, ""));
    ASSERT_TRUE(base.ok) << base.status;
    ASSERT_EQ(base.stats.batches, kTotalBatches);
    baseline_ = new std::vector<stream::StreamingCoreset::Cell>(base.cells);
    ASSERT_GT(baseline_->size(), 1u);
  }
  static void TearDownTestSuite() {
    delete baseline_;
    delete file_path_;
    delete dataset_;
  }

  static uncertain::UncertainDataset* dataset_;
  static std::string* file_path_;
  static std::vector<stream::StreamingCoreset::Cell>* baseline_;
};

uncertain::UncertainDataset* CrashRecoveryTest::dataset_ = nullptr;
std::string* CrashRecoveryTest::file_path_ = nullptr;
std::vector<stream::StreamingCoreset::Cell>* CrashRecoveryTest::baseline_ =
    nullptr;

TEST_F(CrashRecoveryTest, SeekPathResumesBitwiseAcrossConfigurations) {
  size_t combo = 0;
  size_t restored_combos = 0;
  for (int threads : kThreadCounts) {
    for (int shards : kShardCounts) {
      for (uint64_t cadence : kCadences) {
        // Deterministic "random" crash point per combo, spread over
        // the whole stream including the EOF pull.
        const uint64_t crash_hit = Mix64(0xc0ffee ^ combo) % (kTotalBatches + 2);
        ++combo;
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " shards=" << shards
                     << " cadence=" << cadence << " crash=" << crash_hit);
        if (CrashAndRecover(
                stream::ResumableFileFactory(*file_path_, kChunk), *baseline_,
                threads, shards, cadence,
                crash_hit, TempPath("seek.ckpt"), /*seek_path=*/true)) {
          ++restored_combos;
        }
      }
    }
  }
  // The sweep must actually exercise the restore path, not just the
  // full-re-ingest fallback.
  EXPECT_GT(restored_combos, 0u);
}

TEST_F(CrashRecoveryTest, ReplayPathResumesBitwiseAcrossConfigurations) {
  size_t combo = 0;
  size_t restored_combos = 0;
  for (int threads : kThreadCounts) {
    for (int shards : kShardCounts) {
      for (uint64_t cadence : kCadences) {
        const uint64_t crash_hit = Mix64(0xdecaf ^ combo) % (kTotalBatches + 2);
        ++combo;
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " shards=" << shards
                     << " cadence=" << cadence << " crash=" << crash_hit);
        if (CrashAndRecover(
                stream::ResumableDatasetFactory(dataset_, kChunk), *baseline_,
                threads, shards, cadence,
                crash_hit, TempPath("replay.ckpt"), /*seek_path=*/false)) {
          ++restored_combos;
        }
      }
    }
  }
  EXPECT_GT(restored_combos, 0u);
}

TEST_F(CrashRecoveryTest, EnvSeedSweepWidensTheCrashCoverage) {
  // Default seeds plus whatever CI passes via UKC_FAULTS.
  std::vector<uint64_t> seeds = {3, 1009};
  for (uint64_t seed : FaultSeedsFromEnv()) seeds.push_back(seed);
  for (uint64_t seed : seeds) {
    const uint64_t crash_hit = Mix64(seed) % (kTotalBatches + 2);
    SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                      << " crash=" << crash_hit);
    CrashAndRecover(stream::ResumableFileFactory(*file_path_, kChunk),
                    *baseline_, /*threads=*/2, /*shards=*/3, /*cadence=*/1,
                    crash_hit, TempPath("sweep.ckpt"), /*seek_path=*/true);
  }
}

TEST_F(CrashRecoveryTest, CrashDuringMergeRecoversBitwise) {
  const std::string checkpoint_path = TempPath("merge_crash.ckpt");
  std::remove(checkpoint_path.c_str());
  const stream::IngestOptions options = IngestConfig(3, 1, checkpoint_path);
  const auto factory = stream::ResumableFileFactory(*file_path_, kChunk);
  {
    FaultPlan plan;
    // The merge tree runs once, at end of stream: with 3 shards it has
    // ceil(log2 3) = 2 stride rounds, so hits 0 and 1 exist.
    plan.rules.push_back(
        FaultRule{"ingest.merge", {1}, 0.0, StatusCode::kInternal, 0});
    ScopedFaultInjection scope(plan);
    EXPECT_FALSE(RunOnce(factory, 2, 2, options).ok);
  }
  const IngestOutcome recovery = RunOnce(factory, 2, 2, options);
  ASSERT_TRUE(recovery.ok) << recovery.status;
  ExpectCellsBitwiseEqual(recovery.cells, *baseline_);
}

TEST_F(CrashRecoveryTest, CorruptSidecarFallsBackToFullReingest) {
  const std::string checkpoint_path = TempPath("corrupt.ckpt");
  const auto factory = stream::ResumableFileFactory(*file_path_, kChunk);
  // Crash mid-stream so a real sidecar exists ...
  CrashAndRecover(factory, *baseline_, 2, 3, 1, kTotalBatches / 2,
                  checkpoint_path, /*seek_path=*/true);
  ASSERT_TRUE(stream::LoadCheckpoint(checkpoint_path).ok());
  // ... then flip one byte of it.
  std::ifstream in(checkpoint_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  std::ofstream(checkpoint_path, std::ios::binary) << bytes;

  const IngestOutcome recovery =
      RunOnce(factory, 2, 2, IngestConfig(3, 1, checkpoint_path));
  ASSERT_TRUE(recovery.ok) << recovery.status;
  EXPECT_TRUE(recovery.stats.checkpoint_rejected);
  EXPECT_FALSE(recovery.stats.restored);
  EXPECT_EQ(recovery.stats.restored_batches, 0u);
  ExpectCellsBitwiseEqual(recovery.cells, *baseline_);
}

TEST_F(CrashRecoveryTest, ConfigMismatchRejectsTheSidecar) {
  const std::string checkpoint_path = TempPath("mismatch.ckpt");
  const auto factory = stream::ResumableFileFactory(*file_path_, kChunk);
  CrashAndRecover(factory, *baseline_, 2, 3, 1, kTotalBatches / 2,
                  checkpoint_path, /*seek_path=*/true);
  ASSERT_TRUE(stream::LoadCheckpoint(checkpoint_path).ok());

  // Same sidecar, different shard count: the group boundaries would
  // differ, so the restore must be rejected — and the full re-ingest
  // still lands on the partition-invariant baseline.
  const IngestOutcome recovery =
      RunOnce(factory, 2, 2, IngestConfig(8, 1, checkpoint_path));
  ASSERT_TRUE(recovery.ok) << recovery.status;
  EXPECT_TRUE(recovery.stats.checkpoint_rejected);
  EXPECT_FALSE(recovery.stats.restored);
  ExpectCellsBitwiseEqual(recovery.cells, *baseline_);

  // Same shard count, but churn settings the checkpointed image does
  // not carry: restoring it would seed the run with a non-churn prefix
  // the churn shards cannot be trusted to merge with, so the sidecar
  // must be rejected and the stream re-ingested under the new settings.
  for (int shards : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    CrashAndRecover(factory, *baseline_, 2, shards, 1, kTotalBatches / 2,
                    checkpoint_path, /*seek_path=*/true);
    ASSERT_TRUE(stream::LoadCheckpoint(checkpoint_path).ok());
    stream::IngestOptions churn = IngestConfig(shards, 1, checkpoint_path);
    churn.coreset.churn_bucket = 16;
    churn.coreset.track_members = true;
    const IngestOutcome rejected = RunOnce(factory, 2, 2, churn);
    ASSERT_TRUE(rejected.ok) << rejected.status;
    EXPECT_TRUE(rejected.stats.checkpoint_rejected);
    EXPECT_FALSE(rejected.stats.restored);
    churn.checkpoint.path.clear();
    const IngestOutcome fresh = RunOnce(factory, 2, 2, churn);
    ASSERT_TRUE(fresh.ok) << fresh.status;
    ExpectCellsBitwiseEqual(rejected.cells, fresh.cells);
  }
}

TEST_F(CrashRecoveryTest, StaleCursorAgainstChangedFileIsRejected) {
  // Checkpoint against the real file, then swap in a file whose bytes
  // differ (points reordered): the seek either fails structural
  // validation or the restore is rejected — never a silently wrong
  // coreset built from a mismatched prefix.
  const std::string moved = TempPath("stale_cursor.ukc");
  {
    std::ifstream in(*file_path_, std::ios::binary);
    std::ofstream out(moved, std::ios::binary);
    out << in.rdbuf();
  }
  const std::string checkpoint_path = TempPath("stale.ckpt");
  const auto factory = stream::ResumableFileFactory(moved, kChunk);
  CrashAndRecover(factory, *baseline_, 1, 1, 1, kTotalBatches / 2,
                  checkpoint_path, /*seek_path=*/true);
  ASSERT_TRUE(stream::LoadCheckpoint(checkpoint_path).ok());

  auto other = MakeDataset(202);  // Different data, same size ballpark.
  ASSERT_TRUE(uncertain::SaveDatasetToFile(other, moved).ok());
  const IngestOutcome recovery = RunOnce(stream::ResumableFileFactory(moved, kChunk),
                                     2, 1, IngestConfig(1, 1, checkpoint_path));
  ASSERT_TRUE(recovery.ok) << recovery.status;
  // Whatever the rejection route, the result must be a clean full
  // ingest of the NEW file.
  const IngestOutcome fresh = RunOnce(stream::ResumableFileFactory(moved, kChunk),
                                  2, 1, IngestConfig(1, 1, ""));
  ASSERT_TRUE(fresh.ok) << fresh.status;
  ExpectCellsBitwiseEqual(recovery.cells, fresh.cells);
}

TEST_F(CrashRecoveryTest, TransientReadFaultIsRetriedInPlace) {
  // One transient hiccup per stream: the retry layer clears it and the
  // run completes without ever touching the checkpoint machinery.
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule{"ingest.read", {5}, 0.0, StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);
  obs::MetricsRegistry metrics;
  stream::IngestOptions options = IngestConfig(3, 1, "");
  options.retry.sleeper = [](std::chrono::nanoseconds) {};
  options.metrics = &metrics;
  const IngestOutcome out =
      RunOnce(stream::ResumableFileFactory(*file_path_, kChunk), 2, 2, options);
  ASSERT_TRUE(out.ok) << out.status;
  EXPECT_GE(ReadRetryCounter(metrics, "ukc_retry_retries_total"), 1u);
  EXPECT_EQ(ReadRetryCounter(metrics, "ukc_retry_exhausted_total"), 0u);
  ExpectCellsBitwiseEqual(out.cells, *baseline_);
}

TEST_F(CrashRecoveryTest, ExhaustedRetriesFailTheRunThenRecover) {
  const std::string checkpoint_path = TempPath("exhaust.ckpt");
  std::remove(checkpoint_path.c_str());
  stream::IngestOptions options = IngestConfig(3, 1, checkpoint_path);
  options.retry.sleeper = [](std::chrono::nanoseconds) {};
  const auto factory = stream::ResumableFileFactory(*file_path_, kChunk);
  {
    // Three consecutive transient failures exhaust the default
    // max_attempts = 3 budget.
    FaultPlan plan;
    plan.rules.push_back(FaultRule{
        "ingest.read", {6, 7, 8}, 0.0, StatusCode::kUnavailable, 0});
    ScopedFaultInjection scope(plan);
    obs::MetricsRegistry metrics;
    stream::IngestOptions faulted = options;
    faulted.metrics = &metrics;
    const IngestOutcome out = RunOnce(factory, 2, 2, faulted);
    ASSERT_FALSE(out.ok);
    EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
    EXPECT_GE(ReadRetryCounter(metrics, "ukc_retry_exhausted_total"), 1u);
  }
  const IngestOutcome recovery = RunOnce(factory, 2, 2, options);
  ASSERT_TRUE(recovery.ok) << recovery.status;
  ExpectCellsBitwiseEqual(recovery.cells, *baseline_);
}

}  // namespace
}  // namespace ukc
