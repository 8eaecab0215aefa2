// Dynamic-churn suite: incremental insert/delete and sliding-window
// expiry, asserted the repo's usual way — bitwise equality against the
// full-rebuild reference, EXPECT_EQ on doubles, no tolerance anywhere.
//
// The properties under test, in rough order of load-bearing-ness:
//   1. Coreset churn: Remove leaves the coreset bitwise equal to a
//      fresh rebuild of the survivors (levels matched via CoarsenTo);
//      ExpireBefore is a pure function of the final watermark, so any
//      call schedule — per point, batched, once at the end — and any
//      shard/merge split land on identical state.
//   2. Serve churn: windowed appends are batch-split invariant,
//      replicas acking the same append/delete sequence answer
//      identically, and the serve.delete / stream.expire fault sites
//      are all-or-nothing (an errored op leaves the tenant bitwise
//      untouched).
//   3. Checkpoint versioning: a v1 sidecar is rejected at load
//      ("unknown version", never partially interpreted) and the ingest
//      layer degrades it to a counted full re-ingest.
//
// The cost layer has no churn path: an UncertainDataset's points are
// fixed at Build, and SwapCostMatrix rebuilds its tables on every call,
// so a changed dataset is just the next call
// (incremental_sweep_test ReusedEvaluatorMatchesFreshOnNextDataset).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "metric/euclidean_space.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "serve/serve.h"
#include "serve/tenant.h"
#include "stream/checkpoint.h"
#include "stream/coreset.h"
#include "stream/ingest.h"
#include "uncertain/chunk.h"
#include "uncertain/dataset.h"
#include "uncertain/io.h"

namespace ukc {
namespace {

using serve::Tenant;
using serve::TenantConfig;
using serve::TenantRegistry;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Coreset churn ----------------------------------------------------------

struct ChurnPoint {
  uint64_t index;
  std::vector<double> coords;
  double spread;
};

std::vector<ChurnPoint> MakeChurnStream(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<ChurnPoint> points;
  points.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ChurnPoint p;
    p.index = i;
    for (size_t d = 0; d < dim; ++d) {
      p.coords.push_back(rng.UniformDouble(-10.0, 10.0));
    }
    p.spread = rng.UniformDouble(0.0, 0.5);
    points.push_back(std::move(p));
  }
  return points;
}

stream::CoresetOptions ChurnOptions(uint64_t bucket, bool members) {
  stream::CoresetOptions options;
  options.max_cells = 32;
  options.base_cell_width = 1e-3;
  options.churn_bucket = bucket;
  options.track_members = members;
  return options;
}

void ExpectCoresetsBitwiseEqual(const stream::StreamingCoreset& a,
                                const stream::StreamingCoreset& b) {
  EXPECT_EQ(a.level(), b.level());
  EXPECT_EQ(a.num_points(), b.num_points());
  const auto cells_a = a.ExtractCells();
  const auto cells_b = b.ExtractCells();
  ASSERT_EQ(cells_a.size(), cells_b.size());
  for (size_t c = 0; c < cells_a.size(); ++c) {
    EXPECT_EQ(cells_a[c].min_index, cells_b[c].min_index);
    EXPECT_EQ(cells_a[c].count, cells_b[c].count);
    EXPECT_EQ(cells_a[c].max_spread, cells_b[c].max_spread);
    EXPECT_EQ(cells_a[c].representative, cells_b[c].representative);
  }
  // Same bytes, too: serialization walks cells in min_index order, so
  // equal state must serialize identically (including bucket state).
  std::string image_a;
  std::string image_b;
  a.SerializeTo(&image_a);
  b.SerializeTo(&image_b);
  EXPECT_EQ(image_a, image_b);
}

// Remove leaves the coreset bitwise equal to a fresh build over the
// survivors. Deletes make the level history-dependent, so both sides
// coarsen to the max of the two levels before comparing (the contract
// CoarsenTo documents).
TEST(CoresetChurnTest, RemoveMatchesFreshRebuildOfSurvivors) {
  const size_t kDim = 2;
  const auto points = MakeChurnStream(400, kDim, 11);
  stream::StreamingCoreset incremental(kDim, metric::Norm::kL2,
                                       ChurnOptions(8, /*members=*/true));
  for (const ChurnPoint& p : points) {
    ASSERT_TRUE(incremental.Add(p.index, p.coords.data(), p.spread).ok());
  }
  // Delete every third point, in a scrambled order.
  Rng rng(77);
  std::vector<size_t> victims;
  for (size_t i = 0; i < points.size(); i += 3) victims.push_back(i);
  for (size_t i = victims.size(); i > 1; --i) {
    std::swap(victims[i - 1], victims[rng.Next() % i]);
  }
  for (size_t v : victims) {
    const ChurnPoint& p = points[v];
    ASSERT_TRUE(incremental.Remove(p.index, p.coords.data(), p.spread).ok());
  }
  stream::StreamingCoreset fresh(kDim, metric::Norm::kL2,
                                 ChurnOptions(8, /*members=*/true));
  for (size_t i = 0; i < points.size(); ++i) {
    if (i % 3 == 0) continue;
    const ChurnPoint& p = points[i];
    ASSERT_TRUE(fresh.Add(p.index, p.coords.data(), p.spread).ok());
  }
  const int level = std::max(incremental.level(), fresh.level());
  ASSERT_TRUE(incremental.CoarsenTo(level).ok());
  ASSERT_TRUE(fresh.CoarsenTo(level).ok());
  ExpectCoresetsBitwiseEqual(incremental, fresh);
}

// Remove verifies the replayed point bit-for-bit before touching any
// aggregate — a wrong replay must error, not corrupt silently.
TEST(CoresetChurnTest, RemoveValidatesTheReplayedPoint) {
  const auto points = MakeChurnStream(20, 2, 13);
  stream::StreamingCoreset coreset(2, metric::Norm::kL2,
                                   ChurnOptions(4, /*members=*/true));
  for (const ChurnPoint& p : points) {
    ASSERT_TRUE(coreset.Add(p.index, p.coords.data(), p.spread).ok());
  }
  const ChurnPoint& p = points[5];
  EXPECT_EQ(coreset.Remove(999, p.coords.data(), p.spread).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(coreset.Remove(p.index, p.coords.data(), p.spread + 1e-9).code(),
            StatusCode::kInvalidArgument);
  std::vector<double> wrong = p.coords;
  wrong[0] += 1e-12;
  EXPECT_EQ(coreset.Remove(p.index, wrong.data(), p.spread).code(),
            StatusCode::kInvalidArgument);
  // The failed attempts changed nothing: the true replay still works.
  EXPECT_TRUE(coreset.Remove(p.index, p.coords.data(), p.spread).ok());
  EXPECT_EQ(coreset.num_points(), points.size() - 1);

  stream::StreamingCoreset no_members(2, metric::Norm::kL2,
                                      ChurnOptions(4, /*members=*/false));
  ASSERT_TRUE(no_members.Add(0, points[0].coords.data(), 0.1).ok());
  EXPECT_EQ(no_members.Remove(0, points[0].coords.data(), 0.1).code(),
            StatusCode::kFailedPrecondition);
}

// Expiry is a pure function of the largest watermark applied: per-point,
// batched, and expire-once schedules all land on identical state, and
// a stale (smaller) watermark is an exact no-op.
TEST(CoresetChurnTest, ExpiryIsScheduleInvariant) {
  const size_t kDim = 2;
  const uint64_t kWindow = 64;
  const auto points = MakeChurnStream(300, kDim, 17);
  const auto options = ChurnOptions(8, /*members=*/false);

  stream::StreamingCoreset per_point(kDim, metric::Norm::kL2, options);
  stream::StreamingCoreset batched(kDim, metric::Norm::kL2, options);
  stream::StreamingCoreset at_end(kDim, metric::Norm::kL2, options);
  uint64_t retired_per_point = 0;
  uint64_t retired_batched = 0;
  for (const ChurnPoint& p : points) {
    ASSERT_TRUE(per_point.Add(p.index, p.coords.data(), p.spread).ok());
    ASSERT_TRUE(batched.Add(p.index, p.coords.data(), p.spread).ok());
    ASSERT_TRUE(at_end.Add(p.index, p.coords.data(), p.spread).ok());
    const uint64_t acked = p.index + 1;
    if (acked > kWindow) {
      retired_per_point += *per_point.ExpireBefore(acked - kWindow);
      if (acked % 29 == 0) {  // A coarser, drifting schedule.
        retired_batched += *batched.ExpireBefore(acked - kWindow);
      }
    }
  }
  const uint64_t final_watermark = points.size() - kWindow;
  retired_batched += *batched.ExpireBefore(final_watermark);
  const uint64_t retired_at_end = *at_end.ExpireBefore(final_watermark);
  EXPECT_EQ(retired_per_point, retired_batched);
  EXPECT_EQ(retired_per_point, retired_at_end);
  ExpectCoresetsBitwiseEqual(per_point, batched);
  ExpectCoresetsBitwiseEqual(per_point, at_end);

  // Monotone: re-applying any smaller watermark retires nothing and
  // changes nothing.
  std::string before;
  per_point.SerializeTo(&before);
  EXPECT_EQ(*per_point.ExpireBefore(final_watermark / 2), 0u);
  std::string after;
  per_point.SerializeTo(&after);
  EXPECT_EQ(before, after);

  // Adds below the retired watermark are rejected — they could never
  // be expired again deterministically.
  EXPECT_EQ(per_point.Add(0, points[0].coords.data(), 0.1).code(),
            StatusCode::kInvalidArgument);
}

// Shard pipelines ack disjoint slices with watermark 0 and expire only
// after the final merge: any shard split must land bitwise on the
// single-stream result.
TEST(CoresetChurnTest, ExpiryIsShardSplitInvariant) {
  const size_t kDim = 2;
  const auto points = MakeChurnStream(240, kDim, 23);
  const auto options = ChurnOptions(8, /*members=*/false);
  const uint64_t watermark = 100;

  stream::StreamingCoreset single(kDim, metric::Norm::kL2, options);
  for (const ChurnPoint& p : points) {
    ASSERT_TRUE(single.Add(p.index, p.coords.data(), p.spread).ok());
  }
  ASSERT_TRUE(single.ExpireBefore(watermark).ok());

  for (size_t shards : {2u, 3u, 5u}) {
    std::vector<stream::StreamingCoreset> shard_sets;
    for (size_t s = 0; s < shards; ++s) {
      shard_sets.emplace_back(kDim, metric::Norm::kL2, options);
    }
    for (const ChurnPoint& p : points) {
      ASSERT_TRUE(shard_sets[p.index % shards]
                      .Add(p.index, p.coords.data(), p.spread)
                      .ok());
    }
    stream::StreamingCoreset merged(kDim, metric::Norm::kL2, options);
    for (const stream::StreamingCoreset& shard : shard_sets) {
      ASSERT_TRUE(merged.MergeFrom(shard).ok());
    }
    ASSERT_TRUE(merged.ExpireBefore(watermark).ok());
    const int level = std::max(single.level(), merged.level());
    ASSERT_TRUE(single.CoarsenTo(level).ok());
    ASSERT_TRUE(merged.CoarsenTo(level).ok());
    ExpectCoresetsBitwiseEqual(merged, single);
  }
}

// --- Serve churn ------------------------------------------------------------

// One deterministic single-point batch (deletes replay these).
uncertain::UncertainPointBatch MakeOnePointBatch(Rng& rng, size_t dim) {
  uncertain::UncertainPointBatch batch;
  batch.dim = dim;
  batch.norm = metric::Norm::kL2;
  batch.offsets.push_back(0);
  const size_t locations = 1 + rng.Next() % 3;
  std::vector<double> weights(locations);
  double total = 0.0;
  for (double& w : weights) {
    w = rng.UniformDouble(0.1, 1.0);
    total += w;
  }
  for (size_t l = 0; l < locations; ++l) {
    for (size_t d = 0; d < dim; ++d) {
      batch.coords.push_back(rng.UniformDouble(-10.0, 10.0));
    }
    batch.probabilities.push_back(weights[l] / total);
  }
  batch.offsets.push_back(locations);
  return batch;
}

// Concatenates single-point batches into one multi-point batch.
uncertain::UncertainPointBatch ConcatBatches(
    const std::vector<uncertain::UncertainPointBatch>& parts, size_t begin,
    size_t end) {
  uncertain::UncertainPointBatch batch;
  batch.dim = parts[begin].dim;
  batch.norm = parts[begin].norm;
  batch.offsets.push_back(0);
  for (size_t i = begin; i < end; ++i) {
    batch.coords.insert(batch.coords.end(), parts[i].coords.begin(),
                        parts[i].coords.end());
    batch.probabilities.insert(batch.probabilities.end(),
                               parts[i].probabilities.begin(),
                               parts[i].probabilities.end());
    batch.offsets.push_back(batch.offsets.back() + parts[i].offsets.back());
  }
  return batch;
}

TenantConfig WindowedConfig(uint64_t window, bool deletes) {
  TenantConfig config;
  config.dim = 2;
  config.norm = metric::Norm::kL2;
  config.k = 3;
  config.coreset.max_cells = 32;
  config.coreset.base_cell_width = 1e-3;
  config.snapshot_every_appends = 0;
  config.window_points = window;
  config.allow_deletes = deletes;
  return config;
}

void ExpectTenantCellsEqual(const Tenant& a, const Tenant& b) {
  const auto cells_a = a.ExtractCells();
  const auto cells_b = b.ExtractCells();
  ASSERT_EQ(cells_a.size(), cells_b.size());
  for (size_t c = 0; c < cells_a.size(); ++c) {
    EXPECT_EQ(cells_a[c].min_index, cells_b[c].min_index);
    EXPECT_EQ(cells_a[c].count, cells_b[c].count);
    EXPECT_EQ(cells_a[c].max_spread, cells_b[c].max_spread);
    EXPECT_EQ(cells_a[c].representative, cells_b[c].representative);
  }
}

// Window expiry runs per acked POINT, so how the stream is cut into
// batches cannot change the coreset — only the op count (epoch) moves.
TEST(ServeChurnTest, WindowedAppendsAreBatchSplitInvariant) {
  const size_t kPoints = 150;
  std::vector<uncertain::UncertainPointBatch> parts;
  Rng rng(321);
  for (size_t i = 0; i < kPoints; ++i) parts.push_back(MakeOnePointBatch(rng, 2));

  Tenant one_by_one("t", WindowedConfig(/*window=*/40, /*deletes=*/false));
  for (const auto& part : parts) {
    ASSERT_TRUE(one_by_one.Append(part).ok());
  }
  Tenant chunked("t", WindowedConfig(/*window=*/40, /*deletes=*/false));
  for (size_t begin = 0; begin < kPoints;) {
    const size_t end = std::min(kPoints, begin + 7);
    ASSERT_TRUE(chunked.Append(ConcatBatches(parts, begin, end)).ok());
    begin = end;
  }
  Tenant single_batch("t", WindowedConfig(/*window=*/40, /*deletes=*/false));
  ASSERT_TRUE(single_batch.Append(ConcatBatches(parts, 0, kPoints)).ok());

  EXPECT_GT(one_by_one.expired_points(), 0u);
  EXPECT_EQ(one_by_one.expired_points(), chunked.expired_points());
  EXPECT_EQ(one_by_one.expired_points(), single_batch.expired_points());
  EXPECT_EQ(one_by_one.next_index(), chunked.next_index());
  ExpectTenantCellsEqual(one_by_one, chunked);
  ExpectTenantCellsEqual(one_by_one, single_batch);
}

// Two registries acking the same append/delete sequence stay bitwise
// identical: same epochs, same content fingerprint, same cells.
TEST(ServeChurnTest, DeleteReplicasStayBitwiseIdentical) {
  serve::RegistryOptions options;
  options.queue_capacity = 512;
  obs::MetricsRegistry metrics_a;
  obs::MetricsRegistry metrics_b;
  options.metrics = &metrics_a;
  TenantRegistry a(options);
  options.metrics = &metrics_b;
  TenantRegistry b(options);
  ASSERT_TRUE(a.CreateTenant("t", WindowedConfig(0, /*deletes=*/true)).ok());
  ASSERT_TRUE(b.CreateTenant("t", WindowedConfig(0, /*deletes=*/true)).ok());

  std::vector<uncertain::UncertainPointBatch> parts;
  Rng rng(55);
  for (size_t i = 0; i < 60; ++i) parts.push_back(MakeOnePointBatch(rng, 2));
  // Interleaved ops: appends with a delete of an earlier index every
  // fourth op. Registry A drains every op, registry B only at the end —
  // the queue preserves submission order either way.
  size_t appended = 0;
  std::vector<uint64_t> deleted;
  for (size_t op = 0; op < parts.size(); ++op) {
    ASSERT_TRUE(a.SubmitAppend("t", parts[op]).ok());
    ASSERT_TRUE(b.SubmitAppend("t", parts[op]).ok());
    ++appended;
    a.Drain();
    if (op % 4 == 3) {
      const uint64_t index = op / 2;  // An already-appended index.
      if (std::find(deleted.begin(), deleted.end(), index) == deleted.end()) {
        deleted.push_back(index);
        ASSERT_TRUE(a.SubmitDelete("t", index, parts[index]).ok());
        ASSERT_TRUE(b.SubmitDelete("t", index, parts[index]).ok());
        a.Drain();
      }
    }
  }
  const auto drained = b.Drain();
  EXPECT_EQ(drained.applied, appended + deleted.size());
  Tenant* ta = a.FindTenant("t");
  Tenant* tb = b.FindTenant("t");
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  EXPECT_EQ(ta->epoch(), tb->epoch());
  EXPECT_EQ(ta->next_index(), tb->next_index());
  EXPECT_EQ(ta->content_fingerprint(), tb->content_fingerprint());
  ExpectTenantCellsEqual(*ta, *tb);
  EXPECT_EQ(a.stats().deletes_applied, deleted.size());
  EXPECT_EQ(b.stats().deletes_applied, deleted.size());
}

// The serve.delete site fires before any mutation: an injected failure
// is counted and leaves the tenant bitwise unchanged.
TEST(ServeChurnTest, DeleteFaultIsAllOrNothing) {
  serve::RegistryOptions options;
  options.degrade_after_failures = 100;  // Keep the watchdog out of the way.
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  TenantRegistry registry(options);
  ASSERT_TRUE(
      registry.CreateTenant("t", WindowedConfig(0, /*deletes=*/true)).ok());
  std::vector<uncertain::UncertainPointBatch> parts;
  Rng rng(91);
  for (size_t i = 0; i < 10; ++i) {
    parts.push_back(MakeOnePointBatch(rng, 2));
    ASSERT_TRUE(registry.SubmitAppend("t", parts.back()).ok());
  }
  registry.Drain();
  Tenant* tenant = registry.FindTenant("t");
  ASSERT_NE(tenant, nullptr);
  const uint64_t epoch = tenant->epoch();
  const uint64_t fingerprint = tenant->content_fingerprint();
  const auto cells = tenant->ExtractCells();
  {
    FaultPlan plan;
    plan.rules.push_back(
        FaultRule{"serve.delete", {0}, 0.0, StatusCode::kInternal, 0});
    ScopedFaultInjection scope(plan);
    ASSERT_TRUE(registry.SubmitDelete("t", 4, parts[4]).ok());
    const auto result = registry.Drain();
    EXPECT_EQ(result.failed, 1u);
  }
  EXPECT_EQ(registry.stats().delete_failures, 1u);
  EXPECT_EQ(tenant->epoch(), epoch);
  EXPECT_EQ(tenant->content_fingerprint(), fingerprint);
  const auto cells_after = tenant->ExtractCells();
  ASSERT_EQ(cells_after.size(), cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    EXPECT_EQ(cells_after[c].representative, cells[c].representative);
  }
  // The boundary cleared: the same delete now applies.
  ASSERT_TRUE(registry.SubmitDelete("t", 4, parts[4]).ok());
  EXPECT_EQ(registry.Drain().applied, 1u);
  EXPECT_EQ(tenant->epoch(), epoch + 1);
}

// Append + expiry is one all-or-nothing unit: an injected stream.expire
// fault fails the whole append with nothing acked and nothing expired.
TEST(ServeChurnTest, ExpireFaultIsAtomicWithItsAppend) {
  Tenant tenant("t", WindowedConfig(/*window=*/8, /*deletes=*/false));
  Rng rng(47);
  std::vector<uncertain::UncertainPointBatch> parts;
  for (size_t i = 0; i < 20; ++i) {
    parts.push_back(MakeOnePointBatch(rng, 2));
    ASSERT_TRUE(tenant.Append(parts.back()).ok());
  }
  const uint64_t epoch = tenant.epoch();
  const uint64_t next_index = tenant.next_index();
  const uint64_t expired = tenant.expired_points();
  const uint64_t fingerprint = tenant.content_fingerprint();
  {
    FaultPlan plan;
    plan.rules.push_back(
        FaultRule{"stream.expire", {0}, 0.0, StatusCode::kInternal, 0});
    ScopedFaultInjection scope(plan);
    const auto next = MakeOnePointBatch(rng, 2);
    EXPECT_EQ(tenant.Append(next).code(), StatusCode::kInternal);
  }
  EXPECT_EQ(tenant.epoch(), epoch);
  EXPECT_EQ(tenant.next_index(), next_index);
  EXPECT_EQ(tenant.expired_points(), expired);
  EXPECT_EQ(tenant.content_fingerprint(), fingerprint);
}

// Deletes are an explicit opt-in; submitting one anywhere else is a
// counted kFailedPrecondition, not a silent drop.
TEST(ServeChurnTest, DeleteRequiresOptIn) {
  serve::RegistryOptions options;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  TenantRegistry registry(options);
  ASSERT_TRUE(
      registry.CreateTenant("t", WindowedConfig(0, /*deletes=*/false)).ok());
  Rng rng(3);
  const auto part = MakeOnePointBatch(rng, 2);
  ASSERT_TRUE(registry.SubmitAppend("t", part).ok());
  registry.Drain();
  EXPECT_EQ(registry.SubmitDelete("t", 0, part).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.stats().deletes_refused, 1u);
  EXPECT_EQ(registry.SubmitDelete("missing", 0, part).code(),
            StatusCode::kNotFound);
}

// A windowed tenant's config fingerprint differs from an unbounded
// one's: a windowed snapshot must never restore into (or be restored
// from) a tenant that would keep every point.
TEST(ServeChurnTest, WindowConfigIsFingerprinted) {
  Tenant unbounded("t", WindowedConfig(0, false));
  Tenant windowed("t", WindowedConfig(64, false));
  Tenant deletes("t", WindowedConfig(0, true));
  EXPECT_NE(unbounded.ConfigFingerprint(), windowed.ConfigFingerprint());
  EXPECT_NE(unbounded.ConfigFingerprint(), deletes.ConfigFingerprint());
  EXPECT_NE(windowed.ConfigFingerprint(), deletes.ConfigFingerprint());
  // The effective config is visible: deletes forced member tracking.
  EXPECT_TRUE(deletes.config().coreset.track_members);
  EXPECT_GT(deletes.config().coreset.churn_bucket, 0u);
  EXPECT_EQ(windowed.config().coreset.churn_bucket, 64u / 16u);
}

// The fingerprint gates snapshot restore, so its value is part of the
// snapshot format: these are the values snapshots already on disk were
// written with, and they must keep restoring.
TEST(ServeChurnTest, ConfigFingerprintValuesArePinned) {
  EXPECT_EQ(Tenant("t", WindowedConfig(0, false)).ConfigFingerprint(),
            0x883e8ea2d36b6252ULL);
  EXPECT_EQ(Tenant("t", WindowedConfig(64, true)).ConfigFingerprint(),
            0x0ff938c43071874eULL);
}

// --- Checkpoint versioning --------------------------------------------------

// Serializes a sidecar in the RETIRED v1 layout (no window fields) with
// a valid checksum, exactly as the pre-churn writer produced it.
std::string SerializeV1Checkpoint() {
  std::string buffer;
  const char magic[8] = {'u', 'k', 'c', 'c', 'k', 'p', 't', '\0'};
  buffer.append(magic, sizeof(magic));
  const uint32_t version = 1;
  buffer.append(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t zeros[5] = {0, 0, 0, 0, 0};  // Fingerprints + cursor.
  buffer.append(reinterpret_cast<const char*>(zeros), sizeof(zeros));
  const uint8_t has_offset = 0;
  buffer.append(reinterpret_cast<const char*>(&has_offset), 1);
  const uint64_t tail[3] = {0, 0, 0};  // Offset, window hash, image size.
  buffer.append(reinterpret_cast<const char*>(tail), sizeof(tail));
  const uint64_t checksum = HashBytes(kHashSeed, buffer.data(), buffer.size());
  buffer.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return buffer;
}

// A v1 sidecar — even with a valid checksum — is rejected wholesale at
// load; its fields are never interpreted.
TEST(CheckpointVersionTest, V1SidecarIsRejectedAtLoad) {
  const std::string path = TempPath("v1_sidecar.ckpt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::string bytes = SerializeV1Checkpoint();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = stream::LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unknown version"),
            std::string::npos)
      << loaded.status();
  std::remove(path.c_str());
}

// The ingest layer degrades the rejected sidecar to a counted full
// re-ingest that still lands on the bitwise-correct coreset.
TEST(CheckpointVersionTest, V1SidecarForcesCountedFullReingest) {
  const std::string checkpoint_path = TempPath("v1_reingest.ckpt");
  std::remove(checkpoint_path.c_str());
  const auto points = MakeChurnStream(120, 2, 29);
  const auto make_factory_source = [&]() {
    size_t cursor = 0;
    return [&points, cursor]() mutable
           -> Result<std::optional<uncertain::UncertainPointBatch>> {
      if (cursor >= points.size()) return std::optional<uncertain::UncertainPointBatch>();
      uncertain::UncertainPointBatch batch;
      batch.dim = 2;
      batch.norm = metric::Norm::kL2;
      batch.offsets = {0, 1};
      batch.coords = points[cursor].coords;
      batch.probabilities = {1.0};
      ++cursor;
      return std::optional<uncertain::UncertainPointBatch>(std::move(batch));
    };
  };
  (void)make_factory_source;

  stream::IngestOptions options;
  options.shards = 2;
  options.checkpoint.path = checkpoint_path;
  options.checkpoint.every_n_batches = 4;
  options.checkpoint.sync = false;
  options.coreset = ChurnOptions(0, false);

  // Build the stream as a dataset file so the resumable factory idiom
  // from the crash-recovery suite applies directly.
  std::vector<uncertain::UncertainPoint> dataset_points;
  auto space = std::make_shared<metric::EuclideanSpace>(2, metric::Norm::kL2);
  for (const ChurnPoint& p : points) {
    dataset_points.push_back(
        std::move(uncertain::UncertainPoint::Build(
                      {uncertain::Location{space->AddCoords(p.coords.data()),
                                           1.0}}))
            .value());
  }
  auto dataset =
      std::move(uncertain::UncertainDataset::Build(space,
                                                   std::move(dataset_points)))
          .value();
  const auto factory = stream::ResumableDatasetFactory(&dataset, 16);
  ThreadPool pool(2);

  stream::IngestStats first_stats;
  auto first = stream::IngestCoreset(2, factory, options, &pool, &first_stats);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first_stats.checkpoint_rejected);
  const auto baseline = first->ExtractCells();

  // Replace the (valid v2) sidecar with the retired v1 layout.
  {
    std::ofstream out(checkpoint_path, std::ios::binary | std::ios::trunc);
    const std::string bytes = SerializeV1Checkpoint();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  stream::IngestStats second_stats;
  auto second = stream::IngestCoreset(2, factory, options, &pool, &second_stats);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second_stats.checkpoint_rejected);
  EXPECT_FALSE(second_stats.restored);
  const auto recovered = second->ExtractCells();
  ASSERT_EQ(recovered.size(), baseline.size());
  for (size_t c = 0; c < baseline.size(); ++c) {
    EXPECT_EQ(recovered[c].min_index, baseline[c].min_index);
    EXPECT_EQ(recovered[c].count, baseline[c].count);
    EXPECT_EQ(recovered[c].max_spread, baseline[c].max_spread);
    EXPECT_EQ(recovered[c].representative, baseline[c].representative);
  }
  std::remove(checkpoint_path.c_str());
}

}  // namespace
}  // namespace ukc
