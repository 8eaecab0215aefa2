// Checkpoint layer (stream/checkpoint.h) and the coreset binary image
// (stream/coreset.h SerializeTo/Deserialize): exact round-trips, and —
// the crash-consistency contract — every corruption mode (byte flips,
// truncation, bad magic/version) detected at load, and a failed save
// leaving the previous checkpoint intact.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "stream/checkpoint.h"
#include "stream/coreset.h"

namespace ukc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

stream::StreamingCoreset MakeCoreset(size_t n, uint64_t seed) {
  stream::CoresetOptions options;
  options.max_cells = 64;
  options.base_cell_width = 1e-3;
  stream::StreamingCoreset coreset(2, metric::Norm::kL2, options);
  Rng rng(seed);
  for (uint64_t i = 0; i < n; ++i) {
    const double coords[2] = {rng.UniformDouble(0.0, 10.0),
                              rng.UniformDouble(0.0, 10.0)};
    EXPECT_TRUE(coreset.Add(i, coords, rng.UniformDouble(0.0, 0.5)).ok());
  }
  return coreset;
}

void ExpectBitwiseEqual(const stream::StreamingCoreset& a,
                        const stream::StreamingCoreset& b) {
  EXPECT_EQ(a.dim(), b.dim());
  EXPECT_EQ(a.norm(), b.norm());
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
}

// --- Coreset image ----------------------------------------------------------

TEST(CoresetSerializationTest, RoundTripIsBitwise) {
  const auto coreset = MakeCoreset(500, 3);
  ASSERT_GT(coreset.num_cells(), 1u);
  std::string image;
  coreset.SerializeTo(&image);
  auto restored = stream::StreamingCoreset::Deserialize(image);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectBitwiseEqual(coreset, *restored);
  // Serializing the restored coreset reproduces the exact bytes (cells
  // are written in min_index order, not hash order).
  std::string reimage;
  restored->SerializeTo(&reimage);
  EXPECT_EQ(image, reimage);
}

TEST(CoresetSerializationTest, EmptyCoresetRoundTrips) {
  stream::CoresetOptions options;
  stream::StreamingCoreset empty(3, metric::Norm::kLInf, options);
  std::string image;
  empty.SerializeTo(&image);
  auto restored = stream::StreamingCoreset::Deserialize(image);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->num_points(), 0u);
  EXPECT_EQ(restored->num_cells(), 0u);
  EXPECT_EQ(restored->norm(), metric::Norm::kLInf);
  EXPECT_EQ(restored->dim(), 3u);
}

TEST(CoresetSerializationTest, RestoredCoresetKeepsAbsorbing) {
  // A restored image is live state, not a snapshot: adding the second
  // half of a stream to it must match the uninterrupted build.
  stream::CoresetOptions options;
  options.max_cells = 32;
  options.base_cell_width = 1e-3;
  const uint64_t n = 400;
  stream::StreamingCoreset full(2, metric::Norm::kL2, options);
  stream::StreamingCoreset half(2, metric::Norm::kL2, options);
  Rng rng(9);
  for (uint64_t i = 0; i < n; ++i) {
    const double coords[2] = {rng.UniformDouble(0.0, 4.0),
                              rng.UniformDouble(0.0, 4.0)};
    const double spread = rng.UniformDouble(0.0, 0.1);
    ASSERT_TRUE(full.Add(i, coords, spread).ok());
    if (i < n / 2) ASSERT_TRUE(half.Add(i, coords, spread).ok());
    if (i == n / 2 - 1) {
      std::string image;
      half.SerializeTo(&image);
      half = std::move(*stream::StreamingCoreset::Deserialize(image));
    }
    if (i >= n / 2) ASSERT_TRUE(half.Add(i, coords, spread).ok());
  }
  ExpectBitwiseEqual(full, half);
}

TEST(CoresetSerializationTest, RejectsTruncationAndTrailingBytes) {
  const auto coreset = MakeCoreset(200, 5);
  std::string image;
  coreset.SerializeTo(&image);
  // Every proper prefix must be rejected (sampled stride to keep the
  // test fast; boundaries 0 and size-1 included).
  for (size_t len = 0; len < image.size(); len += 7) {
    EXPECT_FALSE(
        stream::StreamingCoreset::Deserialize(image.substr(0, len)).ok())
        << "prefix " << len;
  }
  EXPECT_FALSE(
      stream::StreamingCoreset::Deserialize(image.substr(0, image.size() - 1))
          .ok());
  EXPECT_FALSE(stream::StreamingCoreset::Deserialize(image + "x").ok());
}

TEST(CoresetSerializationTest, RejectsCorruptHeaderFields) {
  const auto coreset = MakeCoreset(100, 7);
  std::string image;
  coreset.SerializeTo(&image);
  {
    std::string bad = image;
    bad[0] = static_cast<char>(bad[0] + 1);  // Unknown version.
    EXPECT_FALSE(stream::StreamingCoreset::Deserialize(bad).ok());
  }
  {
    std::string bad = image;
    bad[4] = '\xff';  // Version high bytes.
    EXPECT_FALSE(stream::StreamingCoreset::Deserialize(bad).ok());
  }
}

// --- Checkpoint sidecar -----------------------------------------------------

stream::IngestCheckpoint MakeCheckpoint() {
  stream::IngestCheckpoint checkpoint;
  checkpoint.config_fingerprint = 0x1122334455667788ULL;
  checkpoint.content_fingerprint = 0x99aabbccddeeff00ULL;
  checkpoint.batches = 42;
  checkpoint.points = 42 * 64;
  checkpoint.locations = 42 * 64 * 3;
  checkpoint.has_byte_offset = true;
  checkpoint.byte_offset = 123456789;
  checkpoint.cursor_window_hash = 0x0123456789abcdefULL;
  MakeCoreset(300, 11).SerializeTo(&checkpoint.coreset_image);
  return checkpoint;
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("roundtrip.ckpt");
  const auto saved = MakeCheckpoint();
  ASSERT_TRUE(stream::SaveCheckpoint(path, saved).ok());
  auto loaded = stream::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->config_fingerprint, saved.config_fingerprint);
  EXPECT_EQ(loaded->content_fingerprint, saved.content_fingerprint);
  EXPECT_EQ(loaded->batches, saved.batches);
  EXPECT_EQ(loaded->points, saved.points);
  EXPECT_EQ(loaded->locations, saved.locations);
  EXPECT_EQ(loaded->has_byte_offset, saved.has_byte_offset);
  EXPECT_EQ(loaded->byte_offset, saved.byte_offset);
  EXPECT_EQ(loaded->cursor_window_hash, saved.cursor_window_hash);
  EXPECT_EQ(loaded->coreset_image, saved.coreset_image);
  // No temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  auto loaded = stream::LoadCheckpoint(TempPath("never_written.ckpt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, EveryByteFlipIsDetected) {
  const std::string path = TempPath("flip.ckpt");
  ASSERT_TRUE(stream::SaveCheckpoint(path, MakeCheckpoint()).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);
  // Flip one bit at a sampled stride of positions — the trailing
  // checksum must catch every one of them (flips in the checksum
  // itself included).
  const std::string flipped_path = TempPath("flipped.ckpt");
  for (size_t pos = 0; pos < bytes.size(); pos += 11) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    std::ofstream(flipped_path, std::ios::binary) << corrupt;
    auto loaded = stream::LoadCheckpoint(flipped_path);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << pos;
  }
  // The last byte (checksum tail) as well.
  std::string corrupt = bytes;
  corrupt.back() = static_cast<char>(corrupt.back() ^ 1);
  std::ofstream(flipped_path, std::ios::binary) << corrupt;
  EXPECT_FALSE(stream::LoadCheckpoint(flipped_path).ok());
}

TEST(CheckpointTest, TruncationIsDetected) {
  const std::string path = TempPath("trunc_src.ckpt");
  ASSERT_TRUE(stream::SaveCheckpoint(path, MakeCheckpoint()).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string cut_path = TempPath("trunc.ckpt");
  for (size_t len : {size_t{0}, size_t{4}, size_t{16}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::ofstream(cut_path, std::ios::binary) << bytes.substr(0, len);
    EXPECT_FALSE(stream::LoadCheckpoint(cut_path).ok()) << "len " << len;
  }
}

TEST(CheckpointTest, SaveOverwritesAtomically) {
  const std::string path = TempPath("atomic.ckpt");
  auto first = MakeCheckpoint();
  first.batches = 1;
  ASSERT_TRUE(stream::SaveCheckpoint(path, first).ok());
  auto second = MakeCheckpoint();
  second.batches = 2;
  ASSERT_TRUE(stream::SaveCheckpoint(path, second).ok());
  auto loaded = stream::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->batches, 2u);
}

TEST(CheckpointTest, UnwritableDirectoryFailsCleanly) {
  const Status status = stream::SaveCheckpoint(
      TempPath("no/such/directory/x.ckpt"), MakeCheckpoint());
  EXPECT_FALSE(status.ok());
}

TEST(CheckpointTest, FailedSaveLeavesThePreviousCheckpointIntact) {
  // The crash-consistency claim, exercised at each injection site of
  // the write path: after a failed save the previous checkpoint still
  // loads, bit-for-bit.
  for (const char* site : {"checkpoint.open", "checkpoint.write",
                           "checkpoint.rename"}) {
    SCOPED_TRACE(site);
    const std::string path =
        TempPath(std::string("failed_save_") + site + ".ckpt");
    auto good = MakeCheckpoint();
    good.batches = 7;
    ASSERT_TRUE(stream::SaveCheckpoint(path, good).ok());

    {
      FaultPlan plan;
      plan.rules.push_back(
          FaultRule{site, {0}, 0.0, StatusCode::kUnavailable, 0});
      ScopedFaultInjection scope(plan);
      auto doomed = MakeCheckpoint();
      doomed.batches = 8;
      EXPECT_FALSE(stream::SaveCheckpoint(path, doomed).ok());
    }

    auto loaded = stream::LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->batches, 7u);
    EXPECT_EQ(loaded->coreset_image, good.coreset_image);
  }
}

TEST(CheckpointTest, ReadFaultSurfacesAsLoadError) {
  const std::string path = TempPath("read_fault.ckpt");
  ASSERT_TRUE(stream::SaveCheckpoint(path, MakeCheckpoint()).ok());
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule{"checkpoint.read", {0}, 0.0, StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);
  EXPECT_FALSE(stream::LoadCheckpoint(path).ok());
}

}  // namespace
}  // namespace ukc
