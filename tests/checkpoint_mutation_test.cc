// Mutation harness for the binary recovery images: the checkpoint
// sidecar (stream/checkpoint.h) and the StreamingCoreset image inside
// it (stream/coreset.h SerializeTo).
//
// Mutants of the sidecar get their trailing HashBytes checksum
// recomputed, so the parser — not the checksum — is what must refuse
// them. Every mutant must either make LoadCheckpoint or
// StreamingCoreset::Deserialize return a Status, or yield a coreset
// that passes the invariants stream_test checks of a built one:
// capacity, a positive diameter, an error bound covering the spread,
// strictly ordered cells whose counts sum to the point count.
//
// Mutator draws are pure functions of (seed, site, hit), as fault
// decisions are (common/fault_injection.h). Extra seeds come from
// UKC_FAULTS:
//
//   UKC_FAULTS=11,23 ctest -R checkpoint_mutation

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "stream/checkpoint.h"
#include "stream/coreset.h"

namespace ukc {
namespace {

constexpr size_t kMaxCells = 16;

struct Config {
  const char* name;
  uint64_t churn_bucket;
  bool track_members;
};

const Config kConfigs[] = {
    {"plain", 0, false},
    {"churn", 8, false},
    {"churn+members", 8, true},
};

// 300 random 2-d points under a 16-cell cap (so the level rises), then
// for churn configurations an expiry and, with members, a few deletes.
stream::StreamingCoreset BuildCoreset(const Config& config) {
  stream::CoresetOptions options;
  options.max_cells = kMaxCells;
  options.base_cell_width = 1e-3;
  options.churn_bucket = config.churn_bucket;
  options.track_members = config.track_members;
  stream::StreamingCoreset coreset(2, metric::Norm::kL2, options);
  Rng rng(7);
  std::vector<std::vector<double>> coords;
  std::vector<double> spreads;
  for (uint64_t i = 0; i < 300; ++i) {
    coords.push_back({rng.UniformDouble(-50, 50), rng.UniformDouble(-50, 50)});
    spreads.push_back(rng.UniformDouble(0, 2));
    UKC_CHECK(coreset.Add(i, coords.back().data(), spreads.back()).ok());
  }
  if (config.churn_bucket > 0) UKC_CHECK(coreset.ExpireBefore(40).ok());
  if (config.track_members) {
    for (uint64_t i = 100; i < 110; ++i) {
      UKC_CHECK(coreset.Remove(i, coords[i].data(), spreads[i]).ok());
    }
  }
  return coreset;
}

std::string Image(const stream::StreamingCoreset& coreset) {
  std::string image;
  coreset.SerializeTo(&image);
  return image;
}

// The bytes SaveCheckpoint writes for `coreset`.
std::string SidecarBytes(const stream::StreamingCoreset& coreset) {
  stream::IngestCheckpoint checkpoint;
  checkpoint.config_fingerprint = 11;
  checkpoint.content_fingerprint = 22;
  checkpoint.batches = 5;
  checkpoint.points = coreset.num_points();
  checkpoint.locations = 3 * coreset.num_points();
  checkpoint.has_byte_offset = true;
  checkpoint.byte_offset = 4096;
  checkpoint.cursor_window_hash = 33;
  checkpoint.coreset_image = Image(coreset);
  const std::string path = ::testing::TempDir() + "/mutation_source.ckpt";
  UKC_CHECK(stream::SaveCheckpoint(path, checkpoint, /*sync=*/false).ok());
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

// The invariants stream_test's CapacityAndExtractionInvariants checks of
// an ingested coreset, plus finite spreads and representatives.
void ExpectInvariants(const stream::StreamingCoreset& coreset,
                      const std::string& what) {
  EXPECT_LE(coreset.num_cells(), kMaxCells) << what;
  EXPECT_GT(coreset.diameter(), 0.0) << what;
  EXPECT_GE(coreset.max_spread(), 0.0) << what;
  EXPECT_TRUE(std::isfinite(coreset.max_spread())) << what;
  EXPECT_GE(coreset.error_bound(), coreset.max_spread()) << what;
  const std::vector<stream::StreamingCoreset::Cell> cells =
      coreset.ExtractCells();
  ASSERT_EQ(cells.size(), coreset.num_cells()) << what;
  uint64_t members = 0;
  for (size_t c = 0; c < cells.size(); ++c) {
    members += cells[c].count;
    EXPECT_GT(cells[c].count, 0u) << what;
    ASSERT_EQ(cells[c].representative.size(), coreset.dim()) << what;
    for (const double x : cells[c].representative) {
      EXPECT_TRUE(std::isfinite(x)) << what;
    }
    if (c > 0) EXPECT_LT(cells[c - 1].min_index, cells[c].min_index) << what;
  }
  EXPECT_EQ(members, coreset.num_points()) << what;
}

// --- Mutator ----------------------------------------------------------------

uint64_t Draw(uint64_t seed, const char* site, uint64_t hit) {
  return Mix64(seed ^ HashString(site) ^ Mix64(hit));
}

// 64-bit words that sit on the edges of the fields' domains: zero, one,
// all ones, the sign bit, and the bits of NaN, inf, -1.0 and a huge
// double.
const uint64_t kWords[] = {0,
                           1,
                           ~uint64_t{0},
                           uint64_t{1} << 63,
                           0x7ff8000000000000ULL,
                           0x7ff0000000000000ULL,
                           0xbff0000000000000ULL,
                           0x7fefffffffffffffULL,
                           uint64_t{1} << 32};

// 1-3 edits of bytes[begin, end): a bit flip, an 8-byte overwrite with
// a domain-edge word, an insert or deletion of 1-8 bytes, or a splice
// of up to 32 bytes copied from elsewhere in the input.
std::string Mutate(const std::string& input, size_t begin, size_t end,
                   uint64_t seed, uint64_t mutant) {
  std::string bytes = input;
  const uint64_t edits = 1 + Draw(seed, "mutate.edits", mutant) % 3;
  for (uint64_t e = 0; e < edits; ++e) {
    const uint64_t hit = mutant * 4 + e;
    const size_t span = std::min(end, bytes.size()) - begin;
    if (span == 0) break;
    const size_t pos = begin + Draw(seed, "mutate.position", hit) % span;
    const uint64_t arg = Draw(seed, "mutate.argument", hit);
    switch (Draw(seed, "mutate.kind", hit) % 5) {
      case 0:
        bytes[pos] ^= static_cast<char>(1 << (arg % 8));
        break;
      case 1: {
        const uint64_t word = kWords[arg % std::size(kWords)];
        const size_t width = std::min<size_t>(8, bytes.size() - pos);
        std::memcpy(&bytes[pos], &word, width);
        break;
      }
      case 2:
        bytes.insert(pos, std::string(1 + arg % 8, static_cast<char>(arg >> 8)));
        break;
      case 3:
        bytes.erase(pos, 1 + arg % 8);
        break;
      default: {
        const size_t from = static_cast<size_t>((arg >> 8) % input.size());
        bytes.replace(pos, 1 + arg % 8, input.substr(from, 1 + (arg >> 4) % 32));
        break;
      }
    }
  }
  return bytes;
}

std::vector<uint64_t> Seeds() {
  std::vector<uint64_t> seeds = {1, 2, 3};
  for (const uint64_t seed : FaultSeedsFromEnv()) seeds.push_back(seed);
  return seeds;
}

// --- Tests ------------------------------------------------------------------

TEST(CheckpointMutationTest, UnmutatedImagesRoundTrip) {
  for (const Config& config : kConfigs) {
    const stream::StreamingCoreset coreset = BuildCoreset(config);
    EXPECT_GT(coreset.level(), 0) << config.name;
    auto restored = stream::StreamingCoreset::Deserialize(Image(coreset));
    ASSERT_TRUE(restored.ok()) << config.name << ": " << restored.status();
    EXPECT_EQ(Image(*restored), Image(coreset)) << config.name;
    ExpectInvariants(*restored, config.name);
  }
}

TEST(CheckpointMutationTest, CoresetImageMutantsAreRefusedOrSound) {
  size_t accepted = 0;
  size_t refused = 0;
  for (const uint64_t seed : Seeds()) {
    for (const Config& config : kConfigs) {
      const std::string image = Image(BuildCoreset(config));
      for (uint64_t mutant = 0; mutant < 400; ++mutant) {
        const std::string bytes = Mutate(image, 0, image.size(), seed, mutant);
        auto restored = stream::StreamingCoreset::Deserialize(bytes);
        if (!restored.ok()) {
          ++refused;
          continue;
        }
        ++accepted;
        ExpectInvariants(*restored,
                         StrFormat("%s seed %llu mutant %llu", config.name,
                                   static_cast<unsigned long long>(seed),
                                   static_cast<unsigned long long>(mutant)));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  // Both classes occur, or the harness tests nothing.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(CheckpointMutationTest, SidecarMutantsBehindAValidChecksum) {
  const std::string path = ::testing::TempDir() + "/mutant.ckpt";
  size_t loaded = 0;
  size_t refused = 0;
  for (const uint64_t seed : Seeds()) {
    for (const Config& config : kConfigs) {
      const std::string sidecar = SidecarBytes(BuildCoreset(config));
      const size_t payload = sidecar.size() - sizeof(uint64_t);
      for (uint64_t mutant = 0; mutant < 60; ++mutant) {
        std::string bytes = Mutate(sidecar, 0, payload, seed, mutant);
        // Re-seal the mutated payload with a matching checksum.
        bytes.resize(bytes.size() - sizeof(uint64_t));
        const uint64_t checksum = HashBytes(kHashSeed, bytes.data(), bytes.size());
        bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
        std::remove(path.c_str());
        std::ofstream(path, std::ios::binary) << bytes;

        auto checkpoint = stream::LoadCheckpoint(path);
        if (!checkpoint.ok()) {
          ++refused;
          continue;
        }
        ++loaded;
        auto restored =
            stream::StreamingCoreset::Deserialize(checkpoint->coreset_image);
        if (!restored.ok()) continue;
        ExpectInvariants(*restored,
                         StrFormat("%s seed %llu sidecar mutant %llu",
                                   config.name,
                                   static_cast<unsigned long long>(seed),
                                   static_cast<unsigned long long>(mutant)));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace ukc
