// Tests for the streaming subsystem (stream/): the chunked dataset
// reader, the mergeable doubling-grid coreset, the sharded ingestion
// layer, and the StreamingUncertainKCenter facade.
//
// The two load-bearing claims are asserted the hard way:
//  * bitwise determinism — the extracted coreset, the chosen centers,
//    and every reported cost are EXPECT_EQ-identical (no tolerance)
//    across threads ∈ {1, 2, 8} × chunk sizes × shard counts;
//  * the approximation bound — with the Gonzalez solver (factor 2) the
//    streamed solution's exact cost obeys
//      Ecost_stream <= 2 · Ecost_direct + 2 · coreset.error_bound(),
//    the guarantee derived in stream/coreset.h, and the verification
//    bracket [lower, upper] contains the exact evaluator cost.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/unassigned.h"
#include "core/uncertain_kcenter.h"
#include "exper/instances.h"
#include "solver/certain_solver.h"
#include "stream/checkpoint.h"
#include "stream/coreset.h"
#include "stream/ingest.h"
#include "stream/pipeline.h"
#include "uncertain/io.h"

namespace ukc {
namespace {

using metric::SiteId;

const int kThreadCounts[] = {1, 2, 8};
const size_t kChunkSizes[] = {1, 7, 64, 4096};
const int kShardCounts[] = {1, 3, 8};

uncertain::UncertainDataset MakeDataset(size_t n, uint64_t seed,
                                        size_t z = 3, double spread = 0.5) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = n;
  spec.z = z;
  spec.dim = 2;
  spec.k = 4;
  spec.spread = spread;
  spec.seed = seed;
  return std::move(exper::MakeInstance(spec)).value();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Chunked reader ---------------------------------------------------------

TEST(DatasetReaderTest, ChunkedRoundTripMatchesFlatLoad) {
  auto dataset = MakeDataset(37, 5);
  const std::string path = TempPath("roundtrip.ukc");
  ASSERT_TRUE(uncertain::SaveDatasetToFile(dataset, path).ok());

  const metric::EuclideanSpace* space = dataset.euclidean();
  const size_t dim = space->dim();
  for (size_t chunk_size : {size_t{1}, size_t{5}, size_t{64}}) {
    auto reader = uncertain::DatasetReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ(reader->dim(), dim);
    EXPECT_EQ(reader->num_points(), dataset.n());

    // Reassemble the stream and compare to the dataset's flat arrays.
    std::vector<double> coords;
    std::vector<double> probabilities;
    std::vector<size_t> locations_per_point;
    uncertain::UncertainPointBatch batch;
    uint64_t expected_start = 0;
    while (true) {
      auto produced = reader->ReadChunk(chunk_size, &batch);
      ASSERT_TRUE(produced.ok()) << produced.status();
      if (*produced == 0) break;
      EXPECT_EQ(batch.start_index, expected_start);
      EXPECT_EQ(batch.n(), *produced);
      expected_start += *produced;
      coords.insert(coords.end(), batch.coords.begin(), batch.coords.end());
      probabilities.insert(probabilities.end(), batch.probabilities.begin(),
                           batch.probabilities.end());
      for (size_t i = 0; i < batch.n(); ++i) {
        locations_per_point.push_back(batch.locations_of(i));
      }
    }
    EXPECT_EQ(reader->num_read(), dataset.n());
    ASSERT_EQ(locations_per_point.size(), dataset.n());
    ASSERT_EQ(probabilities.size(), dataset.total_locations());

    size_t l = 0;
    for (size_t i = 0; i < dataset.n(); ++i) {
      EXPECT_EQ(locations_per_point[i], dataset.num_locations(i));
      const auto view = dataset.point(i);
      for (size_t j = 0; j < view.num_locations(); ++j, ++l) {
        EXPECT_EQ(probabilities[l], view.probability(j));
        const double* site_coords = space->coords(view.site(j));
        for (size_t a = 0; a < dim; ++a) {
          // The writer emits 17 significant digits, so text round-trips
          // reproduce every bit.
          EXPECT_EQ(coords[l * dim + a], site_coords[a]);
        }
      }
    }
  }
}

TEST(DatasetReaderTest, NormRoundTripsThroughTheHeader) {
  // An L1 dataset must come back as L1 — both through LoadDataset and
  // through the chunked reader — so the streaming bracket is computed
  // under the metric the data was written in.
  auto space = std::make_shared<metric::EuclideanSpace>(2, metric::Norm::kL1);
  std::vector<uncertain::UncertainPoint> points;
  for (int i = 0; i < 5; ++i) {
    const metric::SiteId site = space->AddPoint(
        geometry::Point{static_cast<double>(i), static_cast<double>(-i)});
    points.push_back(uncertain::UncertainPoint::Certain(site));
  }
  auto dataset =
      std::move(uncertain::UncertainDataset::Build(space, std::move(points)))
          .value();
  const std::string path = TempPath("l1.ukc");
  ASSERT_TRUE(uncertain::SaveDatasetToFile(dataset, path).ok());

  auto reader = uncertain::DatasetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->norm(), metric::Norm::kL1);

  auto loaded = uncertain::LoadDatasetFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->euclidean()->norm(), metric::Norm::kL1);

  // Files written before the norm line default to L2.
  std::ofstream legacy(TempPath("legacy.ukc"));
  legacy << "ukc-dataset 1\ndim 1\nn 1\npoint 1\n1.0 0.5\n";
  legacy.close();
  auto legacy_reader = uncertain::DatasetReader::Open(TempPath("legacy.ukc"));
  ASSERT_TRUE(legacy_reader.ok()) << legacy_reader.status();
  EXPECT_EQ(legacy_reader->norm(), metric::Norm::kL2);
}

TEST(DatasetReaderTest, RejectsTruncatedFile) {
  auto dataset = MakeDataset(10, 6);
  const std::string full = TempPath("full.ukc");
  ASSERT_TRUE(uncertain::SaveDatasetToFile(dataset, full).ok());
  std::ifstream in(full);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::string cut = TempPath("cut.ukc");
  std::ofstream(cut) << text.substr(0, text.size() * 2 / 3);

  auto reader = uncertain::DatasetReader::Open(cut);
  ASSERT_TRUE(reader.ok()) << reader.status();
  uncertain::UncertainPointBatch batch;
  Status error = Status::OK();
  while (true) {
    auto produced = reader->ReadChunk(4, &batch);
    if (!produced.ok()) {
      error = produced.status();
      break;
    }
    if (*produced == 0) break;
  }
  EXPECT_FALSE(error.ok());
}

TEST(DatasetReaderTest, TruncationErrorCarriesRecordAndByteOffset) {
  // A file cut mid-record: point 1 claims two locations but the stream
  // ends after one. The error must name the failing record and the
  // byte offset where it starts — the operator's pointer into a
  // multi-gigabyte file.
  const std::string text =
      "ukc-dataset 1\ndim 1\nn 2\npoint 2\n0.5 0.0\n0.5 1.0\npoint 2\n0.5 2.0\n";
  const std::string path = TempPath("midrecord.ukc");
  std::ofstream(path) << text;

  auto reader = uncertain::DatasetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  uncertain::UncertainPointBatch batch;
  auto produced = reader->ReadChunk(16, &batch);
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = produced.status().message();
  EXPECT_NE(message.find("record 1"), std::string::npos) << message;
  // The reported offset is exactly where the truncated record begins.
  const size_t record_start = text.rfind("point 2");
  EXPECT_NE(message.find("byte offset " + std::to_string(record_start)),
            std::string::npos)
      << message;
}

TEST(DatasetReaderTest, TellAndSeekResumeMidStream) {
  auto dataset = MakeDataset(30, 8);
  const std::string path = TempPath("seek.ukc");
  ASSERT_TRUE(uncertain::SaveDatasetToFile(dataset, path).ok());

  // Reference: one serial pass.
  std::vector<double> all_coords;
  {
    auto reader = uncertain::DatasetReader::Open(path);
    ASSERT_TRUE(reader.ok());
    uncertain::UncertainPointBatch batch;
    while (true) {
      auto produced = reader->ReadChunk(7, &batch);
      ASSERT_TRUE(produced.ok());
      if (*produced == 0) break;
      all_coords.insert(all_coords.end(), batch.coords.begin(),
                        batch.coords.end());
    }
  }

  // Read 14 points, capture the cursor, and resume a fresh reader
  // there: the tail must be bit-identical to the serial pass.
  auto first = uncertain::DatasetReader::Open(path);
  ASSERT_TRUE(first.ok());
  uncertain::UncertainPointBatch batch;
  std::vector<double> coords;
  ASSERT_TRUE(first->ReadChunk(7, &batch).ok());
  coords.insert(coords.end(), batch.coords.begin(), batch.coords.end());
  ASSERT_TRUE(first->ReadChunk(7, &batch).ok());
  coords.insert(coords.end(), batch.coords.begin(), batch.coords.end());
  const auto cursor = first->TellByteOffset();
  ASSERT_TRUE(cursor.has_value());

  auto resumed = uncertain::DatasetReader::Open(path);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->SeekTo(*cursor, 14).ok());
  uint64_t expected_start = 14;
  while (true) {
    auto produced = resumed->ReadChunk(7, &batch);
    ASSERT_TRUE(produced.ok()) << produced.status();
    if (*produced == 0) break;
    EXPECT_EQ(batch.start_index, expected_start);
    expected_start += *produced;
    coords.insert(coords.end(), batch.coords.begin(), batch.coords.end());
  }
  EXPECT_EQ(resumed->num_read(), dataset.n());
  EXPECT_EQ(coords, all_coords);

  // A cursor that lands mid-record must be rejected structurally, not
  // read through.
  auto stale = uncertain::DatasetReader::Open(path);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->SeekTo(*cursor + 1, 14).ok());
  // And a points_read beyond the header's n is malformed outright.
  auto bad = uncertain::DatasetReader::Open(path);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->SeekTo(*cursor, dataset.n() + 1).ok());
}

// --- Coreset ----------------------------------------------------------------

TEST(StreamingCoresetTest, CapacityAndExtractionInvariants) {
  auto dataset = MakeDataset(1000, 7);
  stream::IngestOptions options;
  options.chunk_size = 128;
  options.coreset.max_cells = 64;
  ThreadPool pool(1);
  stream::IngestStats stats;
  auto coreset = stream::IngestCoreset(
      2, stream::ResumableDatasetFactory(&dataset, options.chunk_size),
      options, &pool, &stats);
  ASSERT_TRUE(coreset.ok()) << coreset.status();

  EXPECT_LE(coreset->num_cells(), options.coreset.max_cells);
  EXPECT_EQ(coreset->num_points(), dataset.n());
  EXPECT_EQ(stats.points, dataset.n());
  EXPECT_EQ(stats.locations, dataset.total_locations());
  EXPECT_GT(coreset->diameter(), 0.0);
  EXPECT_GE(coreset->error_bound(), coreset->max_spread());

  const auto cells = coreset->ExtractCells();
  ASSERT_EQ(cells.size(), coreset->num_cells());
  uint64_t members = 0;
  for (size_t c = 0; c < cells.size(); ++c) {
    members += cells[c].count;
    EXPECT_EQ(cells[c].representative.size(), 2u);
    if (c > 0) EXPECT_LT(cells[c - 1].min_index, cells[c].min_index);
  }
  EXPECT_EQ(members, dataset.n());
}

// The ingest oracle: every point folded in stream order into one
// coreset through SummarizeBatchPoint + StreamingCoreset::Add — no
// shards, no groups, no reader thread.
stream::StreamingCoreset SerialFold(const uncertain::UncertainDataset& dataset,
                                    const stream::CoresetOptions& options) {
  stream::StreamingCoreset coreset(2, metric::Norm::kL2, options);
  auto source = stream::MakeDatasetBatchSource(&dataset, 64);
  EXPECT_TRUE(source.ok()) << source.status();
  uncertain::UncertainPointBatch batch;
  std::vector<double> expected(2);
  while (true) {
    auto more = (*source)(&batch);
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    for (size_t i = 0; i < batch.n(); ++i) {
      const double spread =
          stream::SummarizeBatchPoint(batch, i, expected.data());
      EXPECT_TRUE(
          coreset.Add(batch.start_index + i, expected.data(), spread).ok());
    }
  }
  return coreset;
}

TEST(StreamingCoresetTest, BitwisePartitionInvariance) {
  auto dataset = MakeDataset(500, 11);
  stream::CoresetOptions coreset_options;
  coreset_options.max_cells = 128;
  const stream::StreamingCoreset baseline = SerialFold(dataset, coreset_options);
  const auto baseline_cells = baseline.ExtractCells();
  ASSERT_GT(baseline_cells.size(), 1u);

  for (int threads : kThreadCounts) {
    for (size_t chunk_size : kChunkSizes) {
      for (int shards : kShardCounts) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " chunk=" << chunk_size
                                          << " shards=" << shards);
        ThreadPool pool(threads);
        stream::IngestOptions options;
        options.chunk_size = chunk_size;
        options.shards = shards;
        options.coreset = coreset_options;
        stream::IngestStats stats;
        auto coreset = stream::IngestCoreset(
            2, stream::ResumableDatasetFactory(&dataset, chunk_size), options,
            &pool, &stats);
        ASSERT_TRUE(coreset.ok()) << coreset.status();
        EXPECT_EQ(stats.points, dataset.n());
        EXPECT_EQ(stats.batches, (dataset.n() + chunk_size - 1) / chunk_size);
        EXPECT_EQ(coreset->level(), baseline.level());
        const auto cells = coreset->ExtractCells();
        ASSERT_EQ(cells.size(), baseline_cells.size());
        for (size_t c = 0; c < cells.size(); ++c) {
          EXPECT_EQ(cells[c].min_index, baseline_cells[c].min_index);
          EXPECT_EQ(cells[c].count, baseline_cells[c].count);
          EXPECT_EQ(cells[c].max_spread, baseline_cells[c].max_spread);
          EXPECT_EQ(cells[c].representative, baseline_cells[c].representative);
        }
      }
    }
  }
}

TEST(StreamingCoresetTest, MemoryBoundedByCellsNotInput) {
  stream::CoresetOptions coreset_options;
  coreset_options.max_cells = 256;
  // A generous fixed budget for 256 cells in 2-d — the point is that it
  // does not move when n grows 10x.
  const size_t kBudget = 256 * 1024;
  for (size_t n : {size_t{2000}, size_t{20000}}) {
    auto dataset = MakeDataset(n, 13);
    ThreadPool pool(1);
    stream::IngestOptions options;
    options.chunk_size = 512;
    options.coreset = coreset_options;
    auto coreset = stream::IngestCoreset(
        2, stream::ResumableDatasetFactory(&dataset, options.chunk_size),
        options, &pool);
    ASSERT_TRUE(coreset.ok());
    EXPECT_LE(coreset->num_cells(), coreset_options.max_cells);
    EXPECT_LE(coreset->ApproxMemoryBytes(), kBudget) << "n=" << n;
  }
}

// ExtractRepresentatives must be the flattened ExtractCells, bit for
// bit, whatever history produced the cell table.
void ExpectRepresentativesMatchCells(const stream::StreamingCoreset& coreset) {
  std::vector<double> expected;
  for (const auto& cell : coreset.ExtractCells()) {
    expected.insert(expected.end(), cell.representative.begin(),
                    cell.representative.end());
  }
  // Stale scratch content must be overwritten, not appended to.
  std::vector<double> reps(3 * coreset.dim() + 1, 42.0);
  coreset.ExtractRepresentatives(&reps);
  ASSERT_EQ(reps.size(), coreset.num_cells() * coreset.dim());
  ASSERT_EQ(reps.size(), expected.size());
  for (size_t i = 0; i < reps.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(reps[i]),
              std::bit_cast<uint64_t>(expected[i]))
        << "coordinate " << i;
  }
}

TEST(StreamingCoresetTest, ExtractRepresentativesMatchesFlattenedCells) {
  struct Member {
    uint64_t index;
    std::vector<double> coords;
    double spread;
  };
  const size_t dim = 2;
  for (int mode = 0; mode < 3; ++mode) {  // plain, churn, track_members.
    SCOPED_TRACE(::testing::Message() << "mode=" << mode);
    stream::CoresetOptions options;
    options.max_cells = 32;
    options.base_cell_width = 1e-3;
    options.churn_bucket = mode > 0 ? 8 : 0;
    options.track_members = mode == 2;

    // Two shards over disjoint index ranges; coordinates include exact
    // signed zeros so representatives carry -0.0 bits.
    Rng rng(97 + mode);
    std::vector<Member> members;
    stream::StreamingCoreset first(dim, metric::Norm::kL2, options);
    stream::StreamingCoreset second(dim, metric::Norm::kL2, options);
    ExpectRepresentativesMatchCells(first);  // Empty.
    for (uint64_t index = 0; index < 600; ++index) {
      Member member{index, {}, rng.UniformDouble(0.0, 0.1)};
      for (size_t a = 0; a < dim; ++a) {
        const int64_t pick = rng.UniformInt(0, 9);
        member.coords.push_back(pick == 0   ? -0.0
                                : pick == 1 ? 0.0
                                            : rng.UniformDouble(-5.0, 5.0));
      }
      stream::StreamingCoreset& shard = index < 300 ? first : second;
      ASSERT_TRUE(
          shard.Add(index, member.coords.data(), member.spread).ok());
      members.push_back(std::move(member));
    }
    ExpectRepresentativesMatchCells(first);
    ASSERT_TRUE(first.MergeFrom(second).ok());
    ExpectRepresentativesMatchCells(first);
    if (mode == 0) continue;

    ASSERT_TRUE(first.ExpireBefore(200).ok());
    ExpectRepresentativesMatchCells(first);
    if (mode == 1) continue;

    // Delete the owners of the first few cells: their representatives
    // re-fold onto other members.
    for (int round = 0; round < 3; ++round) {
      const uint64_t owner = first.ExtractCells().front().min_index;
      const Member& member = members[owner];
      ASSERT_TRUE(
          first.Remove(owner, member.coords.data(), member.spread).ok());
      ExpectRepresentativesMatchCells(first);
    }
  }
}

TEST(StreamingIngestTest, EmptyStreamIsRejected) {
  ThreadPool pool(2);
  stream::IngestOptions options;
  const auto empty = []() -> Result<stream::BatchSource> {
    return stream::MakeProducerBatchSource(
        2, [](std::vector<double>*, std::vector<double>*) { return false; },
        16);
  };
  auto coreset = stream::IngestCoreset(2, stream::AdaptBatchFactory(empty),
                                       options, &pool);
  ASSERT_FALSE(coreset.ok());
  EXPECT_EQ(coreset.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(coreset.status().message(), "ingest: empty stream");
}

// A norm switch in the second batch fails the run while the reader
// thread is already prefetching the third; the error return must still
// stop and join it (run under TSan/ASan).
TEST(StreamingIngestTest, MidStreamNormSwitchIsRejected) {
  auto dataset = MakeDataset(200, 3);
  ThreadPool pool(2);
  stream::IngestOptions options;
  options.shards = 1;
  const auto switching = [&dataset]() -> Result<stream::BatchSource> {
    UKC_ASSIGN_OR_RETURN(stream::BatchSource next,
                         stream::MakeDatasetBatchSource(&dataset, 16));
    auto pulls = std::make_shared<size_t>(0);
    return stream::BatchSource(
        [next, pulls](uncertain::UncertainPointBatch* batch) -> Result<bool> {
          UKC_ASSIGN_OR_RETURN(bool more, next(batch));
          if (++*pulls > 1) batch->norm = metric::Norm::kL1;
          return more;
        });
  };
  for (int round = 0; round < 20; ++round) {
    auto coreset = stream::IngestCoreset(
        2, stream::AdaptBatchFactory(switching), options, &pool);
    ASSERT_FALSE(coreset.ok());
    EXPECT_EQ(coreset.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(coreset.status().message(),
              "ingest: batch norm changed mid-stream");
  }
}

TEST(StreamingIngestTest, CheckpointedIngestMatchesPlainIngest) {
  // Checkpointing on a healthy run must not change the coreset (the
  // content fingerprinting and periodic saves are pure observers).
  auto dataset = MakeDataset(300, 23);
  const std::string path = TempPath("healthy.ukc");
  ASSERT_TRUE(uncertain::SaveDatasetToFile(dataset, path).ok());

  auto run = [&](const std::string& checkpoint_path) {
    ThreadPool pool(2);
    stream::IngestOptions options;
    options.chunk_size = 32;
    options.shards = 3;
    options.coreset.max_cells = 128;
    options.checkpoint.path = checkpoint_path;
    options.checkpoint.every_n_batches = 2;
    options.checkpoint.sync = false;
    stream::IngestStats stats;
    auto coreset =
        stream::IngestCoreset(2, stream::ResumableFileFactory(path, 32),
                              options, &pool, &stats);
    EXPECT_TRUE(coreset.ok()) << coreset.status();
    return std::make_pair(coreset->ExtractCells(), stats);
  };

  const auto [plain_cells, plain_stats] = run("");
  EXPECT_EQ(plain_stats.checkpoint_saves, 0u);
  const std::string sidecar = TempPath("healthy.ckpt");
  std::remove(sidecar.c_str());
  const auto [ckpt_cells, ckpt_stats] = run(sidecar);
  EXPECT_GT(ckpt_stats.checkpoint_saves, 0u);
  EXPECT_FALSE(ckpt_stats.restored);

  ASSERT_EQ(ckpt_cells.size(), plain_cells.size());
  for (size_t c = 0; c < ckpt_cells.size(); ++c) {
    EXPECT_EQ(ckpt_cells[c].min_index, plain_cells[c].min_index);
    EXPECT_EQ(ckpt_cells[c].count, plain_cells[c].count);
    EXPECT_EQ(ckpt_cells[c].max_spread, plain_cells[c].max_spread);
    EXPECT_EQ(ckpt_cells[c].representative, plain_cells[c].representative);
  }
  // The sidecar left behind is itself valid.
  EXPECT_TRUE(stream::LoadCheckpoint(sidecar).ok());
}

// --- Streaming pipeline -----------------------------------------------------

stream::StreamingOptions PipelineOptions(ThreadPool* pool, size_t chunk_size,
                                         int shards) {
  stream::StreamingOptions options;
  options.k = 4;
  options.pool = pool;
  options.ingest.chunk_size = chunk_size;
  options.ingest.shards = shards;
  options.ingest.coreset.max_cells = 512;
  return options;
}

TEST(StreamingPipelineTest, BitwiseDeterminismAcrossConfigurations) {
  auto dataset = MakeDataset(800, 17);
  stream::StreamingUncertainKCenter baseline_solver(
      PipelineOptions(nullptr, 800, 1));
  auto baseline = baseline_solver.SolveDataset(&dataset);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_EQ(baseline->k, 4u);
  ASSERT_FALSE(std::isnan(baseline->verified_lower));

  for (int threads : kThreadCounts) {
    for (size_t chunk_size : kChunkSizes) {
      for (int shards : kShardCounts) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " chunk=" << chunk_size
                                          << " shards=" << shards);
        ThreadPool pool(threads);
        stream::StreamingUncertainKCenter solver(
            PipelineOptions(&pool, chunk_size, shards));
        auto solution = solver.SolveDataset(&dataset);
        ASSERT_TRUE(solution.ok()) << solution.status();
        EXPECT_EQ(solution->center_coords, baseline->center_coords);
        EXPECT_EQ(solution->coreset_cells, baseline->coreset_cells);
        EXPECT_EQ(solution->coreset_cost, baseline->coreset_cost);
        EXPECT_EQ(solution->coreset_radius, baseline->coreset_radius);
        EXPECT_EQ(solution->verified_lower, baseline->verified_lower);
        EXPECT_EQ(solution->verified_upper, baseline->verified_upper);
        EXPECT_EQ(solution->max_expected_distance,
                  baseline->max_expected_distance);
        EXPECT_EQ(solution->verified_exact, baseline->verified_exact);
      }
    }
  }
}

TEST(StreamingPipelineTest, BracketContainsExactCostAndIsTight) {
  auto dataset = MakeDataset(600, 19);
  ThreadPool pool(2);
  stream::StreamingUncertainKCenter solver(PipelineOptions(&pool, 97, 3));
  auto solution = solver.SolveDataset(&dataset);
  ASSERT_TRUE(solution.ok()) << solution.status();

  ASSERT_FALSE(std::isnan(solution->verified_exact));
  // The bracket is rigorous up to double-rounding of the final sums.
  const double slack = 1e-9 * (1.0 + solution->verified_upper);
  EXPECT_LE(solution->verified_lower, solution->verified_exact + slack);
  EXPECT_GE(solution->verified_upper, solution->verified_exact - slack);
  // max-of-expectations lower-bounds the expected max.
  EXPECT_LE(solution->max_expected_distance,
            solution->verified_exact + slack);
  // Grid resolution: the bracket is no wider than a few grid cells.
  EXPECT_LT(solution->verified_upper - solution->verified_lower,
            0.05 * solution->verified_upper + 1e-9);
}

TEST(StreamingPipelineTest, ApproximationBoundAgainstDirectSolve) {
  for (uint64_t seed : {23u, 29u, 31u}) {
    auto dataset = MakeDataset(600, seed, /*z=*/3, /*spread=*/0.3);

    core::UncertainKCenterOptions direct_options;
    direct_options.k = 4;
    auto direct = core::SolveUncertainKCenter(&dataset, direct_options);
    ASSERT_TRUE(direct.ok()) << direct.status();

    ThreadPool pool(2);
    stream::StreamingOptions stream_options = PipelineOptions(&pool, 128, 2);
    stream_options.ingest.coreset.max_cells = 1024;
    stream::StreamingUncertainKCenter solver(stream_options);
    auto solution = solver.SolveDataset(&dataset);
    ASSERT_TRUE(solution.ok()) << solution.status();

    // The guarantee from stream/coreset.h with the factor-2 Gonzalez
    // solver: Ecost_stream <= 2 Ecost_direct + 2 (diameter + spread).
    const double bound = 2.0 * direct->expected_cost +
                         2.0 * solution->coreset_error_bound + 1e-9;
    EXPECT_LE(solution->verified_exact, bound) << "seed=" << seed;
    EXPECT_LE(solution->verified_upper,
              bound + (solution->verified_upper - solution->verified_lower))
        << "seed=" << seed;
  }
}

TEST(StreamingPipelineTest, FileAndDatasetPathsAgreeBitwise) {
  auto dataset = MakeDataset(300, 37);
  const std::string path = TempPath("stream_solve.ukc");
  ASSERT_TRUE(uncertain::SaveDatasetToFile(dataset, path).ok());

  ThreadPool pool(2);
  stream::StreamingUncertainKCenter solver(PipelineOptions(&pool, 64, 2));
  auto from_file = solver.SolveFile(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status();
  auto from_dataset = solver.SolveDataset(&dataset);
  ASSERT_TRUE(from_dataset.ok()) << from_dataset.status();

  EXPECT_EQ(from_file->center_coords, from_dataset->center_coords);
  EXPECT_EQ(from_file->coreset_cells, from_dataset->coreset_cells);
  EXPECT_EQ(from_file->verified_lower, from_dataset->verified_lower);
  EXPECT_EQ(from_file->verified_upper, from_dataset->verified_upper);
  // Only the dataset path can report the exact evaluator cost.
  EXPECT_TRUE(std::isnan(from_file->verified_exact));
  EXPECT_FALSE(std::isnan(from_dataset->verified_exact));
}

TEST(StreamingPipelineTest, CheckpointedSolveFileMatchesPlain) {
  auto dataset = MakeDataset(300, 39);
  const std::string path = TempPath("ckpt_solve.ukc");
  ASSERT_TRUE(uncertain::SaveDatasetToFile(dataset, path).ok());

  ThreadPool pool(2);
  stream::StreamingUncertainKCenter plain(PipelineOptions(&pool, 32, 2));
  auto want = plain.SolveFile(path);
  ASSERT_TRUE(want.ok()) << want.status();

  stream::StreamingOptions options = PipelineOptions(&pool, 32, 2);
  options.ingest.checkpoint.path = TempPath("ckpt_solve.ckpt");
  options.ingest.checkpoint.every_n_batches = 2;
  options.ingest.checkpoint.sync = false;
  std::remove(options.ingest.checkpoint.path.c_str());
  stream::StreamingUncertainKCenter checkpointed(options);
  auto got = checkpointed.SolveFile(path);
  ASSERT_TRUE(got.ok()) << got.status();

  EXPECT_EQ(got->center_coords, want->center_coords);
  EXPECT_EQ(got->verified_lower, want->verified_lower);
  EXPECT_EQ(got->verified_upper, want->verified_upper);
  EXPECT_GT(got->ingest_stats.checkpoint_saves, 0u);
}

// Read accounting of the pipeline: the stream is opened exactly twice,
// once for ingest and once for verification. (SolveFile opens the file
// once more, up front, to read the dimension from its header.)
TEST(StreamingPipelineTest, SolveOpensTheStreamOncePerPass) {
  auto dataset = MakeDataset(200, 43);
  stream::StreamingUncertainKCenter solver(PipelineOptions(nullptr, 64, 1));
  size_t factory_calls = 0;
  auto factory = [&]() -> Result<stream::BatchSource> {
    ++factory_calls;
    return stream::MakeDatasetBatchSource(&dataset, 64);
  };
  auto solution = solver.SolveSource(2, factory);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_EQ(factory_calls, 2u);
}

TEST(StreamingPipelineTest, ProducerSourceMatchesDataset) {
  // A deterministic synthetic stream: point i is a 2-location uncertain
  // point derived from Rng::Fork(i), emitted twice (once per pass)
  // through the producer adapter.
  const size_t n = 400;
  const size_t dim = 2;
  auto make_factory = [&]() -> stream::BatchSourceFactory {
    return [n]() -> Result<stream::BatchSource> {
      auto index = std::make_shared<size_t>(0);
      return stream::MakeProducerBatchSource(
          2,
          [n, index](std::vector<double>* coords,
                     std::vector<double>* probabilities) {
            if (*index >= n) return false;
            Rng rng(1234);
            Rng point_rng = rng.Fork(*index);
            const double cx = point_rng.UniformDouble(0.0, 10.0);
            const double cy = point_rng.UniformDouble(0.0, 10.0);
            for (int l = 0; l < 2; ++l) {
              coords->push_back(cx + point_rng.Gaussian(0.0, 0.2));
              coords->push_back(cy + point_rng.Gaussian(0.0, 0.2));
            }
            probabilities->push_back(0.25);
            probabilities->push_back(0.75);
            ++*index;
            return true;
          },
          64);
    };
  };

  // The same points as a materialized dataset.
  auto factory = make_factory();
  auto space = std::make_shared<metric::EuclideanSpace>(dim);
  std::vector<uncertain::UncertainPoint> points;
  {
    auto one_pass = factory();
    ASSERT_TRUE(one_pass.ok());
    uncertain::UncertainPointBatch batch;
    while (true) {
      auto more = (*one_pass)(&batch);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      for (size_t i = 0; i < batch.n(); ++i) {
        std::vector<uncertain::Location> locations;
        for (size_t l = batch.offsets[i]; l < batch.offsets[i + 1]; ++l) {
          locations.push_back(uncertain::Location{
              space->AddCoords(batch.location_coords(l)),
              batch.probabilities[l]});
        }
        points.push_back(
            std::move(uncertain::UncertainPoint::Build(std::move(locations)))
                .value());
      }
    }
  }
  auto dataset =
      std::move(uncertain::UncertainDataset::Build(space, std::move(points)))
          .value();
  ASSERT_EQ(dataset.n(), n);

  ThreadPool pool(2);
  stream::StreamingOptions options = PipelineOptions(&pool, 64, 2);
  options.k = 3;
  stream::StreamingUncertainKCenter solver(options);
  auto via_producer = solver.SolveSource(dim, make_factory());
  ASSERT_TRUE(via_producer.ok()) << via_producer.status();
  auto via_dataset = solver.SolveDataset(&dataset);
  ASSERT_TRUE(via_dataset.ok()) << via_dataset.status();

  EXPECT_EQ(via_producer->center_coords, via_dataset->center_coords);
  EXPECT_EQ(via_producer->verified_lower, via_dataset->verified_lower);
  EXPECT_EQ(via_producer->verified_upper, via_dataset->verified_upper);
  EXPECT_EQ(via_producer->ingest_stats.points, n);
}

TEST(StreamingPipelineTest, SolverReturningFewerThanKCentersStaysInBounds) {
  // Two tight pairs far apart. Hochbaum–Shmoys stops at the smallest
  // feasible threshold, where two centers already cover all four
  // representatives, so k = 3 yields only two centers. The facade must
  // report k = 2 and verify with exactly those centers.
  auto space = std::make_shared<metric::EuclideanSpace>(1);
  std::vector<uncertain::UncertainPoint> points;
  for (double x : {0.0, 1.0, 100.0, 101.0}) {
    std::vector<uncertain::Location> locations;
    for (double offset : {0.0, 0.2}) {
      const double coord = x + offset;
      locations.push_back(uncertain::Location{space->AddCoords(&coord), 0.5});
    }
    points.push_back(
        std::move(uncertain::UncertainPoint::Build(std::move(locations)))
            .value());
  }
  auto dataset =
      std::move(uncertain::UncertainDataset::Build(space, std::move(points)))
          .value();

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    stream::StreamingOptions options;
    options.k = 3;
    options.pool = &pool;
    options.certain.kind = solver::CertainSolverKind::kHochbaumShmoys;
    stream::StreamingUncertainKCenter streaming(options);
    auto solution = streaming.SolveDataset(&dataset);
    ASSERT_TRUE(solution.ok()) << solution.status();
    ASSERT_EQ(solution->coreset_cells, 4u);
    EXPECT_EQ(solution->k, 2u);
    EXPECT_EQ(solution->center_coords.size(), solution->k * solution->dim);
    const double slack = 1e-9 * (1.0 + solution->verified_upper);
    EXPECT_LE(solution->verified_lower, solution->verified_exact + slack);
    EXPECT_GE(solution->verified_upper, solution->verified_exact - slack);
  }
}

// The verify grid top at the edge of the coordinate domain: d = 64,
// coordinates a hair inside sqrt(DBL_MAX / (4·d)), a cell width that
// keeps every coreset key under 2^43, and points whose four locations
// tie to within a few ulps, so the spread is rounding-sized and only
// the diameter and the grid top's slack (pipeline.cc
// kGridTopRelativeSlack) absorb the rounding of the bound. Every norm
// and k = 1, 2 must verify rather than be refused with "exceeds the
// certified grid top".
TEST(StreamingPipelineTest, GridTopHoldsAtTheCoordinateDomainEdge) {
  constexpr size_t kDim = 64;
  const double edge = std::sqrt(std::numeric_limits<double>::max() /
                                (4.0 * static_cast<double>(kDim))) *
                      (1.0 - 2e-6);
  for (metric::Norm norm :
       {metric::Norm::kL2, metric::Norm::kL1, metric::Norm::kLInf}) {
    auto space = std::make_shared<metric::EuclideanSpace>(kDim, norm);
    std::vector<uncertain::UncertainPoint> points;
    for (size_t i = 0; i < 8; ++i) {
      // Two clusters at opposite corners; the points of a cluster sit
      // 2^13 cell widths apart on every axis.
      const double sign = i % 2 == 0 ? 1.0 : -1.0;
      const double base =
          sign * edge * (1.0 - std::ldexp(static_cast<double>(i / 2), -30));
      std::vector<uncertain::Location> locations;
      for (int l = 0; l < 4; ++l) {
        std::vector<double> coords(kDim);
        for (size_t a = 0; a < kDim; ++a) {
          // Location l sits (l + a) % 3 ulps toward the origin.
          double x = base;
          for (size_t step = 0; step < (l + a) % 3; ++step) {
            x = std::nextafter(x, 0.0);
          }
          coords[a] = x;
        }
        locations.push_back(
            uncertain::Location{space->AddCoords(coords.data()), 0.25});
      }
      auto point = uncertain::UncertainPoint::Build(std::move(locations));
      ASSERT_TRUE(point.ok()) << point.status();
      points.push_back(std::move(point).value());
    }
    auto dataset = uncertain::UncertainDataset::Build(space, std::move(points));
    ASSERT_TRUE(dataset.ok()) << dataset.status();

    for (size_t k : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message()
                   << "norm=" << metric::NormToString(norm) << " k=" << k);
      stream::StreamingOptions options;
      options.k = k;
      options.ingest.chunk_size = 3;
      options.ingest.coreset.base_cell_width = std::ldexp(edge, -43);
      stream::StreamingUncertainKCenter solver(options);
      auto solution = solver.SolveDataset(&*dataset);
      ASSERT_TRUE(solution.ok()) << solution.status();
      EXPECT_EQ(solution->k, k);
      EXPECT_EQ(solution->coreset_cells, 8u);
      ASSERT_TRUE(std::isfinite(solution->verified_upper));
      const double slack = 1e-9 * solution->verified_upper;
      EXPECT_LE(solution->verified_lower, solution->verified_exact + slack);
      EXPECT_GE(solution->verified_upper, solution->verified_exact - slack);
    }
  }
}

// --- Shared-pool plumbing ---------------------------------------------------
// A borrowed pool must give what a null pool (inline on the calling
// thread) gives.

TEST(SharedPoolTest, PipelineMatchesInlineRun) {
  auto dataset_inline = MakeDataset(250, 41);
  auto dataset_shared = MakeDataset(250, 41);

  core::UncertainKCenterOptions options;
  options.k = 3;
  auto inline_run = core::SolveUncertainKCenter(&dataset_inline, options);
  ASSERT_TRUE(inline_run.ok());

  ThreadPool pool(2);
  options.pool = &pool;
  auto with_shared = core::SolveUncertainKCenter(&dataset_shared, options);
  ASSERT_TRUE(with_shared.ok());

  EXPECT_EQ(inline_run->centers, with_shared->centers);
  EXPECT_EQ(inline_run->surrogates, with_shared->surrogates);
  EXPECT_EQ(inline_run->expected_cost, with_shared->expected_cost);
  EXPECT_EQ(inline_run->assignment, with_shared->assignment);
}

TEST(SharedPoolTest, LocalSearchMatchesInlineRun) {
  auto dataset_inline = MakeDataset(120, 43);
  auto dataset_shared = MakeDataset(120, 43);

  core::UnassignedSearchOptions options;
  options.k = 3;
  options.max_swaps = 4;
  auto inline_run = core::LocalSearchUnassigned(&dataset_inline, options);
  ASSERT_TRUE(inline_run.ok());

  ThreadPool pool(2);
  options.pool = &pool;
  auto with_shared = core::LocalSearchUnassigned(&dataset_shared, options);
  ASSERT_TRUE(with_shared.ok());

  EXPECT_EQ(inline_run->centers, with_shared->centers);
  EXPECT_EQ(inline_run->expected_cost, with_shared->expected_cost);
  EXPECT_EQ(inline_run->swaps, with_shared->swaps);
}

}  // namespace
}  // namespace ukc
