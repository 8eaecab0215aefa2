// stream: StreamingUncertainKCenter::SolveFile for k in {4, 8, 16} over
// one generated dataset file, checkpointing on, each call with a fresh
// sidecar.
//
// Set-up writes the file point by point (the dataset is never held in
// memory) in the uncertain/io.h text format, again before every
// operation so that setup_s is sampled over the whole run. One
// operation is the three SolveFile calls. Traced, the same three calls
// run between registry snapshots — the ingest stages, checkpoint saves
// and the stream.{ingest,solve,verify} spans split the time — and one
// plain DatasetReader pass over the file measures the parse floor.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/strings.h"
#include "stream/pipeline.h"
#include "uncertain/generators.h"
#include "uncertain/io.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr size_t kPoints = 50000;
constexpr size_t kLocations = 4;
constexpr size_t kDim = 2;
constexpr size_t kClusters = 16;
constexpr size_t kChunk = 4096;
constexpr size_t kMaxCells = 4096;
// Save cadence in batches: three saves per 13-batch ingest pass.
constexpr uint64_t kCheckpointEvery = 4;
constexpr size_t kKs[] = {4, 8, 16};
// File writes before each operation (same seed, same bytes): each
// write is one setup_s sample, spread over the whole run.
constexpr size_t kSetupsPerOperation = 3;
constexpr size_t kMinOperations = 3;

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

// Writes kPoints clustered uncertain points in the uncertain/io.h
// format, one record at a time: homes Gaussian around one of kClusters
// planted centers, locations Gaussian around each home. The planted
// centers sit on a fixed 4 x 4 grid over [0, 10]^2 — only the points
// come from the seed — so the k-center geometry, and with it the
// answers, barely move from seed to seed.
ukc::Status WriteStreamFile(const std::filesystem::path& path, uint64_t seed) {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "w"));
  if (file == nullptr) {
    return ukc::Status::NotFound("cannot create " + path.string());
  }
  // One write call per MiB rather than per stdio page.
  std::setvbuf(file.get(), nullptr, _IOFBF, size_t{1} << 20);
  ukc::Rng rng(seed);
  std::fprintf(file.get(), "ukc-dataset 1\ndim %zu\nn %zu\n", kDim, kPoints);
  for (size_t i = 0; i < kPoints; ++i) {
    const int64_t cluster = rng.UniformInt(0, kClusters - 1);
    const double center[kDim] = {1.25 + 2.5 * static_cast<double>(cluster % 4),
                                 1.25 + 2.5 * static_cast<double>(cluster / 4)};
    double home[kDim];
    for (size_t a = 0; a < kDim; ++a) home[a] = rng.Gaussian(center[a], 0.5);
    const std::vector<double> probabilities = ukc::uncertain::MakeProbabilities(
        kLocations, ukc::uncertain::ProbabilityShape::kRandom, rng);
    std::fprintf(file.get(), "point %zu\n", kLocations);
    for (double probability : probabilities) {
      std::fprintf(file.get(), "%.17g", probability);
      for (size_t a = 0; a < kDim; ++a) {
        std::fprintf(file.get(), " %.17g", rng.Gaussian(home[a], 0.5));
      }
      std::fputc('\n', file.get());
    }
  }
  if (std::ferror(file.get()) != 0 || std::fflush(file.get()) != 0) {
    return ukc::Status::Internal("write failure on " + path.string());
  }
  return ukc::Status::OK();
}

// One operation's answers.
struct Operation {
  double seconds = 0.0;
  double mean_upper = 0.0;
  double max_rel_width = 0.0;
  size_t coreset_cells = 0;
  size_t coreset_bytes = 0;
};

// The three SolveFile calls, each with a fresh sidecar; checks every
// answer and records the first failed check as the operation's failure.
Operation SolveAllK(const RunContext& ctx, const std::filesystem::path& file,
                    size_t op, RunResult* result) {
  Operation operation;
  std::string failure;
  for (size_t k : kKs) {
    const std::filesystem::path sidecar =
        ctx.temp_dir / ukc::StrFormat("ingest-%zu-k%zu.ckpt", op, k);
    std::filesystem::remove(sidecar);
    ukc::stream::StreamingOptions options;
    options.k = k;
    options.pool = ctx.pool;
    options.ingest.chunk_size = kChunk;
    options.ingest.coreset.max_cells = kMaxCells;
    options.ingest.checkpoint.path = sidecar.string();
    options.ingest.checkpoint.every_n_batches = kCheckpointEvery;
    ukc::stream::StreamingUncertainKCenter solver(options);

    const Clock::time_point start = Clock::now();
    ukc::Result<ukc::stream::StreamingSolution> solution =
        solver.SolveFile(file.string());
    operation.seconds += SecondsSince(start);
    std::filesystem::remove(sidecar);

    if (!solution.ok()) {
      if (failure.empty()) failure = "SolveFile: " + solution.status().ToString();
      continue;
    }
    const double lower = solution->verified_lower;
    const double upper = solution->verified_upper;
    if (!(std::isfinite(lower) && std::isfinite(upper) && lower <= upper &&
          upper > 0.0)) {
      if (failure.empty()) {
        failure = ukc::StrFormat("k=%zu bracket [%g, %g] is not a finite "
                                 "ordered bracket",
                                 k, lower, upper);
      }
    } else if (solution->ingest_stats.restored ||
               solution->ingest_stats.points != kPoints) {
      if (failure.empty()) {
        failure = ukc::StrFormat(
            "k=%zu ingest restored=%d points=%llu", k,
            solution->ingest_stats.restored ? 1 : 0,
            static_cast<unsigned long long>(solution->ingest_stats.points));
      }
    }
    operation.mean_upper += upper / std::size(kKs);
    operation.max_rel_width =
        std::max(operation.max_rel_width, (upper - lower) / upper);
    operation.coreset_cells = solution->coreset_cells;
    operation.coreset_bytes = solution->coreset_memory_bytes;
  }
  if (!failure.empty()) result->Fail("stream: " + failure);
  return operation;
}

// The parse floor: one plain DatasetReader pass over the file.
ukc::Result<double> ReadPass(const std::filesystem::path& file) {
  const Clock::time_point start = Clock::now();
  UKC_ASSIGN_OR_RETURN(ukc::uncertain::DatasetReader reader,
                       ukc::uncertain::DatasetReader::Open(file.string()));
  ukc::uncertain::UncertainPointBatch batch;
  size_t points = 0;
  while (true) {
    UKC_ASSIGN_OR_RETURN(size_t read, reader.ReadChunk(kChunk, &batch));
    if (read == 0) break;
    points += read;
  }
  if (points != kPoints) {
    return ukc::Status::Internal(
        ukc::StrFormat("read %zu points, expected %zu", points, kPoints));
  }
  return SecondsSince(start);
}

constexpr const char* kSpan = "ukc_span_seconds";
constexpr const char* kStage = "ukc_ingest_stage_seconds";

// Per-operation layer split of one traced operation.
std::map<std::string, double> LayerSplit(const RegistryDiff& diff) {
  const double whole = diff.HistogramSum(kSpan, {{"span", "stream.solve"}});
  const double ingest =
      diff.HistogramSum(kSpan, {{"span", "stream.solve.stream.ingest"}});
  const double verify =
      diff.HistogramSum(kSpan, {{"span", "stream.solve.stream.verify"}});
  return {
      {"stream.ingest_s", ingest},
      // The stream.solve span encloses the other two: its self time is
      // the coreset solve.
      {"stream.solve_s", whole - ingest - verify},
      {"stream.verify_s", verify},
      {"stream.read_s", diff.HistogramSum(kStage, {{"stage", "read"}})},
      {"stream.process_s", diff.HistogramSum(kStage, {{"stage", "process"}})},
      {"stream.merge_s", diff.HistogramSum(kStage, {{"stage", "merge"}})},
      {"stream.checkpoint_save_s",
       diff.HistogramSum("ukc_ingest_checkpoint_seconds", {{"op", "save"}})},
  };
}

std::map<std::string, double> LayerCounts(const RegistryDiff& diff) {
  const double passes = static_cast<double>(std::size(kKs));
  return {
      {"stream.checkpoints",
       static_cast<double>(diff.Counter("ukc_ingest_checkpoints_total",
                                        {{"outcome", "saved"}})) / passes},
      {"stream.points",
       static_cast<double>(diff.Counter("ukc_ingest_points_total")) / passes},
      {"stream.batches",
       static_cast<double>(diff.Counter("ukc_ingest_batches_total")) / passes},
  };
}

}  // namespace

RunResult RunStream(const RunContext& ctx) {
  RunResult result;
  std::filesystem::path file;
  std::vector<double> setup_s;
  std::vector<double> unit_s;
  std::vector<double> peak_mib;
  std::vector<double> traced_s;
  std::vector<double> read_s;
  std::map<std::string, std::vector<double>> split;
  std::map<std::string, double> first_counts;
  Operation last;
  double measured = 0.0;
  size_t op = 0;

  while (measured < ctx.seconds || unit_s.size() < kMinOperations) {
    for (size_t i = 0; i < kSetupsPerOperation; ++i) {
      // Each write goes to a new file and the old one is removed
      // untimed: truncating a file that is still being written back
      // would make the set-up time wait on the disk.
      const std::filesystem::path next =
          ctx.temp_dir / ukc::StrFormat("stream-%zu.ukc", setup_s.size());
      const Clock::time_point start = Clock::now();
      const ukc::Status written = WriteStreamFile(next, ctx.seed);
      setup_s.push_back(SecondsSince(start));
      if (!written.ok()) {
        result.Fail("stream: " + written.ToString());
        return result;
      }
      if (!file.empty()) std::filesystem::remove(file);
      file = next;
    }
    ++result.attempted;
    ResetPeakRss();
    const Operation operation = SolveAllK(ctx, file, op++, &result);
    peak_mib.push_back(PeakRssMiB());
    unit_s.push_back(operation.seconds);
    measured += operation.seconds;
    if (op > 1 && (operation.mean_upper != last.mean_upper ||
                   operation.max_rel_width != last.max_rel_width)) {
      result.Fail("stream: answers changed between operations");
    }
    last = operation;

    if (!ctx.trace) continue;

    const ukc::obs::RegistrySnapshot before = Snapshot();
    ++result.attempted;
    const Operation traced = SolveAllK(ctx, file, op++, &result);
    const ukc::obs::RegistrySnapshot after = Snapshot();
    measured += traced.seconds;
    traced_s.push_back(traced.seconds);
    if (traced.mean_upper != last.mean_upper ||
        traced.max_rel_width != last.max_rel_width) {
      result.Fail("stream: traced answers differ from untraced ones");
    }
    const RegistryDiff diff(before, after);
    for (const auto& [name, seconds] : LayerSplit(diff)) {
      split[name].push_back(seconds);
    }
    const std::map<std::string, double> counts = LayerCounts(diff);
    if (first_counts.empty()) {
      first_counts = counts;
      if (counts.at("stream.points") != static_cast<double>(kPoints)) {
        result.Fail("stream: ingest counted a different n than the file holds");
      }
    } else if (counts != first_counts) {
      result.Fail("stream: per-operation ingest counts did not repeat exactly");
    }
    ukc::Result<double> read = ReadPass(file);
    if (!read.ok()) {
      result.Fail("stream: read pass: " + read.status().ToString());
    } else {
      read_s.push_back(*read);
      measured += *read;
    }
  }

  if (!ctx.trace) {
    AddUnitLatencies(unit_s, &result);
    result.Add("expected_cost", last.mean_upper, "cost");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", Median(peak_mib), "MiB");
    return result;
  }

  result.Add("uncertain.read_s", Median(read_s), "s");
  for (const auto& [name, seconds] : split) {
    result.Add(name, Median(seconds), "s");
  }
  for (const auto& [name, count] : first_counts) {
    result.Add(name, count, "count");
  }
  result.Add("stream.coreset_cells", static_cast<double>(last.coreset_cells),
             "count");
  result.Add("stream.coreset_bytes", static_cast<double>(last.coreset_bytes),
             "bytes");
  result.Add("stream.bracket_rel_width", last.max_rel_width, "fraction");
  result.Add("bench.trace_overhead_frac", Median(traced_s) / Median(unit_s) - 1.0,
             "fraction");
  return result;
}

}  // namespace e2e
