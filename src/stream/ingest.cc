#include "stream/ingest.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "uncertain/io.h"

namespace ukc {
namespace stream {

Status ValidateBatch(const uncertain::UncertainPointBatch& batch, size_t dim) {
  if (batch.dim != dim) {
    return Status::InvalidArgument(
        StrFormat("ingest: batch dim %zu != stream dim %zu", batch.dim, dim));
  }
  if (batch.offsets.empty() || batch.offsets.front() != 0 ||
      batch.offsets.back() != batch.probabilities.size() ||
      batch.coords.size() != batch.probabilities.size() * dim) {
    return Status::InvalidArgument("ingest: inconsistent batch layout");
  }
  // Every point needs at least one location (strictly increasing
  // offsets) — a zero-location point has no expected point and would
  // read out of bounds downstream.
  for (size_t i = 0; i + 1 < batch.offsets.size(); ++i) {
    if (batch.offsets[i] >= batch.offsets[i + 1]) {
      return Status::InvalidArgument(StrFormat(
          "ingest: batch point %zu is empty or offsets are non-monotone", i));
    }
  }
  return Status::OK();
}

double SummarizeBatchPoint(const uncertain::UncertainPointBatch& batch,
                           size_t i, double* expected) {
  const size_t dim = batch.dim;
  std::fill(expected, expected + dim, 0.0);
  const size_t begin = batch.offsets[i];
  const size_t end = batch.offsets[i + 1];
  for (size_t l = begin; l < end; ++l) {
    const double* coords = batch.location_coords(l);
    const double p = batch.probabilities[l];
    for (size_t a = 0; a < dim; ++a) expected[a] += coords[a] * p;
  }
  double spread = 0.0;
  for (size_t l = begin; l < end; ++l) {
    spread = std::max(spread,
                      metric::NormDistanceKernel(
                          batch.norm, batch.location_coords(l), expected, dim));
  }
  return spread;
}

Result<BatchSource> MakeDatasetBatchSource(
    const uncertain::UncertainDataset* dataset, size_t chunk_size) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("MakeDatasetBatchSource: null dataset");
  }
  if (chunk_size == 0) {
    return Status::InvalidArgument("MakeDatasetBatchSource: chunk_size >= 1");
  }
  const metric::EuclideanSpace* space = dataset->euclidean();
  if (space == nullptr) {
    return Status::FailedPrecondition(
        "MakeDatasetBatchSource: streaming requires a Euclidean dataset");
  }
  auto cursor = std::make_shared<size_t>(0);
  return BatchSource([dataset, space, chunk_size,
                      cursor](uncertain::UncertainPointBatch* batch)
                         -> Result<bool> {
    const size_t n = dataset->n();
    if (*cursor >= n) return false;
    const size_t begin = *cursor;
    const size_t end = std::min(n, begin + chunk_size);
    const size_t dim = space->dim();
    batch->Clear();
    batch->dim = dim;
    batch->norm = space->norm();
    batch->start_index = begin;
    batch->offsets.push_back(0);
    const metric::SiteId* sites = dataset->flat_sites().data();
    const double* probabilities = dataset->flat_probabilities().data();
    const size_t* offsets = dataset->offsets().data();
    for (size_t i = begin; i < end; ++i) {
      for (size_t l = offsets[i]; l < offsets[i + 1]; ++l) {
        const double* coords = space->coords(sites[l]);
        batch->coords.insert(batch->coords.end(), coords, coords + dim);
        batch->probabilities.push_back(probabilities[l]);
      }
      batch->offsets.push_back(batch->probabilities.size());
    }
    *cursor = end;
    return true;
  });
}

Result<BatchSource> MakeProducerBatchSource(size_t dim, PointProducer next,
                                            size_t chunk_size,
                                            metric::Norm norm) {
  if (dim == 0) {
    return Status::InvalidArgument("MakeProducerBatchSource: dim >= 1");
  }
  if (chunk_size == 0) {
    return Status::InvalidArgument("MakeProducerBatchSource: chunk_size >= 1");
  }
  if (next == nullptr) {
    return Status::InvalidArgument("MakeProducerBatchSource: null producer");
  }
  struct State {
    PointProducer next;
    uint64_t index = 0;
    bool drained = false;
    std::vector<double> coords;
    std::vector<double> probabilities;
  };
  auto state = std::make_shared<State>();
  state->next = std::move(next);
  return BatchSource([state, dim, chunk_size, norm](
                         uncertain::UncertainPointBatch* batch) -> Result<bool> {
    if (state->drained) return false;
    batch->Clear();
    batch->dim = dim;
    batch->norm = norm;
    batch->start_index = state->index;
    batch->offsets.push_back(0);
    for (size_t i = 0; i < chunk_size; ++i) {
      state->coords.clear();
      state->probabilities.clear();
      if (!state->next(&state->coords, &state->probabilities)) {
        state->drained = true;
        break;
      }
      if (state->probabilities.empty() ||
          state->coords.size() != state->probabilities.size() * dim) {
        return Status::InvalidArgument(StrFormat(
            "producer batch source: point %llu emitted %zu coords for %zu "
            "probabilities (dim %zu)",
            static_cast<unsigned long long>(state->index),
            state->coords.size(), state->probabilities.size(), dim));
      }
      // The same distribution and coordinate invariants — via the same
      // helpers — as DatasetReader::ReadChunk; a producer that broke
      // them would silently void the verified bracket's rigor.
      Status valid = uncertain::ValidateDistribution(state->probabilities);
      if (valid.ok()) {
        valid = uncertain::ValidateCoordinates(state->coords, dim);
      }
      if (!valid.ok()) {
        return valid.WithPrefix(
            StrFormat("producer batch source: point %llu",
                      static_cast<unsigned long long>(state->index)));
      }
      batch->coords.insert(batch->coords.end(), state->coords.begin(),
                           state->coords.end());
      batch->probabilities.insert(batch->probabilities.end(),
                                  state->probabilities.begin(),
                                  state->probabilities.end());
      batch->offsets.push_back(batch->probabilities.size());
      ++state->index;
    }
    return batch->n() > 0;
  });
}

ResumableSourceFactory AdaptBatchFactory(BatchSourceFactory factory) {
  return [factory](const ResumePoint*,
                   bool* positioned) -> Result<ResumableSource> {
    if (positioned != nullptr) *positioned = false;
    if (factory == nullptr) {
      return Status::InvalidArgument("AdaptBatchFactory: null factory");
    }
    UKC_ASSIGN_OR_RETURN(BatchSource next, factory());
    ResumableSource source;
    source.next = std::move(next);
    return source;
  };
}

namespace {

// Hash of the up-to-kCursorWindowBytes bytes of `path` that END at
// `end_offset` — the change detector stored with (and re-checked
// against) a checkpointed byte offset. nullopt when the window cannot
// be read, which both sides treat as "no usable cursor".
std::optional<uint64_t> HashFileWindow(const std::string& path,
                                       uint64_t end_offset) {
  const uint64_t window = std::min<uint64_t>(kCursorWindowBytes, end_offset);
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return std::nullopt;
  file.seekg(static_cast<std::streamoff>(end_offset - window));
  std::string bytes(static_cast<size_t>(window), '\0');
  file.read(bytes.data(), static_cast<std::streamsize>(window));
  if (file.gcount() != static_cast<std::streamsize>(window)) {
    return std::nullopt;
  }
  return HashBytes(kHashSeed, bytes.data(), bytes.size());
}

}  // namespace

ResumableSourceFactory ResumableFileFactory(const std::string& path,
                                            size_t chunk_size) {
  return [path, chunk_size](const ResumePoint* resume,
                            bool* positioned) -> Result<ResumableSource> {
    if (positioned != nullptr) *positioned = false;
    if (chunk_size == 0) {
      return Status::InvalidArgument("ResumableFileFactory: chunk_size >= 1");
    }
    UKC_ASSIGN_OR_RETURN(uncertain::DatasetReader opened,
                         uncertain::DatasetReader::Open(path));
    auto reader = std::make_shared<uncertain::DatasetReader>(std::move(opened));
    if (resume != nullptr && resume->cursor.has_value()) {
      // Trust the offset only when the bytes before it still hash to
      // what the checkpoint recorded.
      const SourceCursor& cursor = *resume->cursor;
      if (HashFileWindow(path, cursor.byte_offset) == cursor.window_hash &&
          reader->SeekTo(cursor.byte_offset, resume->points).ok()) {
        if (positioned != nullptr) *positioned = true;
      } else {
        // Stale or corrupt cursor (the file changed, or the checkpoint
        // came from another file): degrade to a from-the-start stream
        // and let the caller replay-verify instead of failing hard.
        UKC_ASSIGN_OR_RETURN(*reader, uncertain::DatasetReader::Open(path));
      }
    }
    // The pull and the position probe share the reader; both are only
    // ever called from the single reading thread.
    ResumableSource source;
    source.next = [reader, chunk_size](uncertain::UncertainPointBatch* batch)
        -> Result<bool> {
      UKC_ASSIGN_OR_RETURN(size_t produced,
                           reader->ReadChunk(chunk_size, batch));
      return produced > 0;
    };
    source.tell = [reader, path]() -> std::optional<SourceCursor> {
      const std::optional<uint64_t> offset = reader->TellByteOffset();
      if (!offset.has_value()) return std::nullopt;
      const std::optional<uint64_t> hash = HashFileWindow(path, *offset);
      if (!hash.has_value()) return std::nullopt;
      return SourceCursor{*offset, *hash};
    };
    return source;
  };
}

ResumableSourceFactory ResumableDatasetFactory(
    const uncertain::UncertainDataset* dataset, size_t chunk_size) {
  return AdaptBatchFactory([dataset, chunk_size]() -> Result<BatchSource> {
    return MakeDatasetBatchSource(dataset, chunk_size);
  });
}

namespace {

// Folds one consumed batch into the running content fingerprint — the
// value a replay-based resume must reproduce to prove it is reading
// the same stream the checkpoint came from.
uint64_t HashBatch(uint64_t hash, const uncertain::UncertainPointBatch& batch) {
  hash = HashValue(hash, batch.dim);
  hash = HashValue(hash, static_cast<uint64_t>(batch.norm));
  hash = HashValue(hash, batch.start_index);
  hash = HashValue(hash, batch.offsets.size());
  hash = HashBytes(hash, batch.offsets.data(),
                   batch.offsets.size() * sizeof(size_t));
  hash = HashBytes(hash, batch.coords.data(),
                   batch.coords.size() * sizeof(double));
  hash = HashBytes(hash, batch.probabilities.data(),
                   batch.probabilities.size() * sizeof(double));
  return hash;
}

// Hash of everything that determines group boundaries and what the
// coreset keeps. A checkpoint taken under one configuration must never
// resume another: a different shard count regroups the batches, a
// different cell width regrids them, and different churn settings
// restore an image without the churn state the run asked for — each
// would void the bitwise parity with an uninterrupted run.
uint64_t ConfigFingerprint(size_t dim, const IngestOptions& options,
                           size_t shards) {
  uint64_t hash = kHashSeed;
  hash = HashValue(hash, 2);  // Fingerprint layout version.
  hash = HashValue(hash, dim);
  hash = HashValue(hash, options.chunk_size);
  hash = HashValue(hash, shards);
  return HashCoresetOptions(hash, options.coreset);
}

// Per-run ingest telemetry handles, resolved once per entry point so
// the per-batch cost stays at relaxed atomic adds (docs/operations.md,
// "Observability"). Stage timers and throughput counters never feed
// the coreset state — bitwise determinism is untouched.
struct IngestMetrics {
  obs::Histogram* read_seconds;
  obs::Histogram* process_seconds;
  obs::Histogram* merge_seconds;
  obs::Histogram* checkpoint_save_seconds;
  obs::Counter* batches_total;
  obs::Counter* points_total;
  obs::Counter* checkpoints_saved;
  obs::Counter* checkpoints_failed;
};

obs::MetricsRegistry& IngestRegistry(const IngestOptions& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::MetricsRegistry::Default();
}

IngestMetrics ResolveIngestMetrics(const IngestOptions& options) {
  obs::MetricsRegistry& m = IngestRegistry(options);
  const char* stage = "ukc_ingest_stage_seconds";
  const char* stage_help = "Wall time of one ingest stage pass";
  const char* saves = "ukc_ingest_checkpoints_total";
  const char* saves_help = "Checkpoint save attempts by outcome";
  return IngestMetrics{
      m.GetHistogram(stage, stage_help, {{"stage", "read"}}),
      m.GetHistogram(stage, stage_help, {{"stage", "process"}}),
      m.GetHistogram(stage, stage_help, {{"stage", "merge"}}),
      m.GetHistogram("ukc_ingest_checkpoint_seconds",
                     "Checkpoint save/restore latency", {{"op", "save"}}),
      m.GetCounter("ukc_ingest_batches_total", "Batches ingested"),
      m.GetCounter("ukc_ingest_points_total", "Uncertain points ingested"),
      m.GetCounter(saves, saves_help, {{"outcome", "saved"}}),
      m.GetCounter(saves, saves_help, {{"outcome", "failed"}})};
}

// One retry-wrapped, fault-injectable batch pull. Transient failures
// (kUnavailable — today only injected ones) are retried per
// options.retry and counted under site="ingest.read" in the run's
// registry; the fault point sits inside the retried op so an injected
// transient hiccup exercises the same path a real one would.
Result<bool> PullBatch(const ResumableSource& source,
                       const IngestOptions& options,
                       uncertain::UncertainPointBatch* batch) {
  bool more = false;
  UKC_RETURN_IF_ERROR(RetryTransient(
      options.retry, IngestRegistry(options), "ingest.read", [&]() -> Status {
        UKC_INJECT_FAULT("ingest.read");
        UKC_ASSIGN_OR_RETURN(more, source.next(batch));
        return Status::OK();
      }));
  return more;
}

// What a validated checkpoint contributes to a run: the merged prefix
// coreset (seeded into shard 0) and the fingerprints to carry forward.
struct ResumeState {
  std::optional<StreamingCoreset> restored;
  uint64_t content_fingerprint = kHashSeed;
  uint64_t config_fingerprint = 0;
};

// The sharded group loop of IngestCoreset. `counters` arrives
// pre-loaded with the restored prefix's totals when resuming.
Result<StreamingCoreset> RunIngest(size_t dim, const ResumableSource& source,
                                   const IngestOptions& options, size_t shards,
                                   ThreadPool* pool, IngestStats& counters,
                                   ResumeState resume) {
  UKC_OBS_SPAN("stream.ingest");
  const bool checkpointing = !options.checkpoint.path.empty();
  const IngestMetrics metric = ResolveIngestMetrics(options);

  // Shard coresets are constructed on the first batch, when the
  // stream's norm is known; a restored prefix pre-latches the norm (a
  // mid-stream switch is rejected the same way either path).
  std::vector<StreamingCoreset> shard_sets;
  metric::Norm stream_norm = metric::Norm::kL2;
  bool norm_latched = false;
  if (resume.restored.has_value()) {
    stream_norm = resume.restored->norm();
    norm_latched = true;
  }
  std::vector<Status> statuses(shards);

  // One batch group: up to `shards` batches pulled serially off the
  // source, plus the read outcome and the stream position after the
  // group (captured here, by the reading thread, because the next group
  // has already been prefetched by the time this one is processed — a
  // checkpoint-time tell() would be one group ahead). Two of these
  // ping-pong between the reader thread and the processing loop.
  struct Group {
    std::vector<uncertain::UncertainPointBatch> batches;
    size_t loaded = 0;
    bool done = false;  // Source drained while filling this group.
    Status status;
    std::optional<SourceCursor> cursor;  // Stream position after this group.
  };
  const auto fill_group = [&source, &options, &metric, shards,
                           checkpointing](Group* group) {
    UKC_OBS_TIMER(metric.read_seconds);
    group->loaded = 0;
    group->done = false;
    group->status = Status::OK();
    group->cursor = std::nullopt;
    while (group->loaded < shards) {
      Result<bool> more =
          PullBatch(source, options, &group->batches[group->loaded]);
      if (!more.ok()) {
        group->status = more.status();
        return;
      }
      if (!*more) {
        group->done = true;
        break;
      }
      ++group->loaded;
    }
    // The probe re-reads a window of the file, so only pay for it when
    // a checkpoint may actually be written.
    if (checkpointing && source.tell != nullptr) group->cursor = source.tell();
  };

  // Validates a received group (structure, one norm across the stream)
  // and folds it into the shards: batch g feeds shard g. Every group
  // before the final one is full, so shard s consumes exactly the
  // batches s, s + shards, s + 2·shards, ... in stream order, and
  // workers never contend on a shard — the determinism rule is
  // independent of who read the group.
  const auto process_group = [&](Group& group) -> Status {
    UKC_OBS_TIMER(metric.process_seconds);
    for (size_t g = 0; g < group.loaded; ++g) {
      UKC_RETURN_IF_ERROR(ValidateBatch(group.batches[g], dim));
      // The coreset's geometry (diameter, error bound) is stated under
      // one norm; a source that switches norms mid-stream would
      // silently invalidate it.
      if (!norm_latched) {
        stream_norm = group.batches[g].norm;
        norm_latched = true;
      } else if (group.batches[g].norm != stream_norm) {
        return Status::InvalidArgument(
            "ingest: batch norm changed mid-stream");
      }
      // The content fingerprint is maintained only when a checkpoint
      // could be written — the hashing cost must not tax
      // checkpoint-free ingestion.
      if (checkpointing) {
        resume.content_fingerprint =
            HashBatch(resume.content_fingerprint, group.batches[g]);
      }
      counters.points += group.batches[g].n();
      counters.locations += group.batches[g].num_locations();
      counters.batches += 1;
      metric.batches_total->Increment();
      metric.points_total->Add(group.batches[g].n());
    }
    if (group.loaded == 0) return Status::OK();
    if (shard_sets.empty()) {
      shard_sets.reserve(shards);
      for (size_t s = 0; s < shards; ++s) {
        shard_sets.emplace_back(dim, stream_norm, options.coreset);
      }
      if (resume.restored.has_value()) {
        // The restored prefix lives in shard 0 from here on; grid-cell
        // commutativity makes the final merge independent of which
        // shard carried it.
        shard_sets[0] = std::move(*resume.restored);
        resume.restored.reset();
      }
    }
    pool->ParallelFor(group.loaded, [&](int, size_t g) {
      const size_t shard = g;
      const uncertain::UncertainPointBatch& batch = group.batches[g];
      std::vector<double> expected(dim);
      Status status;
      for (size_t i = 0; i < batch.n() && status.ok(); ++i) {
        const double spread = SummarizeBatchPoint(batch, i, expected.data());
        status = shard_sets[shard].Add(batch.start_index + i, expected.data(),
                                       spread);
      }
      statuses[g] = std::move(status);
    });
    for (size_t g = 0; g < group.loaded; ++g) {
      if (!statuses[g].ok()) return std::move(statuses[g]);
    }
    return Status::OK();
  };

  // Saves a checkpoint when the cadence says so. Failures are counted,
  // not propagated: the previous sidecar (written atomically) remains
  // the recovery point, so a failed save only widens the redo window.
  uint64_t last_saved_batches = counters.batches;
  const uint64_t cadence =
      std::max<uint64_t>(1, options.checkpoint.every_n_batches);
  const auto maybe_checkpoint = [&](const Group& group) {
    if (!checkpointing || shard_sets.empty() || group.loaded == 0) return;
    if (counters.batches - last_saved_batches < cadence) return;
    IngestCheckpoint checkpoint;
    checkpoint.config_fingerprint = resume.config_fingerprint;
    checkpoint.content_fingerprint = resume.content_fingerprint;
    checkpoint.batches = counters.batches;
    checkpoint.points = counters.points;
    checkpoint.locations = counters.locations;
    if (group.cursor.has_value()) {
      checkpoint.has_byte_offset = true;
      checkpoint.byte_offset = group.cursor->byte_offset;
      checkpoint.cursor_window_hash = group.cursor->window_hash;
    }
    // The image is a merged COPY of the shard state; the live shards
    // keep ingesting untouched.
    StreamingCoreset merged = shard_sets[0];
    Status status = Status::OK();
    for (size_t s = 1; s < shard_sets.size() && status.ok(); ++s) {
      status = merged.MergeFrom(shard_sets[s]);
    }
    if (status.ok()) {
      merged.SerializeTo(&checkpoint.coreset_image);
      UKC_OBS_TIMER(metric.checkpoint_save_seconds);
      status = SaveCheckpoint(options.checkpoint.path, checkpoint,
                              options.checkpoint.sync);
    }
    if (status.ok()) {
      ++counters.checkpoint_saves;
      metric.checkpoints_saved->Increment();
      last_saved_batches = counters.batches;
    } else {
      metric.checkpoints_failed->Increment();
    }
  };

  // A dedicated reader thread fills group r+1 while the pool processes
  // group r. The source is only ever touched by the reader (reads stay
  // strictly serial), and groups are handed over whole, so the shard
  // assignment above is untouched. The reader is joined at the end of
  // this block, before the merge.
  {
    Group groups[2];
    groups[0].batches.resize(shards);
    groups[1].batches.resize(shards);
    std::mutex mutex;
    std::condition_variable cv;
    int requested = -1;  // Slot the reader should fill next.
    bool ready = false;  // The requested slot has been filled.
    bool stop = false;
    std::thread reader([&] {
      std::unique_lock<std::mutex> lock(mutex);
      while (true) {
        cv.wait(lock, [&] { return requested >= 0 || stop; });
        if (stop) return;
        const int slot = requested;
        requested = -1;
        lock.unlock();
        fill_group(&groups[slot]);
        lock.lock();
        ready = true;
        cv.notify_all();
      }
    });
    // Stops and joins the reader on every exit path, including early
    // error returns while a prefetch is still in flight.
    struct ReaderJoiner {
      std::thread* thread;
      std::mutex* mutex;
      std::condition_variable* cv;
      bool* stop;
      ~ReaderJoiner() {
        {
          std::lock_guard<std::mutex> lock(*mutex);
          *stop = true;
          cv->notify_all();
        }
        thread->join();
      }
    } joiner{&reader, &mutex, &cv, &stop};
    const auto request = [&](int slot) {
      std::lock_guard<std::mutex> lock(mutex);
      requested = slot;
      ready = false;
      cv.notify_all();
    };
    const auto wait_ready = [&] {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return ready; });
    };

    int current = 0;
    request(current);
    bool done = false;
    while (!done) {
      wait_ready();
      Group& group = groups[current];
      UKC_RETURN_IF_ERROR(group.status);
      done = group.done;
      if (!done) request(1 - current);  // Overlap the next group's read.
      UKC_RETURN_IF_ERROR(process_group(group));
      if (group.loaded == 0) break;
      maybe_checkpoint(group);
      current = 1 - current;
    }
  }
  if (shard_sets.empty()) {
    // A resume that landed exactly at the end of the stream: the
    // checkpoint already holds the whole coreset.
    if (resume.restored.has_value()) return std::move(*resume.restored);
    return Status::InvalidArgument("ingest: empty stream");
  }

  // Ordered binary merge tree: at stride s, shard i absorbs shard i+s
  // for every i divisible by 2s. Pairs are disjoint, so each round is
  // one ParallelFor.
  UKC_OBS_TIMER(metric.merge_seconds);
  for (size_t stride = 1; stride < shards; stride *= 2) {
    UKC_INJECT_FAULT("ingest.merge");
    std::vector<size_t> left;
    for (size_t i = 0; i + stride < shards; i += 2 * stride) left.push_back(i);
    if (left.empty()) continue;
    std::vector<Status> merge_statuses(left.size());
    pool->ParallelFor(left.size(), [&](int, size_t p) {
      merge_statuses[p] =
          shard_sets[left[p]].MergeFrom(shard_sets[left[p] + stride]);
    });
    for (Status& status : merge_statuses) {
      if (!status.ok()) return std::move(status);
    }
  }
  return std::move(shard_sets[0]);
}

}  // namespace

Result<StreamingCoreset> IngestCoreset(size_t dim,
                                       const ResumableSourceFactory& factory,
                                       const IngestOptions& options,
                                       ThreadPool* shared_pool,
                                       IngestStats* stats) {
  if (factory == nullptr) {
    return Status::InvalidArgument("IngestCoreset: null factory");
  }
  if (dim == 0 || options.coreset.max_cells == 0 ||
      !(options.coreset.base_cell_width > 0.0)) {
    return Status::InvalidArgument(
        "ingest: dim and max_cells must be >= 1 and base_cell_width > 0");
  }
  if (options.retry.max_attempts < 1) {
    return Status::InvalidArgument("ingest: retry.max_attempts must be >= 1");
  }
  ScopedPool pool(shared_pool, 1);
  const size_t shards = options.shards <= 0
                            ? static_cast<size_t>(pool->num_threads())
                            : static_cast<size_t>(options.shards);
  const bool checkpointing = !options.checkpoint.path.empty();

  IngestStats counters;
  ResumeState resume;
  resume.config_fingerprint = ConfigFingerprint(dim, options, shards);
  std::optional<ResumableSource> source;

  if (checkpointing) {
    // The whole restore path — sidecar load, validation, replay-verify
    // — is one latency observation: it is the redo cost a crash pays.
    obs::ScopedTimer restore_timer(IngestRegistry(options).GetHistogram(
        "ukc_ingest_checkpoint_seconds", "Checkpoint save/restore latency",
        {{"op", "restore"}}));
    Result<IngestCheckpoint> loaded = LoadCheckpoint(options.checkpoint.path);
    if (!loaded.ok()) {
      // No sidecar yet is the normal first run; anything else is a
      // corrupt checkpoint — count the rejection, ingest from scratch.
      if (loaded.status().code() != StatusCode::kNotFound) {
        counters.checkpoint_rejected = true;
      }
    } else if (loaded->config_fingerprint != resume.config_fingerprint) {
      counters.checkpoint_rejected = true;
    } else if (loaded->batches > 0) {
      Result<StreamingCoreset> image =
          StreamingCoreset::Deserialize(loaded->coreset_image);
      if (!image.ok()) {
        counters.checkpoint_rejected = true;
      } else {
        ResumePoint point;
        point.batches = loaded->batches;
        point.points = loaded->points;
        if (loaded->has_byte_offset) {
          point.cursor =
              SourceCursor{loaded->byte_offset, loaded->cursor_window_hash};
        }
        bool positioned = false;
        UKC_ASSIGN_OR_RETURN(ResumableSource opened,
                             factory(&point, &positioned));
        bool accepted = true;
        uint64_t prefix_hash = loaded->content_fingerprint;
        if (!positioned) {
          // Replay the prefix without ingesting it, re-deriving the
          // content fingerprint; only a bit-for-bit match of the
          // checkpointed hash lets the resume proceed.
          uncertain::UncertainPointBatch discard;
          uint64_t replay_hash = kHashSeed;
          uint64_t replayed = 0;
          while (replayed < loaded->batches) {
            UKC_ASSIGN_OR_RETURN(bool more,
                                 PullBatch(opened, options, &discard));
            if (!more) {  // The stream is shorter than the checkpoint.
              accepted = false;
              break;
            }
            replay_hash = HashBatch(replay_hash, discard);
            ++replayed;
          }
          counters.replayed_batches = replayed;
          if (accepted && replay_hash != loaded->content_fingerprint) {
            accepted = false;
          }
          prefix_hash = replay_hash;
        }
        if (accepted) {
          resume.restored = std::move(image).value();
          resume.content_fingerprint = prefix_hash;
          counters.batches = loaded->batches;
          counters.points = loaded->points;
          counters.locations = loaded->locations;
          counters.restored = true;
          counters.restored_batches = loaded->batches;
          source = std::move(opened);
        } else {
          counters.checkpoint_rejected = true;
        }
      }
    }
  }

  if (!source.has_value()) {
    // Fresh full ingest — the first run, or the fallback after a
    // rejected checkpoint.
    bool positioned = false;
    UKC_ASSIGN_OR_RETURN(ResumableSource fresh, factory(nullptr, &positioned));
    source = std::move(fresh);
  }
  Result<StreamingCoreset> result = RunIngest(dim, *source, options, shards,
                                              pool.get(), counters,
                                              std::move(resume));
  if (stats != nullptr) *stats = counters;
  return result;
}

}  // namespace stream
}  // namespace ukc
