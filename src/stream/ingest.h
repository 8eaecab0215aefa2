// Chunked ingestion: turns a stream of uncertain points — an in-memory
// dataset, a dataset file (uncertain/io.h DatasetReader), or any
// caller-supplied producer — into a StreamingCoreset without ever
// holding more than 2 · shards · chunk_size points in memory. Every
// stream enters through one re-startable ResumableSourceFactory and
// one entry point, IngestCoreset.
//
// Sharding discipline: batches are read serially by one dedicated
// reader thread (I/O is the one serial resource), collected into
// groups of at most `shards` batches, and each group is processed by
// one ThreadPool::ParallelFor while the reader prefetches the next —
// batch g of group r feeds shard (r·shards + g) mod shards, so no two
// workers ever touch one shard and each shard sees its subsequence of
// batches in stream order. The shard coresets are then reduced by an
// ordered binary merge tree (stride 1, 2, 4, ... — disjoint pairs
// merge in parallel). None of this is needed for determinism — the
// grid coreset is bitwise partition-invariant by construction
// (stream/coreset.h) — but it keeps the layer on the same determinism
// discipline as ParallelCandidateEvaluator, so the invariance never
// rests on a single component's guarantee.

#ifndef UKC_STREAM_INGEST_H_
#define UKC_STREAM_INGEST_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/result.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "stream/checkpoint.h"
#include "stream/coreset.h"
#include "uncertain/chunk.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace stream {

/// Pull-style producer of batches: fills *batch with the next chunk of
/// the stream and returns true, or returns false at the clean end of
/// the stream. Implementations must set batch->start_index to the
/// stream index of the batch's first point.
using BatchSource =
    std::function<Result<bool>(uncertain::UncertainPointBatch* batch)>;

/// Re-startable stream: every call opens an independent pass over the
/// same data from the beginning (the streaming pipeline reads the data
/// twice — coreset build, then verification).
using BatchSourceFactory = std::function<Result<BatchSource>()>;

/// Chunks an in-memory dataset (Euclidean only; coordinates are
/// gathered out of the space's arena). The dataset must outlive the
/// source.
Result<BatchSource> MakeDatasetBatchSource(
    const uncertain::UncertainDataset* dataset, size_t chunk_size);

/// Adapts a per-point callback producer: `next` appends one point's
/// locations (dim doubles per location into *coords, one probability
/// each into *probabilities; both pre-cleared) and returns true, or
/// returns false when the stream ends. Each point's probabilities must
/// be positive and sum to 1 (the same invariant every other entry
/// point enforces). `norm` declares the metric the coordinates live
/// under; it stamps every batch and must match across the stream.
using PointProducer = std::function<bool(std::vector<double>* coords,
                                         std::vector<double>* probabilities)>;
Result<BatchSource> MakeProducerBatchSource(size_t dim, PointProducer next,
                                            size_t chunk_size,
                                            metric::Norm norm = metric::Norm::kL2);

/// Bytes hashed into SourceCursor::window_hash: the window of the file
/// immediately preceding the cursor's byte offset (shorter when the
/// offset is near the start).
inline constexpr uint64_t kCursorWindowBytes = 4096;

/// One position probe of a seekable stream: the byte offset of the
/// next unread record plus a hash of the kCursorWindowBytes bytes
/// preceding it. The window hash is the seek path's change detector: a
/// structurally-valid record boundary at the right offset of the WRONG
/// file (the data was regenerated between crash and resume) would
/// otherwise splice two streams into one silently wrong coreset, so
/// the factory re-hashes the same window before trusting a
/// checkpointed offset and degrades to the replay-verify path on any
/// mismatch.
struct SourceCursor {
  uint64_t byte_offset = 0;
  uint64_t window_hash = 0;
};

/// The ingestion cursor a checkpoint restores to (a whole-group
/// boundary: `batches` is a multiple of the effective shard count
/// whenever the stream was not yet exhausted).
struct ResumePoint {
  uint64_t batches = 0;
  uint64_t points = 0;
  /// Position of the next unread record when the checkpointed source
  /// could report one (uncertain/io.h TellByteOffset).
  std::optional<SourceCursor> cursor;
};

/// A BatchSource plus an optional position probe. `tell`, when
/// non-null, returns the cursor of the next unread record — it is
/// only ever called by the thread that pulls `next`, between pulls —
/// and is what makes a checkpoint seek-restorable.
struct ResumableSource {
  BatchSource next;
  std::function<std::optional<SourceCursor>()> tell;
};

/// Factory of re-startable, optionally repositionable streams — the
/// input of the checkpoint-aware IngestCoreset. Called with `resume ==
/// nullptr` it opens the stream from the beginning (like
/// BatchSourceFactory). Called with a ResumePoint it MAY position the
/// stream so the next pull yields batch `resume->batches`, setting
/// *positioned = true; a factory that cannot (or whose positioning
/// attempt fails against a stale cursor) returns a from-the-start
/// stream with *positioned = false, and the ingest layer replays the
/// prefix, verifying its content fingerprint batch by batch. Either
/// way the factory must tolerate being invoked again (a rejected
/// resume falls back to a fresh full pass).
using ResumableSourceFactory = std::function<Result<ResumableSource>(
    const ResumePoint* resume, bool* positioned)>;

/// Wraps a plain BatchSourceFactory: never positioned, no tell —
/// resumes go through the replay-and-verify path. (For in-memory
/// datasets the replay is a cheap re-chunk, and hashing the prefix
/// guards against resuming against different data.)
ResumableSourceFactory AdaptBatchFactory(BatchSourceFactory factory);

/// Resumable factory over a dataset file; every call opens `path`
/// afresh (one chunk of the file is resident at a time). Resume
/// positions the reader with DatasetReader::SeekTo (one seek instead
/// of re-parsing the prefix); a cursor that fails structural validation
/// degrades to the replay path instead of erroring.
ResumableSourceFactory ResumableFileFactory(const std::string& path,
                                            size_t chunk_size);

/// Resumable factory over an in-memory dataset (replay path; see
/// AdaptBatchFactory).
ResumableSourceFactory ResumableDatasetFactory(
    const uncertain::UncertainDataset* dataset, size_t chunk_size);

/// Configuration of the sharded coreset build.
struct IngestOptions {
  /// Points per batch. Consumed by the pipeline, which builds its
  /// sources from it, and hashed into the checkpoint fingerprint;
  /// IngestCoreset itself takes whatever batch size its source emits.
  size_t chunk_size = 4096;
  /// Shard coresets built concurrently; <= 0 = the pool's thread count.
  int shards = 0;
  CoresetOptions coreset;
  /// Bounded retry of transient batch-source failures (kUnavailable
  /// only; see common/retry.h). Sources must not consume input on a
  /// failed pull for the retry to be sound — every source in this
  /// repo satisfies that.
  RetryOptions retry;
  /// Crash-consistent checkpointing (stream/checkpoint.h); resuming
  /// and falling back re-open the stream through the factory.
  CheckpointOptions checkpoint;
  /// Registry the ingest telemetry meters into (null = the process-wide
  /// obs::MetricsRegistry::Default()): stage timers
  /// (ukc_ingest_stage_seconds{stage=read|process|merge}), throughput
  /// counters (ukc_ingest_{batches,points}_total), checkpoint latency
  /// (ukc_ingest_checkpoint_seconds{op=save|restore}), checkpoint
  /// outcomes (ukc_ingest_checkpoints_total{outcome}) and the read
  /// retries (ukc_retry_*_total{site="ingest.read"}). The registry is
  /// the only store of the retry and failed-save counts, and a
  /// registry shared by several runs holds their sum. Metrics never
  /// feed the coreset state — the bitwise-determinism guarantee is
  /// untouched.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Counters of one ingestion run. When a run resumes from a
/// checkpoint, points/locations/batches include the restored prefix —
/// the totals match an uninterrupted run.
struct IngestStats {
  uint64_t points = 0;
  uint64_t locations = 0;
  uint64_t batches = 0;
  /// Checkpoints written. Save failures are non-fatal (the previous
  /// sidecar remains the recovery point) and are counted only in the
  /// registry, as ukc_ingest_checkpoints_total{outcome="failed"}.
  uint64_t checkpoint_saves = 0;
  /// Restore outcome: whether a checkpoint was accepted, how many
  /// batches it skipped (restored_batches) and how many had to be
  /// replayed to verify the content fingerprint (replayed_batches).
  bool restored = false;
  bool checkpoint_rejected = false;
  uint64_t restored_batches = 0;
  uint64_t replayed_batches = 0;
};

/// The ingestion entry point: drains one stream opened by `factory`
/// through shard coresets on the borrowed `pool` (null runs them inline
/// on the calling thread; the reader thread still prefetches) and
/// reduces them into the returned coreset, bitwise identical for every
/// (pool, shards, chunk_size) configuration. With
/// options.checkpoint.path set, the run first tries to restore —
/// validating checksum, configuration fingerprint and stream position,
/// and degrading to a full re-ingest on ANY mismatch — then saves a
/// checkpoint every every_n_batches batches (rounded to whole groups).
/// A restored-and-resumed run produces the bitwise-identical coreset an
/// uninterrupted run would have produced.
Result<StreamingCoreset> IngestCoreset(size_t dim,
                                       const ResumableSourceFactory& factory,
                                       const IngestOptions& options,
                                       ThreadPool* pool,
                                       IngestStats* stats = nullptr);

/// Summarizes one batch point for the coreset: writes the expected
/// point of batch point `i` into expected[0..dim) and returns
/// spread_i = max location distance to it. (The verification pass does
/// not use this — it works with per-location distances to the chosen
/// centers, not the surrogate summary.)
double SummarizeBatchPoint(const uncertain::UncertainPointBatch& batch,
                           size_t i, double* expected);

/// Structural validation applied to every ingested batch (dimension,
/// CSR consistency, no empty points). The pipeline's verification pass
/// applies the same gate to its second read of the stream.
Status ValidateBatch(const uncertain::UncertainPointBatch& batch, size_t dim);

}  // namespace stream
}  // namespace ukc

#endif  // UKC_STREAM_INGEST_H_
