// Crash-consistent checkpointing of the streaming ingestion state.
//
// A checkpoint is a small sidecar file capturing everything needed to
// resume a coreset build mid-stream: the merged coreset image
// (stream/coreset.h SerializeTo), the ingestion cursor (batches and
// points consumed, and — for seekable file streams — the byte offset
// of the next record), and two fingerprints that gate the restore:
//
//   - config_fingerprint: hash of the ingestion configuration (dim,
//     chunk size, effective shard count, and the coreset knobs —
//     including churn_bucket and track_members, via stream/coreset.h
//     HashCoresetOptions). A checkpoint written under one configuration
//     must never resume another — the group boundaries or the coreset's
//     churn state would differ and the bitwise-determinism contract of
//     stream/ingest.h would silently break.
//   - content_fingerprint: running hash of every batch consumed so
//     far. A replay-based resume re-hashes the prefix and compares; a
//     seek-based resume instead re-hashes the file window preceding
//     the cursor (cursor_window_hash) and validates the offset
//     structurally (uncertain/io.h SeekTo peeks a record boundary).
//
// Write protocol (SaveCheckpoint): serialize + trailing checksum into
// a buffer, write to `path + ".tmp"`, fsync, rename over `path`, fsync
// the directory. A crash at any point leaves either the old complete
// checkpoint or the new complete checkpoint — a torn temp file is
// never renamed into place. LoadCheckpoint verifies magic, version and
// checksum and returns an error on any mismatch; the ingest layer
// treats every load error as "no usable checkpoint" and falls back to
// a full re-ingest (recovery is best-effort, correctness never rests
// on the sidecar).
//
// The byte layout is host-endian and carries a version tag: a
// checkpoint is a crash-recovery artifact of one machine and one build,
// not a portable interchange format. See docs/operations.md.

#ifndef UKC_STREAM_CHECKPOINT_H_
#define UKC_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace ukc {
namespace stream {

/// Checkpointing knobs of an ingestion run (IngestOptions::checkpoint).
struct CheckpointOptions {
  /// Sidecar file path; empty disables checkpointing entirely (the
  /// default — no fingerprinting work is done either).
  std::string path;
  /// Save after at least this many batches since the last save.
  /// Checkpoints are only taken at group boundaries (multiples of the
  /// effective shard count), so the actual cadence is this value
  /// rounded up to whole groups.
  uint64_t every_n_batches = 64;
  /// fsync the temp file and its directory on save. Leave on for crash
  /// consistency; tests that only exercise the logic may turn it off.
  bool sync = true;
};

/// The persisted state. Plain data; the ingest layer fills and
/// interprets it, this header only moves it to and from disk.
struct IngestCheckpoint {
  /// Hash of the ingestion configuration (see file comment).
  uint64_t config_fingerprint = 0;
  /// Running hash of the consumed batch prefix.
  uint64_t content_fingerprint = 0;
  /// Batches, points and locations consumed when the checkpoint was
  /// taken (the full IngestStats cursor, so a resumed run reports the
  /// same totals as an uninterrupted one).
  uint64_t batches = 0;
  uint64_t points = 0;
  uint64_t locations = 0;
  /// Sliding-window state (v2): the window size the writer ran with
  /// (0 = unbounded) and the cumulative points retired by expiry. The
  /// expiry WATERMARK itself lives inside the coreset image; these two
  /// fields let a restored replica report the same window config and
  /// telemetry totals as an uninterrupted one.
  uint64_t window_points = 0;
  uint64_t expired_points = 0;
  /// Byte offset of the next unread record of the underlying file,
  /// when the source can report one (uncertain/io.h TellByteOffset),
  /// plus the hash of the file window preceding it (stream/ingest.h
  /// SourceCursor) — re-verified before any seek-based resume.
  bool has_byte_offset = false;
  uint64_t byte_offset = 0;
  uint64_t cursor_window_hash = 0;
  /// StreamingCoreset::SerializeTo image of the merged shard state.
  std::string coreset_image;
};

/// Atomically replaces `path` with a checksummed serialization of
/// `checkpoint` (see file comment for the crash-consistency protocol).
/// Failures leave any previous checkpoint at `path` intact.
Status SaveCheckpoint(const std::string& path,
                      const IngestCheckpoint& checkpoint, bool sync = true);

/// Reads and validates a checkpoint written by SaveCheckpoint. Any
/// corruption — bad magic, unknown version, checksum mismatch,
/// truncation — is an error, never a partial result.
Result<IngestCheckpoint> LoadCheckpoint(const std::string& path);

}  // namespace stream
}  // namespace ukc

#endif  // UKC_STREAM_CHECKPOINT_H_
