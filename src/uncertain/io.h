// Plain-text serialization of Euclidean uncertain datasets.
//
// Grammar. The input is a sequence of lines; a line is the bytes up to
// '\n' (the last line may lack it). A '#' cuts the line there; a line
// that is empty after the cut and StrTrim (common/strings.h: ' ', '\t',
// '\r', '\n') is blank and skipped. Every other line splits into tokens
// on the C-locale isspace set (' ', '\t', '\n', '\v', '\f', '\r'), so
// CRLF files read like LF files. Each line must hold exactly the tokens
// its rule names, no more:
//
//   header   := "ukc-dataset" VERSION        VERSION = 1
//               "dim" COUNT                  COUNT >= 1
//               [ "norm" ("L2" | "L1" | "LInf") ]   absent = L2
//               "n" COUNT                    COUNT >= 1
//   record   := "point" Z                    Z >= 1, then Z location lines
//   location := PROB X_1 ... X_dim           exactly 1 + dim tokens
//   file     := header record^n    (bytes after the n-th record are
//                                     never read)
//
// Number tokens are consumed whole or not at all ("2.5abc", "1,5" and
// an embedded NUL are malformed):
//   - VERSION, COUNT, Z: std::strtoll base 10 semantics (an optional
//     sign, decimal digits, no overflow).
//   - PROB, X_a: std::strtod semantics — a leading '+', hex ("0x1p3" is
//     8), "inf"/"nan" and out-of-range values read as strtod reads them.
//     Every X_a must be finite; "inf", "nan" and "1e400" are malformed
//     location lines. PROB is taken as read, so NaN, inf and 0 reach
//     ValidateDistribution (uncertain_point.h) and are rejected there
//     with the same message as at every other entry point; the
//     coordinates of each point then pass ValidateCoordinates.
//
// Only Euclidean datasets are serializable; finite metric spaces carry
// their own provenance (matrix or graph) and are rebuilt from it.

#ifndef UKC_UNCERTAIN_IO_H_
#define UKC_UNCERTAIN_IO_H_

#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "uncertain/chunk.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace uncertain {

/// Writes a Euclidean dataset. Fails on non-Euclidean datasets.
Status SaveDataset(const UncertainDataset& dataset, std::ostream& os);

/// Convenience: save to a file path.
Status SaveDatasetToFile(const UncertainDataset& dataset,
                         const std::string& path);

/// Parses a dataset written by SaveDataset.
Result<UncertainDataset> LoadDataset(std::istream& is);

/// Convenience: load from a file path.
Result<UncertainDataset> LoadDatasetFromFile(const std::string& path);

/// Streams a dataset written by SaveDataset chunk by chunk, without
/// materializing the whole input: Open/FromStream parse the header,
/// each ReadChunk call parses the next `max_points` point records into
/// a flat UncertainPointBatch (coordinates inline — no space, no site
/// minting). Peak memory is one chunk plus one 64 KiB read buffer
/// (larger only while a line is longer than that), independent of n. This is the single parser of the format: the
/// ingestion path of the streaming coreset layer (stream/ingest.h)
/// pulls chunks directly, and LoadDataset materializes a dataset from
/// the same chunks.
///
/// The header, ReadChunk and the SeekTo peek share one byte scanner:
/// it holds a 64 KiB block of the input, topped up at each refill
/// (fault site "io.read_block"), finds lines with memchr and parses
/// numbers with std::from_chars, falling back to strtod/strtoll for
/// any token from_chars does not take whole.
class DatasetReader {
 public:
  /// Opens `path` (owning the file handle) and parses the header.
  static Result<DatasetReader> Open(const std::string& path);

  /// Parses the header off a borrowed stream, which must outlive the
  /// reader. The reader reads ahead in blocks, so the stream's own
  /// position runs past the last line the reader consumed.
  static Result<DatasetReader> FromStream(std::istream& is);

  DatasetReader(DatasetReader&&) = default;
  DatasetReader& operator=(DatasetReader&&) = default;

  /// Ambient dimension declared by the header.
  size_t dim() const { return dim_; }
  /// Norm declared by the header (L2 for files predating the norm
  /// line).
  metric::Norm norm() const { return norm_; }
  /// Total point count declared by the header.
  size_t num_points() const { return n_; }
  /// Points consumed by ReadChunk calls so far.
  size_t num_read() const { return read_; }

  /// Replaces *batch with the next <= max_points points (max_points >=
  /// 1). Returns the number of points read: 0 exactly at the clean end
  /// of the stream, an error on malformed or truncated input. The
  /// batch's start_index is the stream index of its first point.
  /// Truncation and parse errors carry the record index and the byte
  /// offset of the offending record, so a caller can report exactly
  /// where a torn input broke off. A failed block read is
  /// Internal("DatasetReader: read error at byte offset N"), never a
  /// truncation. Any error after input was consumed poisons the
  /// reader: every later ReadChunk and SeekTo returns the same error,
  /// so a retried pull can never splice records.
  Result<size_t> ReadChunk(size_t max_points, UncertainPointBatch* batch);

  /// Byte offset of the read position: the byte right after the last
  /// consumed line, so a record boundary whenever it is taken between
  /// ReadChunk calls. nullopt when the underlying stream cannot report
  /// positions, or once the reader is poisoned. The checkpoint layer
  /// persists this as the ingestion cursor (stream/checkpoint.h).
  std::optional<uint64_t> TellByteOffset() const;

  /// Repositions the reader to a (byte_offset, points_read) pair
  /// previously captured via TellByteOffset/num_read — the checkpoint
  /// restore fast path: the prefix is skipped by one seek instead of
  /// being re-parsed. Validates that a record actually starts at the
  /// offset (or that the stream is cleanly exhausted); any failure
  /// after the seek poisons the reader, as in ReadChunk.
  Status SeekTo(uint64_t byte_offset, uint64_t points_read);

 private:
  DatasetReader() = default;

  // The input is either the owned file or a borrowed stream; in() hides
  // which, keeping the default move semantics valid (the borrowed
  // pointer never aims at a member).
  std::istream& in() { return borrowed_ != nullptr ? *borrowed_ : file_; }

  Status ParseHeader();
  // The records of one ReadChunk call, after its argument checks.
  Result<size_t> ParseRecords(size_t max_points, UncertainPointBatch* batch);
  // Sets *line to the next non-blank line, '#' comment cut and trimmed;
  // false at the end of input. The view lives until the next call.
  Result<bool> ScanLine(std::string_view* line);
  // Moves the unconsumed tail to the front of the buffer and appends
  // the next block of the input.
  Status Refill();
  // Seeks the input to `byte_offset` and empties the buffer.
  Status Reposition(uint64_t byte_offset);

  std::ifstream file_;
  std::istream* borrowed_ = nullptr;
  // buffer_[0, end_) holds the input bytes from offset block_start_ on;
  // scan_ is the first byte not yet consumed.
  std::vector<char> buffer_;
  uint64_t block_start_ = 0;
  size_t scan_ = 0;
  size_t end_ = 0;
  bool eof_ = false;
  // False when the borrowed stream cannot report its position.
  bool tellable_ = true;
  // The sticky error of a failed ReadChunk or SeekTo (OK while usable).
  Status poison_;
  size_t dim_ = 0;
  metric::Norm norm_ = metric::Norm::kL2;
  size_t n_ = 0;
  size_t read_ = 0;
};

}  // namespace uncertain
}  // namespace ukc

#endif  // UKC_UNCERTAIN_IO_H_
