#include "uncertain/io.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/fault_injection.h"
#include "common/strings.h"
#include "metric/euclidean_space.h"

namespace ukc {
namespace uncertain {

namespace {

constexpr char kMagic[] = "ukc-dataset";
constexpr int kVersion = 1;

// Size of the read buffer; each refill tops it up with the next bytes
// of the input. Measured on a 5e4-point file, 16 KiB, 64 KiB and 1 MiB
// blocks parse equally fast; the small block keeps the readers of the
// stream workload from raising its peak_rss_mb.
constexpr size_t kBlockBytes = size_t{64} << 10;

// The C-locale isspace set: ' ', '\t', '\n', '\v', '\f', '\r'.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Pops the next whitespace-separated token off the front of *rest;
// false when none is left.
bool NextToken(std::string_view* rest, std::string_view* token) {
  size_t begin = 0;
  while (begin < rest->size() && IsSpace((*rest)[begin])) ++begin;
  size_t end = begin;
  while (end < rest->size() && !IsSpace((*rest)[end])) ++end;
  *token = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return !token->empty();
}

// A whole token under std::strtod semantics. from_chars takes the
// common case; a token it does not accept whole (a leading '+', hex,
// an out-of-range value) falls back to strtod, whose result stands.
// Both round correctly, so the two agree bit for bit wherever both
// accept.
bool ParseDouble(std::string_view token, double* out) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, *out);
  if (error == std::errc() && stop == end) return true;
  const std::string copy(token);
  char* copy_stop = nullptr;
  *out = std::strtod(copy.c_str(), &copy_stop);
  return !copy.empty() && copy_stop == copy.c_str() + copy.size();
}

// A whole token under std::strtoll base-10 semantics, refusing
// overflow; from_chars first, as in ParseDouble.
bool ParseInteger(std::string_view token, long long* out) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, *out);
  if (error == std::errc() && stop == end) return true;
  const std::string copy(token);
  char* copy_stop = nullptr;
  errno = 0;
  *out = std::strtoll(copy.c_str(), &copy_stop, 10);
  return !copy.empty() && copy_stop == copy.c_str() + copy.size() &&
         errno != ERANGE;
}

// A "<key> <integer>" line with exactly those two tokens.
bool ParseKeyedInteger(std::string_view line, std::string_view key,
                       long long* value) {
  std::string_view word;
  std::string_view number;
  std::string_view extra;
  return NextToken(&line, &word) && word == key &&
         NextToken(&line, &number) && ParseInteger(number, value) &&
         !NextToken(&line, &extra);
}

Status ParseNorm(std::string_view name, metric::Norm* out) {
  if (name == "L2") {
    *out = metric::Norm::kL2;
  } else if (name == "L1") {
    *out = metric::Norm::kL1;
  } else if (name == "LInf") {
    *out = metric::Norm::kLInf;
  } else {
    return Status::InvalidArgument("ukc-dataset: unknown norm " +
                                   std::string(name));
  }
  return Status::OK();
}

}  // namespace

Status SaveDataset(const UncertainDataset& dataset, std::ostream& os) {
  const metric::EuclideanSpace* space = dataset.euclidean();
  if (space == nullptr) {
    return Status::FailedPrecondition(
        "SaveDataset: only Euclidean datasets are serializable");
  }
  os << kMagic << " " << kVersion << "\n";
  os << "dim " << space->dim() << "\n";
  // L2 files omit the norm line and stay byte-compatible with readers
  // that predate it; non-L2 files were silently reloaded as L2 before
  // the line existed, so a hard parse error there is strictly better.
  if (space->norm() != metric::Norm::kL2) {
    os << "norm " << metric::NormToString(space->norm()) << "\n";
  }
  os << "n " << dataset.n() << "\n";
  os.precision(17);
  for (size_t i = 0; i < dataset.n(); ++i) {
    const UncertainPointView p = dataset.point(i);
    os << "point " << p.num_locations() << "\n";
    for (const Location& loc : p.locations()) {
      os << loc.probability;
      const geometry::Point& point = space->point(loc.site);
      for (size_t a = 0; a < point.dim(); ++a) os << " " << point[a];
      os << "\n";
    }
  }
  if (!os.good()) return Status::Internal("SaveDataset: write failure");
  return Status::OK();
}

Status SaveDatasetToFile(const UncertainDataset& dataset,
                         const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::NotFound("SaveDatasetToFile: cannot open " + path);
  }
  return SaveDataset(dataset, file);
}

Result<UncertainDataset> LoadDataset(std::istream& is) {
  // One parser for the format: pull chunks off the streaming reader
  // and materialize them (one fresh site per location line, exactly as
  // the chunked path sees them).
  UKC_ASSIGN_OR_RETURN(DatasetReader reader, DatasetReader::FromStream(is));
  auto space =
      std::make_shared<metric::EuclideanSpace>(reader.dim(), reader.norm());
  // No reserve from the header's n: a corrupt count must fail as a
  // truncation, not as a huge allocation.
  std::vector<UncertainPoint> points;
  UncertainPointBatch batch;
  while (true) {
    UKC_ASSIGN_OR_RETURN(size_t produced, reader.ReadChunk(4096, &batch));
    if (produced == 0) break;
    for (size_t i = 0; i < batch.n(); ++i) {
      std::vector<Location> locations;
      locations.reserve(batch.locations_of(i));
      for (size_t l = batch.offsets[i]; l < batch.offsets[i + 1]; ++l) {
        locations.push_back(Location{space->AddCoords(batch.location_coords(l)),
                                     batch.probabilities[l]});
      }
      auto point = UncertainPoint::Build(std::move(locations));
      if (!point.ok()) {
        return point.status().WithPrefix(
            StrFormat("LoadDataset: point %zu", batch.start_index + i));
      }
      points.push_back(std::move(point).value());
    }
  }
  return UncertainDataset::Build(std::move(space), std::move(points));
}

Result<UncertainDataset> LoadDatasetFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::NotFound("LoadDatasetFromFile: cannot open " + path);
  }
  return LoadDataset(file);
}

Result<DatasetReader> DatasetReader::Open(const std::string& path) {
  DatasetReader reader;
  reader.file_.open(path, std::ios::binary);
  if (!reader.file_.is_open()) {
    return Status::NotFound("DatasetReader: cannot open " + path);
  }
  UKC_RETURN_IF_ERROR(reader.ParseHeader());
  return reader;
}

Result<DatasetReader> DatasetReader::FromStream(std::istream& is) {
  DatasetReader reader;
  reader.borrowed_ = &is;
  const std::streampos origin = is.tellg();
  reader.tellable_ = origin >= 0;
  if (reader.tellable_) reader.block_start_ = static_cast<uint64_t>(origin);
  UKC_RETURN_IF_ERROR(reader.ParseHeader());
  return reader;
}

Status DatasetReader::Refill() {
  const size_t tail = end_ - scan_;
  if (tail > 0) std::memmove(buffer_.data(), buffer_.data() + scan_, tail);
  block_start_ += scan_;
  end_ -= scan_;
  scan_ = 0;
  // The buffer is one block; only a line that fills all of it doubles
  // it (it never shrinks).
  if (end_ == buffer_.size()) {
    buffer_.resize(std::max(kBlockBytes, 2 * buffer_.size()));
  }
  const uint64_t offset = block_start_ + end_;
  const Status read = [&]() -> Status {
    UKC_INJECT_FAULT("io.read_block");
    std::istream& is = in();
    const size_t want = buffer_.size() - end_;
    is.read(buffer_.data() + end_, static_cast<std::streamsize>(want));
    const size_t got = static_cast<size_t>(is.gcount());
    end_ += got;
    if (is.bad() || (got < want && !is.eof())) {
      return Status::Internal("short block read");
    }
    eof_ = got < want;
    return Status::OK();
  }();
  if (!read.ok()) {
    return Status::Internal(
        StrFormat("DatasetReader: read error at byte offset %llu",
                  static_cast<unsigned long long>(offset)));
  }
  return Status::OK();
}

Result<bool> DatasetReader::ScanLine(std::string_view* line) {
  while (true) {
    const char* base = buffer_.data();
    const char* newline =
        scan_ < end_ ? static_cast<const char*>(
                           std::memchr(base + scan_, '\n', end_ - scan_))
                     : nullptr;
    size_t stop = end_;
    if (newline != nullptr) {
      stop = static_cast<size_t>(newline - base);
    } else if (!eof_) {
      UKC_RETURN_IF_ERROR(Refill());
      continue;
    } else if (scan_ == end_) {
      return false;
    }
    std::string_view text(base + scan_, stop - scan_);
    scan_ = newline != nullptr ? stop + 1 : stop;
    const size_t hash = text.find('#');
    if (hash != std::string_view::npos) text = text.substr(0, hash);
    text = StrTrim(text);
    if (!text.empty()) {
      *line = text;
      return true;
    }
  }
}

Status DatasetReader::Reposition(uint64_t byte_offset) {
  std::istream& is = in();
  is.clear();
  is.seekg(static_cast<std::streamoff>(byte_offset));
  if (!is.good()) {
    return Status::OutOfRange(
        StrFormat("SeekTo: cannot seek to byte offset %llu",
                  static_cast<unsigned long long>(byte_offset)));
  }
  block_start_ = byte_offset;
  scan_ = 0;
  end_ = 0;
  eof_ = false;
  return Status::OK();
}

// Parses the "ukc-dataset <version> / dim <d> / [norm <name>] / n
// <count>" header. The norm line is optional (files written before it
// was recorded are L2), which keeps the version stable.
Status DatasetReader::ParseHeader() {
  std::string_view line;
  UKC_ASSIGN_OR_RETURN(bool found, ScanLine(&line));
  if (!found) return Status::InvalidArgument("ukc-dataset: empty input");
  std::string_view magic;
  std::string_view token;
  long long version = 0;
  NextToken(&line, &magic);
  if (NextToken(&line, &token) && !ParseInteger(token, &version)) version = 0;
  if (magic != kMagic || version != kVersion || NextToken(&line, &token)) {
    return Status::InvalidArgument(
        StrFormat("ukc-dataset: bad header '%s %lld'",
                  std::string(magic).c_str(), version));
  }
  auto read_keyed_size = [&](const char* key, size_t* out) -> Status {
    UKC_ASSIGN_OR_RETURN(bool present, ScanLine(&line));
    if (!present) {
      return Status::InvalidArgument(
          StrFormat("ukc-dataset: missing '%s'", key));
    }
    long long value = -1;
    if (!ParseKeyedInteger(line, key, &value) || value < 0) {
      return Status::InvalidArgument(
          StrFormat("ukc-dataset: expected '%s <count>', got '%s'", key,
                    std::string(line).c_str()));
    }
    *out = static_cast<size_t>(value);
    return Status::OK();
  };
  UKC_RETURN_IF_ERROR(read_keyed_size("dim", &dim_));
  // Either "norm <name>" followed by "n <count>", or "n <count>" alone.
  norm_ = metric::Norm::kL2;
  UKC_ASSIGN_OR_RETURN(bool present, ScanLine(&line));
  if (!present) return Status::InvalidArgument("ukc-dataset: missing 'n'");
  std::string_view rest = line;
  std::string_view word;
  NextToken(&rest, &word);
  if (word == "norm") {
    std::string_view name;
    if (!NextToken(&rest, &name) || NextToken(&rest, &token)) {
      return Status::InvalidArgument("ukc-dataset: malformed norm line");
    }
    UKC_RETURN_IF_ERROR(ParseNorm(name, &norm_));
    UKC_RETURN_IF_ERROR(read_keyed_size("n", &n_));
  } else {
    long long value = -1;
    if (!ParseKeyedInteger(line, "n", &value) || value < 0) {
      return Status::InvalidArgument(
          StrFormat("ukc-dataset: expected 'n <count>', got '%s'",
                    std::string(line).c_str()));
    }
    n_ = static_cast<size_t>(value);
  }
  if (dim_ == 0) {
    return Status::InvalidArgument("ukc-dataset: dim must be >= 1");
  }
  if (n_ == 0) return Status::InvalidArgument("ukc-dataset: n must be >= 1");
  return Status::OK();
}

Result<size_t> DatasetReader::ReadChunk(size_t max_points,
                                        UncertainPointBatch* batch) {
  UKC_RETURN_IF_ERROR(poison_);
  if (batch == nullptr) {
    return Status::InvalidArgument("ReadChunk: null batch");
  }
  if (max_points == 0) {
    return Status::InvalidArgument("ReadChunk: max_points must be >= 1");
  }
  // Simulated read error of the chunked parser ("short read" at the
  // stream level): fires before any input is consumed, so a retry of
  // the pull re-reads the same chunk.
  UKC_INJECT_FAULT("io.read_chunk");
  Result<size_t> produced = ParseRecords(max_points, batch);
  if (!produced.ok()) poison_ = produced.status();
  return produced;
}

Result<size_t> DatasetReader::ParseRecords(size_t max_points,
                                           UncertainPointBatch* batch) {
  batch->Clear();
  batch->dim = dim_;
  batch->norm = norm_;
  batch->start_index = read_;
  batch->offsets.push_back(0);

  std::string_view line;
  size_t produced = 0;
  while (produced < max_points && read_ < n_) {
    // Record boundary: where this point's 'point <z>' line starts —
    // the offset a truncation error reports back to the caller.
    const std::optional<uint64_t> record_offset = TellByteOffset();
    const long long offset_detail =
        record_offset.has_value() ? static_cast<long long>(*record_offset) : -1;
    UKC_ASSIGN_OR_RETURN(bool found, ScanLine(&line));
    if (!found) {
      return Status::InvalidArgument(StrFormat(
          "ReadChunk: truncated after %zu of %zu points (record %zu, byte "
          "offset %lld)",
          read_, n_, read_, offset_detail));
    }
    long long z = -1;
    if (!ParseKeyedInteger(line, "point", &z) || z <= 0) {
      return Status::InvalidArgument(StrFormat(
          "ReadChunk: expected 'point <z>' for point %zu, got '%s' (byte "
          "offset %lld)",
          read_, std::string(line).c_str(), offset_detail));
    }
    const size_t point_begin = batch->probabilities.size();
    for (long long j = 0; j < z; ++j) {
      UKC_ASSIGN_OR_RETURN(found, ScanLine(&line));
      if (!found) {
        return Status::InvalidArgument(StrFormat(
            "ReadChunk: truncated at point %zu location %lld (record %zu, "
            "byte offset %lld)",
            read_, j, read_, offset_detail));
      }
      // Exactly 1 + dim tokens. The probability is taken as strtod
      // reads it — NaN and inf included — so the shared
      // ValidateDistribution below rejects it with the same error as
      // every other entry point; a coordinate must be finite here.
      std::string_view rest = line;
      std::string_view token;
      double probability = 0.0;
      bool parsed = NextToken(&rest, &token) && ParseDouble(token, &probability);
      for (size_t a = 0; parsed && a < dim_; ++a) {
        double coordinate = 0.0;
        parsed = NextToken(&rest, &token) && ParseDouble(token, &coordinate) &&
                 std::isfinite(coordinate);
        batch->coords.push_back(coordinate);
      }
      if (!parsed || NextToken(&rest, &token)) {
        return Status::InvalidArgument(
            StrFormat("ReadChunk: malformed location line for point %zu: '%s'",
                      read_, std::string(line).c_str()));
      }
      batch->probabilities.push_back(probability);
    }
    // The shared invariants, via the same helpers as the producer source
    // (and UncertainPoint::Build for the distribution) — identical
    // rejects, identical messages.
    Status valid = ValidateDistribution(
        std::span<const double>(batch->probabilities.data() + point_begin,
                                batch->probabilities.size() - point_begin));
    if (valid.ok()) {
      valid = ValidateCoordinates(
          std::span<const double>(batch->coords.data() + point_begin * dim_,
                                  batch->coords.size() - point_begin * dim_),
          dim_);
    }
    if (!valid.ok()) {
      return valid.WithPrefix(StrFormat("ReadChunk: point %zu", read_));
    }
    batch->offsets.push_back(batch->probabilities.size());
    ++read_;
    ++produced;
  }
  return produced;
}

std::optional<uint64_t> DatasetReader::TellByteOffset() const {
  if (!tellable_ || !poison_.ok()) return std::nullopt;
  return block_start_ + scan_;
}

Status DatasetReader::SeekTo(uint64_t byte_offset, uint64_t points_read) {
  UKC_RETURN_IF_ERROR(poison_);
  if (points_read > n_) {
    return Status::InvalidArgument(
        StrFormat("SeekTo: points_read %llu exceeds declared n %zu",
                  static_cast<unsigned long long>(points_read), n_));
  }
  const Status status = [&]() -> Status {
    UKC_RETURN_IF_ERROR(Reposition(byte_offset));
    if (points_read == n_) return Status::OK();
    // Peek-validate: the next non-comment line must start a record. A
    // stale or corrupt cursor lands mid-record (a location line) or
    // past the end, and both fail this parse.
    std::string_view line;
    UKC_ASSIGN_OR_RETURN(bool found, ScanLine(&line));
    if (!found) {
      return Status::OutOfRange(StrFormat(
          "SeekTo: no record at byte offset %llu (stream exhausted, %llu of "
          "%zu points consumed)",
          static_cast<unsigned long long>(byte_offset),
          static_cast<unsigned long long>(points_read), n_));
    }
    long long z = -1;
    if (!ParseKeyedInteger(line, "point", &z) || z <= 0) {
      return Status::InvalidArgument(StrFormat(
          "SeekTo: byte offset %llu is not a record boundary (got '%s')",
          static_cast<unsigned long long>(byte_offset),
          std::string(line).c_str()));
    }
    return Reposition(byte_offset);
  }();
  if (!status.ok()) {
    poison_ = status;
    return status;
  }
  read_ = points_read;
  return Status::OK();
}

}  // namespace uncertain
}  // namespace ukc
