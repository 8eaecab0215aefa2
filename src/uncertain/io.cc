#include "uncertain/io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "common/strings.h"
#include "metric/euclidean_space.h"

namespace ukc {
namespace uncertain {

namespace {

constexpr char kMagic[] = "ukc-dataset";
constexpr int kVersion = 1;

// Reads the next non-comment, non-empty line into a token stream.
bool NextLine(std::istream& is, std::istringstream* line) {
  std::string text;
  while (std::getline(is, text)) {
    const size_t hash = text.find('#');
    if (hash != std::string::npos) text.resize(hash);
    const std::string_view trimmed = StrTrim(text);
    if (trimmed.empty()) continue;
    line->clear();
    line->str(std::string(trimmed));
    return true;
  }
  return false;
}

Status ParseNorm(const std::string& name, metric::Norm* out) {
  if (name == "L2") {
    *out = metric::Norm::kL2;
  } else if (name == "L1") {
    *out = metric::Norm::kL1;
  } else if (name == "LInf") {
    *out = metric::Norm::kLInf;
  } else {
    return Status::InvalidArgument("ukc-dataset: unknown norm " + name);
  }
  return Status::OK();
}

// Parses the "ukc-dataset <version> / dim <d> / [norm <name>] / n
// <count>" header — the shared front of LoadDataset and DatasetReader.
// The norm line is optional (files written before it was recorded are
// L2), which keeps the version stable.
Status ParseHeader(std::istream& is, size_t* dim, metric::Norm* norm,
                   size_t* n) {
  std::istringstream line;
  if (!NextLine(is, &line)) {
    return Status::InvalidArgument("ukc-dataset: empty input");
  }
  std::string magic;
  int version = 0;
  line >> magic >> version;
  if (magic != kMagic || version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("ukc-dataset: bad header '%s %d'", magic.c_str(), version));
  }
  auto read_keyed_size = [&](const char* key, size_t* out) -> Status {
    if (!NextLine(is, &line)) {
      return Status::InvalidArgument(
          StrFormat("ukc-dataset: missing '%s'", key));
    }
    std::string word;
    long long value = -1;
    line >> word >> value;
    if (word != key || value < 0 || line.fail()) {
      return Status::InvalidArgument(
          StrFormat("ukc-dataset: expected '%s <count>', got '%s'", key,
                    line.str().c_str()));
    }
    *out = static_cast<size_t>(value);
    return Status::OK();
  };
  UKC_RETURN_IF_ERROR(read_keyed_size("dim", dim));
  // Either "norm <name>" followed by "n <count>", or "n <count>" alone.
  *norm = metric::Norm::kL2;
  if (!NextLine(is, &line)) {
    return Status::InvalidArgument("ukc-dataset: missing 'n'");
  }
  std::string word;
  line >> word;
  if (word == "norm") {
    std::string name;
    line >> name;
    if (line.fail()) {
      return Status::InvalidArgument("ukc-dataset: malformed norm line");
    }
    UKC_RETURN_IF_ERROR(ParseNorm(name, norm));
    UKC_RETURN_IF_ERROR(read_keyed_size("n", n));
  } else {
    long long value = -1;
    line >> value;
    if (word != "n" || value < 0 || line.fail()) {
      return Status::InvalidArgument(
          StrFormat("ukc-dataset: expected 'n <count>', got '%s'",
                    line.str().c_str()));
    }
    *n = static_cast<size_t>(value);
  }
  if (*dim == 0) {
    return Status::InvalidArgument("ukc-dataset: dim must be >= 1");
  }
  if (*n == 0) return Status::InvalidArgument("ukc-dataset: n must be >= 1");
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
  std::vector<UncertainPoint> points;
  points.reserve(reader.num_points());
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
  reader.file_.open(path);
  if (!reader.file_.is_open()) {
    return Status::NotFound("DatasetReader: cannot open " + path);
  }
  UKC_RETURN_IF_ERROR(
      ParseHeader(reader.file_, &reader.dim_, &reader.norm_, &reader.n_));
  return reader;
}

Result<DatasetReader> DatasetReader::FromStream(std::istream& is) {
  DatasetReader reader;
  reader.borrowed_ = &is;
  UKC_RETURN_IF_ERROR(ParseHeader(is, &reader.dim_, &reader.norm_, &reader.n_));
  return reader;
}

Result<size_t> DatasetReader::ReadChunk(size_t max_points,
                                        UncertainPointBatch* batch) {
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
  batch->Clear();
  batch->dim = dim_;
  batch->norm = norm_;
  batch->start_index = read_;
  batch->offsets.push_back(0);

  std::istringstream line;
  size_t produced = 0;
  while (produced < max_points && read_ < n_) {
    // Record boundary: where this point's 'point <z>' line starts —
    // the offset a truncation error reports back to the caller.
    const std::optional<uint64_t> record_offset = TellByteOffset();
    const long long offset_detail =
        record_offset.has_value() ? static_cast<long long>(*record_offset) : -1;
    if (!NextLine(in(), &line)) {
      return Status::InvalidArgument(StrFormat(
          "ReadChunk: truncated after %zu of %zu points (record %zu, byte "
          "offset %lld)",
          read_, n_, read_, offset_detail));
    }
    std::string word;
    long long z = -1;
    line >> word >> z;
    if (word != "point" || z <= 0 || line.fail()) {
      return Status::InvalidArgument(StrFormat(
          "ReadChunk: expected 'point <z>' for point %zu, got '%s' (byte "
          "offset %lld)",
          read_, line.str().c_str(), offset_detail));
    }
    const size_t point_begin = batch->probabilities.size();
    for (long long j = 0; j < z; ++j) {
      if (!NextLine(in(), &line)) {
        return Status::InvalidArgument(StrFormat(
            "ReadChunk: truncated at point %zu location %lld (record %zu, "
            "byte offset %lld)",
            read_, j, read_, offset_detail));
      }
      // The probability token goes through strtod, not operator>>:
      // istreams refuse "nan", but a NaN probability must reach the
      // shared ValidateDistribution below so every entry point rejects
      // it with the same error.
      std::string probability_token;
      line >> probability_token;
      char* token_end = nullptr;
      const double probability =
          std::strtod(probability_token.c_str(), &token_end);
      const bool probability_parsed =
          !probability_token.empty() &&
          token_end == probability_token.c_str() + probability_token.size();
      const size_t base = batch->coords.size();
      batch->coords.resize(base + dim_);
      for (size_t a = 0; a < dim_; ++a) line >> batch->coords[base + a];
      if (!probability_parsed || line.fail()) {
        return Status::InvalidArgument(
            StrFormat("ReadChunk: malformed location line for point %zu: '%s'",
                      read_, line.str().c_str()));
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

std::optional<uint64_t> DatasetReader::TellByteOffset() {
  std::istream& is = in();
  if (is.bad() || is.fail()) return std::nullopt;
  // tellg on an eof stream fails; the position "end of input" is still
  // well-defined, so clear the flag first and restore nothing — eof is
  // re-discovered by the next read anyway.
  if (is.eof()) is.clear();
  const std::streampos pos = is.tellg();
  if (pos < 0) return std::nullopt;
  return static_cast<uint64_t>(pos);
}

Status DatasetReader::SeekTo(uint64_t byte_offset, uint64_t points_read) {
  if (points_read > n_) {
    return Status::InvalidArgument(
        StrFormat("SeekTo: points_read %llu exceeds declared n %zu",
                  static_cast<unsigned long long>(points_read), n_));
  }
  std::istream& is = in();
  is.clear();
  is.seekg(static_cast<std::streamoff>(byte_offset));
  if (!is.good()) {
    return Status::OutOfRange(
        StrFormat("SeekTo: cannot seek to byte offset %llu",
                  static_cast<unsigned long long>(byte_offset)));
  }
  if (points_read < n_) {
    // Peek-validate: the next non-comment line must start a record. A
    // stale or corrupt cursor lands mid-record (a location line) or
    // past the end, and both fail this parse.
    std::istringstream line;
    std::string word;
    long long z = -1;
    if (!NextLine(is, &line)) {
      return Status::OutOfRange(StrFormat(
          "SeekTo: no record at byte offset %llu (stream exhausted, %llu of "
          "%zu points consumed)",
          static_cast<unsigned long long>(byte_offset),
          static_cast<unsigned long long>(points_read), n_));
    }
    line >> word >> z;
    if (word != "point" || z <= 0 || line.fail()) {
      return Status::InvalidArgument(StrFormat(
          "SeekTo: byte offset %llu is not a record boundary (got '%s')",
          static_cast<unsigned long long>(byte_offset), line.str().c_str()));
    }
    is.clear();
    is.seekg(static_cast<std::streamoff>(byte_offset));
    if (!is.good()) {
      return Status::OutOfRange(
          StrFormat("SeekTo: cannot re-seek to byte offset %llu",
                    static_cast<unsigned long long>(byte_offset)));
    }
  }
  read_ = points_read;
  return Status::OK();
}

}  // namespace uncertain
}  // namespace ukc
