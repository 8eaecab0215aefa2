#include "stream/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/strings.h"

namespace ukc {
namespace stream {

namespace {

// 8-byte magic + layout version. The checksum is HashBytes over every
// byte that precedes it, seeded with kHashSeed.
//
// v2 added the sliding-window state (window_points, expired_points) —
// and the embedded coreset image moved to its own v2 layout with
// churn fields. A v1 sidecar is REJECTED ("unknown version"), never
// partially interpreted: the ingest and serve layers degrade every
// load error to a full re-ingest, which is always correct.
constexpr char kMagic[8] = {'u', 'k', 'c', 'c', 'k', 'p', 't', '\0'};
constexpr uint32_t kVersion = 2;

void AppendRaw(std::string* out, const void* data, size_t bytes) {
  out->append(static_cast<const char*>(data), bytes);
}

template <typename T>
void AppendValue(std::string* out, T value) {
  AppendRaw(out, &value, sizeof(T));
}

struct ByteCursor {
  const char* p;
  const char* end;

  bool Read(void* out, size_t bytes) {
    if (static_cast<size_t>(end - p) < bytes) return false;
    std::memcpy(out, p, bytes);
    p += bytes;
    return true;
  }

  template <typename T>
  bool ReadValue(T* out) {
    return Read(out, sizeof(T));
  }
};

std::string Serialize(const IngestCheckpoint& checkpoint) {
  std::string buffer;
  buffer.reserve(sizeof(kMagic) + 64 + checkpoint.coreset_image.size());
  AppendRaw(&buffer, kMagic, sizeof(kMagic));
  AppendValue(&buffer, kVersion);
  AppendValue(&buffer, checkpoint.config_fingerprint);
  AppendValue(&buffer, checkpoint.content_fingerprint);
  AppendValue(&buffer, checkpoint.batches);
  AppendValue(&buffer, checkpoint.points);
  AppendValue(&buffer, checkpoint.locations);
  AppendValue(&buffer, checkpoint.window_points);
  AppendValue(&buffer, checkpoint.expired_points);
  AppendValue(&buffer, static_cast<uint8_t>(checkpoint.has_byte_offset));
  AppendValue(&buffer, checkpoint.byte_offset);
  AppendValue(&buffer, checkpoint.cursor_window_hash);
  AppendValue(&buffer, static_cast<uint64_t>(checkpoint.coreset_image.size()));
  buffer.append(checkpoint.coreset_image);
  const uint64_t checksum =
      HashBytes(kHashSeed, buffer.data(), buffer.size());
  AppendValue(&buffer, checksum);
  return buffer;
}

Status WriteAll(int fd, const char* data, size_t bytes,
                const std::string& path) {
  size_t written = 0;
  while (written < bytes) {
    const ssize_t n = ::write(fd, data + written, bytes - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrFormat("checkpoint: write to %s failed: %s",
                                        path.c_str(), std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

// fsync the directory containing `path`, so the rename itself is
// durable. Best-effort on filesystems that reject directory fds.
void SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

Status SaveCheckpoint(const std::string& path,
                      const IngestCheckpoint& checkpoint, bool sync) {
  if (path.empty()) {
    return Status::InvalidArgument("SaveCheckpoint: empty path");
  }
  const std::string buffer = Serialize(checkpoint);
  const std::string tmp = path + ".tmp";

  UKC_INJECT_FAULT("checkpoint.open");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(StrFormat("checkpoint: cannot open %s: %s",
                                      tmp.c_str(), std::strerror(errno)));
  }
  // Any failure from here on leaves only the temp file behind — the
  // previous checkpoint at `path` is untouched until the rename.
  Status status = [&]() -> Status {
    UKC_INJECT_FAULT("checkpoint.write");
    UKC_RETURN_IF_ERROR(WriteAll(fd, buffer.data(), buffer.size(), tmp));
    if (sync && ::fsync(fd) != 0) {
      return Status::Internal(StrFormat("checkpoint: fsync %s failed: %s",
                                        tmp.c_str(), std::strerror(errno)));
    }
    return Status::OK();
  }();
  ::close(fd);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }

  UKC_INJECT_FAULT("checkpoint.rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status error =
        Status::Internal(StrFormat("checkpoint: rename %s -> %s failed: %s",
                                   tmp.c_str(), path.c_str(),
                                   std::strerror(errno)));
    ::unlink(tmp.c_str());
    return error;
  }
  if (sync) SyncParentDirectory(path);
  return Status::OK();
}

Result<IngestCheckpoint> LoadCheckpoint(const std::string& path) {
  UKC_INJECT_FAULT("checkpoint.read");
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::NotFound("LoadCheckpoint: cannot open " + path);
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  if (file.bad()) {
    return Status::Internal("LoadCheckpoint: read failure on " + path);
  }
  const std::string buffer = contents.str();
  const auto corrupt = [&](const char* what) {
    return Status::InvalidArgument(
        StrFormat("LoadCheckpoint: %s (%s)", what, path.c_str()));
  };
  if (buffer.size() < sizeof(kMagic) + sizeof(uint32_t) + sizeof(uint64_t)) {
    return corrupt("file too short");
  }
  // Checksum first: it covers everything, so one comparison rejects
  // any torn or bit-flipped content before fields are interpreted.
  const size_t payload = buffer.size() - sizeof(uint64_t);
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, buffer.data() + payload, sizeof(uint64_t));
  if (HashBytes(kHashSeed, buffer.data(), payload) != stored_checksum) {
    return corrupt("checksum mismatch");
  }
  ByteCursor cursor{buffer.data(), buffer.data() + payload};
  char magic[sizeof(kMagic)];
  uint32_t version = 0;
  if (!cursor.Read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return corrupt("bad magic");
  }
  if (!cursor.ReadValue(&version) || version != kVersion) {
    return corrupt("unknown version");
  }
  IngestCheckpoint checkpoint;
  uint8_t has_offset = 0;
  uint64_t image_size = 0;
  if (!cursor.ReadValue(&checkpoint.config_fingerprint) ||
      !cursor.ReadValue(&checkpoint.content_fingerprint) ||
      !cursor.ReadValue(&checkpoint.batches) ||
      !cursor.ReadValue(&checkpoint.points) ||
      !cursor.ReadValue(&checkpoint.locations) ||
      !cursor.ReadValue(&checkpoint.window_points) ||
      !cursor.ReadValue(&checkpoint.expired_points) ||
      !cursor.ReadValue(&has_offset) ||
      !cursor.ReadValue(&checkpoint.byte_offset) ||
      !cursor.ReadValue(&checkpoint.cursor_window_hash) ||
      !cursor.ReadValue(&image_size)) {
    return corrupt("truncated header");
  }
  if (has_offset > 1) return corrupt("bad cursor flag");
  checkpoint.has_byte_offset = has_offset == 1;
  if (image_size != static_cast<uint64_t>(cursor.end - cursor.p)) {
    return corrupt("image size mismatch");
  }
  checkpoint.coreset_image.assign(cursor.p, cursor.end - cursor.p);
  return checkpoint;
}

}  // namespace stream
}  // namespace ukc
