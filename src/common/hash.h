// Shared 64-bit content hashing: FNV-1a folded 8 bytes at a time, the
// primitive the checkpoint layer uses for its sidecar checksum and
// stream content fingerprint (stream/checkpoint.h) and serving uses for
// its tenant fingerprints. Not cryptographic — it guards against
// corruption and configuration drift, not adversaries.

#ifndef UKC_COMMON_HASH_H_
#define UKC_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace ukc {

/// FNV-1a offset basis: the canonical seed for a fresh hash chain.
inline constexpr uint64_t kHashSeed = 14695981039346656037ULL;

/// Folds `bytes` bytes into `hash` (FNV-1a, 8-byte chunks plus a
/// byte-wise tail). Chain calls to fingerprint multi-part content; the
/// result depends on the concatenated byte stream and the starting
/// hash only.
inline uint64_t HashBytes(uint64_t hash, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  while (bytes >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    hash = (hash ^ chunk) * 1099511628211ULL;
    p += 8;
    bytes -= 8;
  }
  for (size_t i = 0; i < bytes; ++i) {
    hash = (hash ^ p[i]) * 1099511628211ULL;
  }
  return hash;
}

/// Folds one integral value into `hash`.
inline uint64_t HashValue(uint64_t hash, uint64_t value) {
  return HashBytes(hash, &value, sizeof(value));
}

/// Hash of a string (site names, paths).
inline uint64_t HashString(std::string_view text, uint64_t hash = kHashSeed) {
  return HashBytes(hash, text.data(), text.size());
}

/// splitmix64 finalizer: turns a structured key (seed ^ site ^ counter)
/// into a well-mixed 64-bit value. Used for deterministic per-hit fault
/// decisions (common/fault_injection.h).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace ukc

#endif  // UKC_COMMON_HASH_H_
