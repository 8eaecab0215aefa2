// Deterministic, site-keyed fault injection for robustness testing.
//
// Library code marks its fallible external-I/O boundaries with
//
//   UKC_INJECT_FAULT("ingest.read");
//
// inside Status-returning functions. With no injector installed — the
// default, and always in production — the macro costs one relaxed
// atomic load and a predicted branch. The hooks are compiled into every
// build. Tests install a FaultPlan via ScopedFaultInjection to make
// chosen sites fail.
//
// Determinism contract: every fire decision is a pure function of
// (plan seed, site name, per-site hit index). Sites on serial paths
// (the batch reader, checkpoint writes) therefore fail at exactly the
// same logical operation run after run for a given seed — the property
// the crash-recovery suite relies on to reproduce a failure. Sites hit
// concurrently still decide deterministically per (site, hit), but
// which logical operation receives which hit index depends on thread
// interleaving; keyed tests should stick to serial sites.
//
// Site naming: dotted lowercase paths, "<subsystem>.<operation>"
// ("ingest.read", "checkpoint.write"). The full inventory lives in
// docs/operations.md; rules may match a site exactly or by prefix with
// a trailing '*' ("checkpoint.*").

#ifndef UKC_COMMON_FAULT_INJECTION_H_
#define UKC_COMMON_FAULT_INJECTION_H_

// Always 1: kept only because the e2e benchmark prints it in its
// provenance line.
#define UKC_FAULT_INJECTION 1

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace ukc {

/// One injection rule of a FaultPlan.
struct FaultRule {
  /// Site to match: exact name, or a prefix with a trailing '*'
  /// ("ingest.*" matches every ingest site).
  std::string site;
  /// Fire at exactly these 0-based hit indices of the matched site
  /// (the deterministic "crash at batch N" mode). Independent of
  /// `probability`; either or both may be set.
  std::vector<uint64_t> fire_at_hits;
  /// Per-hit fire probability in [0, 1]. Decisions derive from
  /// (plan seed, site, hit index) — no global RNG state is consumed,
  /// so two runs with one seed fire identically.
  double probability = 0.0;
  /// Code of the injected failure. kUnavailable is transient (the
  /// retry layer may clear it); anything else is permanent.
  StatusCode code = StatusCode::kUnavailable;
  /// Stop firing after this many fires of this rule; 0 = unlimited.
  /// max_fires = 1 with a probability rule models a one-off hiccup a
  /// retry recovers from.
  uint64_t max_fires = 0;
};

/// A seed plus rules: everything a deterministic failure scenario
/// needs. Copyable value type.
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultRule> rules;
};

/// Evaluates a FaultPlan hit by hit. Thread-safe: concurrent sites
/// (shard merge) may call OnHit from pool workers.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Decides one hit of `site`: OK, or the injected failure.
  Status OnHit(const char* site);

  /// Observed hit count of a site (0 when never hit).
  uint64_t hits(const std::string& site) const;
  /// Total faults injected so far.
  uint64_t fires() const;

  /// The process-global injector, or nullptr when none is installed.
  static FaultInjector* Active();
  /// OnHit against the active injector; OK when none is installed.
  /// This is the single call UKC_INJECT_FAULT expands to.
  static Status Check(const char* site);

 private:
  friend class ScopedFaultInjection;

  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, uint64_t> site_hits_;
  std::vector<uint64_t> rule_fires_;
  uint64_t total_fires_ = 0;
};

/// RAII installation of the process-global injector. Test-only; scopes
/// must not nest or overlap across threads (checked).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultPlan plan);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  FaultInjector& injector() { return injector_; }

 private:
  FaultInjector injector_;
};

/// Parses a comma/space-separated list of uint64 seeds from the
/// environment (default variable UKC_FAULTS) — the CI knob for
/// sweeping crash-recovery seeds deterministically:
///   UKC_FAULTS=1,2,42 ctest -R crash_recovery
/// Returns empty when unset, empty, or malformed.
std::vector<uint64_t> FaultSeedsFromEnv(const char* variable = "UKC_FAULTS");

}  // namespace ukc

/// Injects a Status failure at this point when the active plan says
/// so. Must appear inside a function returning Status or Result<T>.
#define UKC_INJECT_FAULT(site) \
  UKC_RETURN_IF_ERROR(::ukc::FaultInjector::Check(site))

#endif  // UKC_COMMON_FAULT_INJECTION_H_
