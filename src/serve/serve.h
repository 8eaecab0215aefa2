// Shared types of the resident multi-tenant serving core.
//
// The serve layer composes the streaming subsystem's pieces into a
// long-lived process: each tenant owns a live StreamingCoreset fed by
// appends, queries are answered from coreset state (never from raw
// data), and the PR-6 checkpoint sidecar doubles as the per-tenant
// failover snapshot. See src/serve/tenant.h and src/serve/registry.h
// for the two layers; docs/operations.md ("Serving") for the operator
// view.
//
// Design stance: the registry is a SYNCHRONOUS DETERMINISTIC state
// machine. Appends enqueue into bounded per-tenant FIFO queues and are
// applied by Drain() in a fixed order (tenants by id, FIFO within a
// tenant); queries execute immediately, on the serving thread, against
// current coreset state. Nothing in the registry depends on a thread
// count, so the sequence of state transitions is fixed — which is what
// makes replica answers bitwise comparable, and what lets the chaos
// suite replay any trajectory exactly. External synchronization (one
// serving thread) is the caller's contract, same as every evaluator in
// this repo.

#ifndef UKC_SERVE_SERVE_H_
#define UKC_SERVE_SERVE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "metric/euclidean_space.h"
#include "stream/coreset.h"

namespace ukc {
namespace serve {

/// Lifecycle state of a tenant. Transitions:
///   kLive -> kDegraded   watchdog: >= threshold consecutive failures
///   kDegraded -> kLive   watchdog recovery probe succeeded
///   any -> kLive         explicit RestoreFromSnapshot succeeded
enum class TenantState {
  /// Healthy: appends apply to the live coreset, queries answer from it.
  kLive,
  /// Failing boundary detected by the watchdog: writes are REFUSED
  /// (kFailedPrecondition — deliberately not retryable), queries are
  /// served from the last stable snapshot and flagged `stale`.
  kDegraded,
};

std::string_view TenantStateToString(TenantState state);

/// Static configuration of one tenant stream. Hashed into the
/// snapshot's config_fingerprint: a snapshot written under one
/// configuration never restores another.
struct TenantConfig {
  /// Ambient dimension of the tenant's points.
  size_t dim = 2;
  metric::Norm norm = metric::Norm::kL2;
  /// Centers served by QueryCenters (clamped to the live cell count).
  size_t k = 4;
  /// Coreset knobs (cell budget, base width).
  stream::CoresetOptions coreset;
  /// Failover sidecar path; empty disables snapshots (and failover).
  std::string snapshot_path;
  /// Take a snapshot every N acked appends (registry-driven cadence;
  /// 0 disables cadenced snapshots, explicit Snapshot() still works).
  uint64_t snapshot_every_appends = 16;
  /// fsync snapshot writes. `ukc_cli --serve --serve-snapshot-dir`
  /// turns it on; the tests and the e2ebench serve workload leave it
  /// off.
  bool snapshot_sync = false;
  /// Sliding window: 0 = unbounded (the default); W > 0 retires old
  /// points so at most W + churn_bucket - 1 stream indices stay live.
  /// Expiry runs PER ACKED POINT inside Append (watermark
  /// next_index - W), which makes the (Add, Expire) sequence a pure
  /// function of the acked point sequence — replicas that ack the same
  /// points hold bitwise-identical coresets no matter how the stream
  /// was batched. Needs coreset.churn_bucket > 0; the tenant derives
  /// max(1, W / 16) when left at 0.
  uint64_t window_points = 0;
  /// Enable single-point deletes (SubmitDelete / Tenant::Delete). The
  /// tenant forces coreset.track_members (deletes must re-fold the
  /// non-invertible cell aggregates), which makes coreset memory
  /// O(live points) — size the window accordingly.
  bool allow_deletes = false;
};

/// Load-shed rejection: a bounded queue refused the newest work item.
/// The code is kUnavailable — transient by the global classification,
/// so naive clients may retry — but the serve layer's own ingest path
/// must NOT re-submit into the same full queue (retry amplification
/// under overload is how brownouts become blackouts), so sheds carry a
/// recognizable message marker that IsShed detects.
inline constexpr std::string_view kShedMessageMarker = "[load-shed]";

/// Builds the kUnavailable shed status with the marker.
Status ShedStatus(const std::string& detail);

/// True iff `status` is a load-shed rejection from this layer.
bool IsShed(const Status& status);

/// The serve counters, as TenantRegistry::stats() reads them out of
/// its metrics registry (monotone; see docs/operations.md). The
/// registry's counters are the only store: this struct is a copy
/// taken at the call, and a metrics registry shared by several
/// TenantRegistry instances reports the sum of their counts.
struct ServeStats {
  uint64_t appends_submitted = 0;   // SubmitAppend calls.
  uint64_t appends_shed = 0;        // Rejected: queue full.
  uint64_t enqueue_faults = 0;      // Rejected: serve.enqueue fault.
  uint64_t appends_refused = 0;     // Rejected: degraded or bad coords.
  uint64_t appends_applied = 0;     // Acked into a live coreset.
  uint64_t append_failures = 0;     // Tenant::Append errors in Drain.
  uint64_t snapshots_saved = 0;
  uint64_t snapshot_failures = 0;
  uint64_t degrade_events = 0;      // kLive -> kDegraded transitions.
  uint64_t recover_events = 0;      // kDegraded -> kLive transitions.
  uint64_t queries_answered = 0;
  uint64_t queries_deadline_exceeded = 0;
  uint64_t queries_failed = 0;      // Non-deadline query errors.
  uint64_t deletes_submitted = 0;   // SubmitDelete calls.
  uint64_t deletes_shed = 0;        // Rejected: queue full.
  uint64_t deletes_refused = 0;     // Rejected: degraded / not enabled.
  uint64_t deletes_applied = 0;     // Acked out of a live coreset.
  uint64_t delete_failures = 0;     // Tenant::Delete errors in Drain.
  uint64_t points_expired = 0;      // Points retired by window expiry.
};

}  // namespace serve
}  // namespace ukc

#endif  // UKC_SERVE_SERVE_H_
