// TenantRegistry: the resident serving core over N tenant streams.
//
// Responsibilities on top of serve/tenant.h:
//   - Admission control: SubmitAppend enqueues into a bounded
//     per-tenant FIFO queue; a full queue SHEDS the newest submission
//     with a marked kUnavailable (serve/serve.h ShedStatus) instead of
//     buffering unboundedly. A client never resubmits a shed into the
//     same full queue — that only amplifies the overload.
//   - Deterministic application: Drain() applies queued appends in a
//     fixed order — tenants by ascending id, FIFO within a tenant —
//     and drives the per-tenant snapshot cadence. Thread count never
//     changes the order, so every replica walks the same state
//     trajectory.
//   - Watchdog: consecutive append/snapshot failures degrade a tenant
//     (writes refused, queries served stale); each Drain opens with a
//     recovery probe (a snapshot attempt) for every degraded tenant,
//     so tenants heal themselves once the failing boundary clears.
//   - Failover: RestoreTenant rebuilds one tenant from its sidecar;
//     the caller replays acked appends past the restored epoch (the
//     registry reports it) to make the replica bitwise current.
//
// Externally synchronized (one serving thread); queries run on that
// thread.

#ifndef UKC_SERVE_REGISTRY_H_
#define UKC_SERVE_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "serve/serve.h"
#include "serve/tenant.h"
#include "uncertain/chunk.h"

namespace ukc {

class ThreadPool;

namespace serve {

/// Registry-wide knobs.
struct RegistryOptions {
  /// Bounded per-tenant append queue; a submission that would exceed
  /// it is shed (reject-newest). Must be >= 1.
  size_t queue_capacity = 64;
  /// Consecutive append/snapshot failures before the watchdog marks a
  /// tenant degraded. Must be >= 1.
  int degrade_after_failures = 3;
  /// Ignored: no query fans out (the coreset solve is a serial
  /// certain-point solve, stream::SolveOnCells). Kept only because the
  /// end-to-end benchmark's serve workload still sets it; delete it
  /// with that workload's next change.
  ThreadPool* pool = nullptr;
  /// Observe query latency once every N queries per tenant (a
  /// deterministic counter; the first query is always measured). Every
  /// query is still COUNTED by outcome — sampling only amortizes the
  /// two TSC reads of the measurement, which would otherwise triple
  /// the ~80 ns cached-centers hit (micro_bench
  /// BM_ServeCentersQueryCached). 1 = measure every query (tests
  /// that assert on the latency series use this); 0 normalizes to 1.
  uint32_t latency_sample_every = 16;
  /// Registry the serving telemetry meters into (null = the
  /// process-wide obs::MetricsRegistry::Default()). Its counters are
  /// the only store of the serve event counts: stats() reads them
  /// back, so registries that share one metrics registry report the
  /// sum of their counts. Per-tenant query-latency histograms by query
  /// shape and queue-depth gauges ride along; see docs/operations.md
  /// ("Observability").
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome of one Drain pass.
struct DrainResult {
  uint64_t applied = 0;    // Ops (appends + deletes) acked.
  uint64_t refused = 0;    // Dropped: tenant degraded at apply time.
  uint64_t failed = 0;     // Tenant op errors (fault-injectable).
  uint64_t snapshots = 0;  // Cadenced + probe snapshots taken.
  uint64_t degraded = 0;   // Tenants newly degraded this pass.
  uint64_t recovered = 0;  // Tenants newly recovered this pass.
  uint64_t expired = 0;    // Points retired by window expiry this pass.
};

class TenantRegistry {
 public:
  explicit TenantRegistry(RegistryOptions options);

  /// Registers a tenant. Fails on duplicate or empty id, or invalid
  /// config (dim 0).
  Result<Tenant*> CreateTenant(const std::string& id, TenantConfig config);

  /// The tenant, or nullptr when unknown.
  Tenant* FindTenant(const std::string& id);
  const Tenant* FindTenant(const std::string& id) const;

  /// Queued appends for one tenant (0 for unknown ids).
  size_t QueueDepth(const std::string& id) const;

  /// Admission control: copies `batch` into the tenant's queue.
  /// Rejections, in order of checking: unknown tenant (kNotFound), a
  /// coordinate outside uncertain::ValidateCoordinates' domain
  /// (kInvalidArgument, counted as refused), injected `serve.enqueue`
  /// fault (as injected), degraded tenant
  /// (kFailedPrecondition — not retryable by design), full queue
  /// (marked kUnavailable shed, see IsShed).
  Status SubmitAppend(const std::string& id,
                      const uncertain::UncertainPointBatch& batch);

  /// Enqueues a single-point delete (tenants with allow_deletes only).
  /// `point` replays the uncertain point that was acked at stream
  /// index `index` — Tenant::Delete verifies the replay bit-for-bit at
  /// apply time. Deletes share the tenant's bounded FIFO with appends,
  /// so Drain applies the interleaved op sequence in submission order
  /// on every replica — the replica-identity contract extends to
  /// churn. Rejections mirror SubmitAppend (kNotFound / degraded
  /// kFailedPrecondition / shed), plus kFailedPrecondition when the
  /// tenant does not allow deletes.
  Status SubmitDelete(const std::string& id, uint64_t index,
                      const uncertain::UncertainPointBatch& point);

  /// Applies every queued append in deterministic order and runs the
  /// watchdog: recovery probes for degraded tenants first, then the
  /// per-tenant FIFO, snapshot cadence after each ack, and
  /// degrade-on-threshold accounting. Always drains every queue (a
  /// refused append is dropped, not requeued).
  DrainResult Drain();

  /// Query pass-throughs: resolve the tenant, forward the deadline,
  /// and keep the query counters.
  Result<Tenant::CentersAnswer> QueryCenters(const std::string& id,
                                             const Deadline& deadline);
  Result<Tenant::CostAnswer> QueryCandidateCost(
      const std::string& id, const std::vector<double>& candidates,
      size_t num_candidates, const Deadline& deadline);
  Result<Tenant::BracketAnswer> QueryBracket(
      const std::string& id, const std::vector<double>& candidates,
      size_t num_candidates, const Deadline& deadline);

  /// Failover: restores one tenant from its sidecar (fault site
  /// serve.restore) and reports the epoch it restored to via
  /// *restored_epoch (the caller replays acked appends past it). A
  /// successful restore clears the tenant's failure accounting; its
  /// queued (pre-kill) appends were never acked and the queue is
  /// cleared — the caller's replay is the source of truth.
  Status RestoreTenant(const std::string& id, uint64_t* restored_epoch);

  /// The serve counters, read from the metrics registry (the only
  /// store of them). A registry shared by several TenantRegistry
  /// instances holds, and so reports, the sum of their counts.
  ServeStats stats() const;

  /// The registry this instance meters into (the resolved
  /// RegistryOptions::metrics).
  obs::MetricsRegistry& metrics_registry() const { return *metrics_; }

 private:
  // Query shapes, indexing the per-tenant latency histograms.
  enum QueryShape { kCenters = 0, kCandidateCost = 1, kBracket = 2 };

  // One queued write op: an append batch, or a single-point delete
  // (is_delete; `batch` then holds the replayed point). One queue per
  // tenant keeps the append/delete interleaving in submission order.
  struct PendingOp {
    bool is_delete = false;
    uint64_t delete_index = 0;
    uncertain::UncertainPointBatch batch;
  };

  struct Slot {
    std::unique_ptr<Tenant> tenant;
    std::deque<PendingOp> queue;
    int consecutive_failures = 0;
    // Queries served, driving the deterministic 1-in-N latency
    // sampling (RegistryOptions::latency_sample_every).
    uint64_t queries_seen = 0;
    // Per-tenant telemetry handles (owned by the metrics registry).
    obs::Histogram* query_seconds[3] = {nullptr, nullptr, nullptr};
    obs::Gauge* queue_depth = nullptr;
  };

  // Registry-wide counter handles: the store behind stats(), plus the
  // failover-restore count, which ServeStats does not report.
  struct Metrics {
    obs::Counter* appends_submitted;
    obs::Counter* appends_shed;
    obs::Counter* enqueue_faults;
    obs::Counter* appends_refused;
    obs::Counter* appends_applied;
    obs::Counter* append_failures;
    obs::Counter* snapshots_saved;
    obs::Counter* snapshot_failures;
    obs::Counter* degrade_events;
    obs::Counter* recover_events;
    obs::Counter* failover_restores;
    obs::Counter* queries_answered;
    obs::Counter* queries_deadline_exceeded;
    obs::Counter* queries_failed;
    obs::Counter* deletes_submitted;
    obs::Counter* deletes_shed;
    obs::Counter* deletes_refused;
    obs::Counter* deletes_applied;
    obs::Counter* delete_failures;
    obs::Counter* points_expired;
  };

  // Watchdog bookkeeping after one fallible tenant operation.
  void RecordFailure(Slot* slot, DrainResult* result);
  void RecordSuccess(Slot* slot);

  // Whether this query should measure latency (advances the slot's
  // deterministic sampling counter).
  bool SampleQuery(Slot* slot);

  // Counter + latency upkeep shared by the three query pass-throughs:
  // counts the outcome always; observes `seconds` into the slot's
  // per-shape histogram only when the query was sampled.
  void CountQuery(Slot* slot, QueryShape shape, const Status& status,
                  bool sampled, double seconds);

  RegistryOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Metrics metric_;
  std::map<std::string, Slot> tenants_;  // Ordered: the Drain order.
};

}  // namespace serve
}  // namespace ukc

#endif  // UKC_SERVE_REGISTRY_H_
