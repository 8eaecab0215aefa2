// One tenant stream of the serving core: a live StreamingCoreset fed
// by appends, three query shapes answered from coreset state, and a
// checkpoint-backed failover path.
//
// State model:
//   - live_ coreset: the authoritative summary. Appends are
//     ALL-OR-NOTHING with respect to injectable faults (the
//     serve.append site fires before any mutation), so an errored
//     append leaves the coreset bitwise untouched and un-acked — the
//     invariant the chaos suite's reference replay rests on.
//   - stable_ coreset: the copy frozen by the last successful
//     snapshot. A degraded tenant serves queries from it (flagged
//     `stale`) while writes are refused, so overload or a failing
//     snapshot boundary degrades answers to bounded staleness instead
//     of unavailability.
//   - epoch: the count of acked appends. Every answer carries the
//     epoch it was computed at; two replicas at the same epoch that
//     acked the same append sequence answer BITWISE identically (the
//     coreset's partition invariance plus the determinism of the
//     serial stream::SolveOnCells, asserted by tests/serve_test.cc).
//
// Failover: Snapshot() persists {config fingerprint, content
// fingerprint (running hash of acked appends), cursor, coreset image}
// through the PR-6 crash-consistent sidecar (stream/checkpoint.h).
// RestoreFromSnapshot() rebuilds the tenant at the snapshot's epoch;
// the registry's caller replays the acked suffix from its own outbox
// to catch up — after which the restored replica is bit-equal to an
// uninterrupted one.
//
// Not thread-safe; externally synchronized by the registry (see
// serve/serve.h design stance). Queries run on the calling thread.

#ifndef UKC_SERVE_TENANT_H_
#define UKC_SERVE_TENANT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "serve/serve.h"
#include "stream/coreset.h"
#include "uncertain/chunk.h"

namespace ukc {
namespace serve {

class Tenant {
 public:
  /// "k centers now": centers solved on the current coreset cells.
  struct CentersAnswer {
    uint64_t epoch = 0;   // Acked appends the answer reflects.
    bool stale = false;   // True when served from the stable snapshot.
    size_t k = 0;         // Centers returned (<= config k clamped to cells).
    std::vector<double> center_coords;  // k * dim, row-major.
    double cost = 0.0;    // Exact expected cost on the representatives.
    double lower = 0.0;   // Certified bracket on the full-data cost:
    double upper = 0.0;   // cost -/+ the coreset error bound, >= 0.
  };

  /// "cost of this candidate set": max over cells of the distance from
  /// the representative to its nearest candidate.
  struct CostAnswer {
    uint64_t epoch = 0;
    bool stale = false;
    double cost = 0.0;
  };

  /// "certified bracket": CostAnswer plus the coreset error bound
  /// folded into rigorous full-data bounds.
  struct BracketAnswer {
    uint64_t epoch = 0;
    bool stale = false;
    double cost = 0.0;
    double error_bound = 0.0;
    double lower = 0.0;
    double upper = 0.0;
  };

  Tenant(std::string id, TenantConfig config);

  const std::string& id() const { return id_; }
  /// The EFFECTIVE configuration: window/delete settings are
  /// normalized into the coreset options at construction (see
  /// NormalizeConfig), so this may differ from the TenantConfig the
  /// tenant was created with.
  const TenantConfig& config() const { return config_; }
  TenantState state() const { return state_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t next_index() const { return next_index_; }
  uint64_t stable_epoch() const { return stable_epoch_; }
  size_t num_cells() const { return live_.num_cells(); }
  /// Cumulative points retired by window expiry (monotone; restored
  /// from the snapshot on failover).
  uint64_t expired_points() const { return expired_points_; }

  /// Absorbs one batch of uncertain points into the live coreset,
  /// assigning stream indices from the tenant's own cursor (the
  /// batch's start_index is ignored — serve-side sequencing is the
  /// tenant's job). Fault site `serve.append` fires before any
  /// mutation; structural validation also precedes mutation, so an
  /// error leaves the tenant bitwise unchanged. Degraded tenants
  /// refuse writes with kFailedPrecondition.
  ///
  /// With config().window_points = W > 0, expiry runs after EVERY
  /// acked point (watermark = acked count - W): the (Add, Expire)
  /// sequence is then a pure function of the acked point sequence, so
  /// replicas that acked the same points are bitwise identical no
  /// matter how the stream was split into batches. The companion fault
  /// site `stream.expire` fires at the same pre-mutation boundary —
  /// append + expiry is one all-or-nothing unit.
  Status Append(const uncertain::UncertainPointBatch& batch);

  /// Exact single-point delete (config().allow_deletes only). The
  /// caller replays the point's data: `point` holds exactly the one
  /// uncertain point that was acked at stream index `index`; a
  /// mismatch (or an index already expired / never acked) is an error
  /// that leaves the tenant bitwise unchanged. Acked deletes advance
  /// the epoch and fold an op-tagged record into the content
  /// fingerprint, so two replicas acking the same append/delete
  /// sequence stay fingerprint- and coreset-identical. Fault site
  /// `serve.delete` fires before any mutation.
  Status Delete(uint64_t index, const uncertain::UncertainPointBatch& point);

  /// Solves k-center on the current cell representatives (live, or
  /// stable when degraded) through stream::SolveOnCells with the
  /// default (Gonzalez) certain solver, honoring `deadline` (expiry ->
  /// kDeadlineExceeded, state untouched). Successful answers are
  /// cached per (epoch, staleness) — repeated queries between appends
  /// cost one lookup.
  Result<CentersAnswer> QueryCenters(const Deadline& deadline);

  /// Exact max-over-cells cost of an explicit candidate set
  /// (`num_candidates` centers, dim doubles each). Deterministic
  /// fixed-order scan; deadline checked per cell chunk.
  Result<CostAnswer> QueryCandidateCost(const std::vector<double>& candidates,
                                        size_t num_candidates,
                                        const Deadline& deadline);

  /// QueryCandidateCost plus the certified full-data bracket.
  Result<BracketAnswer> QueryBracket(const std::vector<double>& candidates,
                                     size_t num_candidates,
                                     const Deadline& deadline);

  /// Persists the live state through the crash-consistent sidecar
  /// (config().snapshot_path; kFailedPrecondition when unset). On
  /// success the stable coreset is refreshed — the snapshot is both
  /// the failover artifact and the degraded-mode serving source.
  /// Fault site `serve.snapshot` (plus the checkpoint.* sites inside
  /// SaveCheckpoint).
  Status Snapshot();

  /// Rebuilds the tenant from its snapshot: epoch, cursor, content
  /// fingerprint and coreset all roll back to the snapshot point, the
  /// state returns to kLive and failure counters clear. The caller
  /// replays acked appends past the restored epoch to catch up. Fault
  /// site `serve.restore` (plus checkpoint.read inside LoadCheckpoint).
  Status RestoreFromSnapshot();

  /// Watchdog hooks (driven by the registry): failure accounting and
  /// the degrade/recover transitions.
  void MarkDegraded() { state_ = TenantState::kDegraded; }
  void MarkLive() { state_ = TenantState::kLive; }

  /// Fingerprint of the tenant configuration (gates restore).
  uint64_t ConfigFingerprint() const;
  /// Running hash of the acked append prefix.
  uint64_t content_fingerprint() const { return content_fingerprint_; }

  /// The current cells (live, or stable when degraded) — the chaos
  /// suite's bitwise-comparison hook.
  std::vector<stream::StreamingCoreset::Cell> ExtractCells() const;

 private:
  // Derives the effective coreset options from the window/delete
  // settings: allow_deletes forces track_members, and either feature
  // defaults churn_bucket when the caller left it 0. Runs once in the
  // constructor so config(), ConfigFingerprint() and the live coreset
  // all agree on the effective values.
  static TenantConfig NormalizeConfig(TenantConfig config);

  // The coreset queries answer from: live when kLive, stable when
  // kDegraded. Second element: the epoch that source reflects.
  const stream::StreamingCoreset& QuerySource(uint64_t* source_epoch) const;

  std::string id_;
  TenantConfig config_;
  TenantState state_ = TenantState::kLive;

  stream::StreamingCoreset live_;
  uint64_t epoch_ = 0;        // Acked ops (appends + deletes).
  uint64_t next_index_ = 0;   // Stream index of the next point.
  uint64_t locations_ = 0;    // Locations consumed (cursor bookkeeping).
  uint64_t expired_points_ = 0;  // Cumulative window-expiry retirements.
  uint64_t content_fingerprint_;

  // Last successful snapshot's coreset (== live_ at stable_epoch_).
  stream::StreamingCoreset stable_;
  uint64_t stable_epoch_ = 0;

  // QueryCenters cache: valid while (epoch, staleness) match. Content
  // at a given (epoch, stale) pair is unique within a tenant lifetime
  // — epochs only move via acked appends or a restore that rewinds to
  // a prefix of the same acked sequence — so the key cannot alias.
  std::optional<CentersAnswer> centers_cache_;

  // Append scratch: the whole batch is summarized (expected points +
  // spreads) and range-checked BEFORE the first coreset mutation, so
  // every failure path leaves the tenant bitwise unchanged.
  std::vector<double> expected_scratch_;
  std::vector<double> spread_scratch_;
  // Query scratch: the flat representatives of the query source,
  // reused so a query allocates no per-cell buffers.
  std::vector<double> reps_scratch_;
};

}  // namespace serve
}  // namespace ukc

#endif  // UKC_SERVE_TENANT_H_
