#include "serve/tenant.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/strings.h"
#include "stream/checkpoint.h"
#include "stream/ingest.h"
#include "stream/pipeline.h"

namespace ukc {
namespace serve {

namespace {

// The coreset's own key-magnitude cap (stream/coreset.h): |x| / width
// must stay below 2^44. Checked per batch BEFORE any Add so an
// over-range coordinate rejects the whole batch atomically instead of
// failing mid-mutation.
constexpr double kKeyMagnitudeCap = 17592186044416.0;  // 2^44

// Folded into the content fingerprint before each acked delete, so an
// append and a delete can never alias to the same running hash.
constexpr uint64_t kDeleteOpTag = 0xD31E7E0Full;

}  // namespace

TenantConfig Tenant::NormalizeConfig(TenantConfig config) {
  if (config.allow_deletes) config.coreset.track_members = true;
  if ((config.window_points > 0 || config.allow_deletes) &&
      config.coreset.churn_bucket == 0) {
    // Default bucket: ~16 retirements per window sweep (window mode),
    // or a fixed modest granularity for delete-only tenants.
    config.coreset.churn_bucket =
        config.window_points > 0
            ? std::max<uint64_t>(1, config.window_points / 16)
            : 64;
  }
  return config;
}

Tenant::Tenant(std::string id, TenantConfig config)
    : id_(std::move(id)),
      config_(NormalizeConfig(std::move(config))),
      live_(config_.dim, config_.norm, config_.coreset),
      content_fingerprint_(kHashSeed),
      stable_(live_) {}

uint64_t Tenant::ConfigFingerprint() const {
  uint64_t hash = HashString(id_);
  hash = HashValue(hash, static_cast<uint64_t>(config_.dim));
  hash = HashValue(hash, static_cast<uint64_t>(config_.norm));
  hash = HashValue(hash, static_cast<uint64_t>(config_.k));
  // Churn settings change what the coreset retains — a windowed
  // snapshot must never restore into an unbounded tenant (or vice
  // versa), so they gate restore like every other config field.
  hash = stream::HashCoresetOptions(hash, config_.coreset);
  hash = HashValue(hash, config_.window_points);
  hash = HashValue(hash, static_cast<uint64_t>(config_.allow_deletes));
  return hash;
}

const stream::StreamingCoreset& Tenant::QuerySource(
    uint64_t* source_epoch) const {
  if (state_ == TenantState::kDegraded) {
    *source_epoch = stable_epoch_;
    return stable_;
  }
  *source_epoch = epoch_;
  return live_;
}

std::vector<stream::StreamingCoreset::Cell> Tenant::ExtractCells() const {
  uint64_t ignored = 0;
  return QuerySource(&ignored).ExtractCells();
}

Status Tenant::Append(const uncertain::UncertainPointBatch& batch) {
  if (state_ == TenantState::kDegraded) {
    return Status::FailedPrecondition(
        StrFormat("tenant %s is degraded: writes refused until recovery",
                  id_.c_str()));
  }
  // The injectable boundaries fire before ANY mutation: an injected
  // failure leaves coreset, cursor and fingerprint bitwise unchanged,
  // which is the all-or-nothing contract the chaos suite's reference
  // replay (acked appends only) depends on. stream.expire sits at the
  // same boundary — window expiry is part of the append unit, so a
  // faulted append must not leave "appended but not expired" state.
  UKC_INJECT_FAULT("serve.append");
  if (config_.window_points > 0) {
    UKC_INJECT_FAULT("stream.expire");
  }
  UKC_RETURN_IF_ERROR(stream::ValidateBatch(batch, config_.dim));
  if (batch.norm != config_.norm) {
    return Status::InvalidArgument(
        StrFormat("tenant %s: batch norm does not match the tenant norm",
                  id_.c_str()));
  }

  // Summarize and range-check the whole batch before the first Add.
  const size_t n = batch.n();
  expected_scratch_.resize(n * config_.dim);
  spread_scratch_.resize(n);
  const double magnitude_cap =
      config_.coreset.base_cell_width * kKeyMagnitudeCap;
  for (size_t i = 0; i < n; ++i) {
    double* expected = expected_scratch_.data() + i * config_.dim;
    spread_scratch_[i] = stream::SummarizeBatchPoint(batch, i, expected);
    for (size_t d = 0; d < config_.dim; ++d) {
      if (!(std::abs(expected[d]) < magnitude_cap)) {
        return Status::InvalidArgument(
            StrFormat("tenant %s: expected-point coordinate out of the "
                      "coreset key range (|x| must stay below "
                      "base_cell_width * 2^44)",
                      id_.c_str()));
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    UKC_RETURN_IF_ERROR(live_.Add(next_index_ + i,
                                  expected_scratch_.data() + i * config_.dim,
                                  spread_scratch_[i]));
    if (config_.window_points > 0) {
      // Per-POINT expiry: after acking point next_index_ + i the live
      // window is the last window_points indices. Running the watermark
      // here — not per batch — makes the (Add, Expire) interleaving a
      // pure function of the acked point sequence, so the coreset
      // (including its level history) is invariant to batch splits.
      const uint64_t acked_through = next_index_ + i + 1;
      if (acked_through > config_.window_points) {
        UKC_ASSIGN_OR_RETURN(
            const uint64_t retired,
            live_.ExpireBefore(acked_through - config_.window_points));
        expired_points_ += retired;
      }
    }
  }

  // Ack: advance the cursor and fold the batch into the content
  // fingerprint (cursor first, so identical batches at different
  // stream positions hash differently).
  content_fingerprint_ = HashValue(content_fingerprint_, next_index_);
  content_fingerprint_ = HashBytes(content_fingerprint_,
                                   batch.offsets.data(),
                                   batch.offsets.size() * sizeof(size_t));
  content_fingerprint_ = HashBytes(content_fingerprint_, batch.coords.data(),
                                   batch.coords.size() * sizeof(double));
  content_fingerprint_ = HashBytes(content_fingerprint_,
                                   batch.probabilities.data(),
                                   batch.probabilities.size() * sizeof(double));
  next_index_ += n;
  locations_ += batch.num_locations();
  ++epoch_;
  centers_cache_.reset();
  return Status::OK();
}

Status Tenant::Delete(uint64_t index,
                      const uncertain::UncertainPointBatch& point) {
  if (!config_.allow_deletes) {
    return Status::FailedPrecondition(
        StrFormat("tenant %s: deletes are not enabled "
                  "(TenantConfig::allow_deletes)",
                  id_.c_str()));
  }
  if (state_ == TenantState::kDegraded) {
    return Status::FailedPrecondition(
        StrFormat("tenant %s is degraded: writes refused until recovery",
                  id_.c_str()));
  }
  // Same all-or-nothing contract as Append: the fault site and every
  // validation failure precede the first mutation.
  UKC_INJECT_FAULT("serve.delete");
  UKC_RETURN_IF_ERROR(stream::ValidateBatch(point, config_.dim));
  if (point.norm != config_.norm) {
    return Status::InvalidArgument(
        StrFormat("tenant %s: delete norm does not match the tenant norm",
                  id_.c_str()));
  }
  if (point.n() != 1) {
    return Status::InvalidArgument(
        StrFormat("tenant %s: a delete replays exactly one point",
                  id_.c_str()));
  }
  if (index >= next_index_) {
    return Status::InvalidArgument(
        StrFormat("tenant %s: delete index %llu was never acked",
                  id_.c_str(), static_cast<unsigned long long>(index)));
  }
  expected_scratch_.resize(config_.dim);
  const double spread =
      stream::SummarizeBatchPoint(point, 0, expected_scratch_.data());
  // Remove validates that the replayed point matches the stored member
  // bit-for-bit; any mismatch (or an already-expired / already-deleted
  // index) errors out with the coreset untouched.
  UKC_RETURN_IF_ERROR(live_.Remove(index, expected_scratch_.data(), spread));

  // Ack: deletes advance the same epoch and fingerprint stream as
  // appends (with an op tag so the two can never alias), so replicas
  // that ack the same op sequence stay bitwise comparable.
  content_fingerprint_ = HashValue(content_fingerprint_, kDeleteOpTag);
  content_fingerprint_ = HashValue(content_fingerprint_, index);
  ++epoch_;
  centers_cache_.reset();
  return Status::OK();
}

Result<Tenant::CentersAnswer> Tenant::QueryCenters(const Deadline& deadline) {
  UKC_RETURN_IF_ERROR(deadline.Check("QueryCenters"));
  uint64_t source_epoch = 0;
  const stream::StreamingCoreset& source = QuerySource(&source_epoch);
  const bool stale = state_ == TenantState::kDegraded;
  if (centers_cache_.has_value() && centers_cache_->epoch == source_epoch &&
      centers_cache_->stale == stale) {
    return *centers_cache_;
  }

  source.ExtractRepresentatives(&reps_scratch_);
  const size_t num_cells = source.num_cells();
  CentersAnswer answer;
  answer.epoch = source_epoch;
  answer.stale = stale;
  if (num_cells > 0) {
    // Cells are certain points and weights do not enter the max
    // objective: solve on the flat representatives exactly as the
    // streaming solver does (stream/pipeline.h SolveOnCells).
    UKC_ASSIGN_OR_RETURN(
        stream::CellSolution solution,
        stream::SolveOnCells(reps_scratch_.data(), num_cells, config_.dim,
                             config_.norm, std::min(config_.k, num_cells),
                             solver::CertainSolverOptions(), deadline));
    answer.k = solution.k;
    answer.cost = solution.cost;
    answer.center_coords = std::move(solution.center_coords);
  }
  const double error = source.error_bound();
  answer.lower = std::max(0.0, answer.cost - error);
  answer.upper = answer.cost + error;
  centers_cache_ = answer;
  return answer;
}

Result<Tenant::CostAnswer> Tenant::QueryCandidateCost(
    const std::vector<double>& candidates, size_t num_candidates,
    const Deadline& deadline) {
  UKC_RETURN_IF_ERROR(deadline.Check("QueryCandidateCost"));
  if (num_candidates == 0 ||
      candidates.size() != num_candidates * config_.dim) {
    return Status::InvalidArgument(
        StrFormat("tenant %s: candidate buffer must hold num_candidates * "
                  "dim coordinates",
                  id_.c_str()));
  }
  uint64_t source_epoch = 0;
  const stream::StreamingCoreset& source = QuerySource(&source_epoch);
  CostAnswer answer;
  answer.epoch = source_epoch;
  answer.stale = state_ == TenantState::kDegraded;

  // max over cells of (min over candidates): fixed cell order (the
  // coreset's min_index order), fixed candidate order, strict
  // comparisons — bitwise identical on every replica.
  source.ExtractRepresentatives(&reps_scratch_);
  UKC_ASSIGN_OR_RETURN(
      answer.cost,
      stream::MaxNearestDistance(reps_scratch_.data(), source.num_cells(),
                                 candidates.data(), num_candidates,
                                 config_.dim, config_.norm, deadline));
  return answer;
}

Result<Tenant::BracketAnswer> Tenant::QueryBracket(
    const std::vector<double>& candidates, size_t num_candidates,
    const Deadline& deadline) {
  UKC_ASSIGN_OR_RETURN(CostAnswer cost,
                       QueryCandidateCost(candidates, num_candidates,
                                          deadline));
  uint64_t source_epoch = 0;
  const stream::StreamingCoreset& source = QuerySource(&source_epoch);
  BracketAnswer answer;
  answer.epoch = cost.epoch;
  answer.stale = cost.stale;
  answer.cost = cost.cost;
  // |E[d(P̂_i, C)] − d(rep_i, C)| <= diameter + spread_i for every
  // point (stream/coreset.h contract), so the full-data expected max
  // sits within error_bound of the representative max.
  answer.error_bound = source.error_bound();
  answer.lower = std::max(0.0, answer.cost - answer.error_bound);
  answer.upper = answer.cost + answer.error_bound;
  return answer;
}

Status Tenant::Snapshot() {
  if (config_.snapshot_path.empty()) {
    return Status::FailedPrecondition(
        StrFormat("tenant %s: no snapshot path configured", id_.c_str()));
  }
  UKC_INJECT_FAULT("serve.snapshot");
  stream::IngestCheckpoint checkpoint;
  checkpoint.config_fingerprint = ConfigFingerprint();
  checkpoint.content_fingerprint = content_fingerprint_;
  checkpoint.batches = epoch_;
  checkpoint.points = next_index_;
  checkpoint.locations = locations_;
  checkpoint.window_points = config_.window_points;
  checkpoint.expired_points = expired_points_;
  checkpoint.has_byte_offset = false;
  live_.SerializeTo(&checkpoint.coreset_image);
  UKC_RETURN_IF_ERROR(stream::SaveCheckpoint(config_.snapshot_path, checkpoint,
                                             config_.snapshot_sync));
  // The persisted image is the new stable serving source. (Snapshots
  // taken while degraded — the watchdog's recovery probe — refresh it
  // too: the live coreset is always valid, appends being atomic.)
  stable_ = live_;
  stable_epoch_ = epoch_;
  return Status::OK();
}

Status Tenant::RestoreFromSnapshot() {
  if (config_.snapshot_path.empty()) {
    return Status::FailedPrecondition(
        StrFormat("tenant %s: no snapshot path configured", id_.c_str()));
  }
  UKC_INJECT_FAULT("serve.restore");
  UKC_ASSIGN_OR_RETURN(stream::IngestCheckpoint checkpoint,
                       stream::LoadCheckpoint(config_.snapshot_path));
  if (checkpoint.config_fingerprint != ConfigFingerprint()) {
    return Status::FailedPrecondition(
        StrFormat("tenant %s: snapshot was written under a different "
                  "configuration; refusing to restore",
                  id_.c_str()));
  }
  UKC_ASSIGN_OR_RETURN(stream::StreamingCoreset restored,
                       stream::StreamingCoreset::Deserialize(
                           checkpoint.coreset_image));
  live_ = std::move(restored);
  epoch_ = checkpoint.batches;
  next_index_ = checkpoint.points;
  locations_ = checkpoint.locations;
  expired_points_ = checkpoint.expired_points;
  content_fingerprint_ = checkpoint.content_fingerprint;
  stable_ = live_;
  stable_epoch_ = epoch_;
  state_ = TenantState::kLive;
  centers_cache_.reset();
  return Status::OK();
}

}  // namespace serve
}  // namespace ukc
