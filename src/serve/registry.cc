#include "serve/registry.h"

#include <optional>
#include <span>
#include <utility>

#include "common/fault_injection.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "stream/ingest.h"
#include "uncertain/uncertain_point.h"

namespace ukc {
namespace serve {

namespace {

const char* QueryShapeName(int shape) {
  switch (shape) {
    case 0:
      return "centers";
    case 1:
      return "candidate_cost";
    default:
      return "bracket";
  }
}

}  // namespace

TenantRegistry::TenantRegistry(RegistryOptions options)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &obs::MetricsRegistry::Default()) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.degrade_after_failures < 1) options_.degrade_after_failures = 1;
  if (options_.latency_sample_every == 0) options_.latency_sample_every = 1;
  // The registry-wide counters are the only store of the serve event
  // counts (stats() reads them back); handles are resolved once,
  // increments are lock-free relaxed adds.
  obs::MetricsRegistry& m = *metrics_;
  const char* appends = "ukc_serve_appends_total";
  const char* appends_help = "Append submissions by outcome";
  metric_.appends_submitted =
      m.GetCounter(appends, appends_help, {{"outcome", "submitted"}});
  metric_.appends_shed =
      m.GetCounter(appends, appends_help, {{"outcome", "shed"}});
  metric_.enqueue_faults =
      m.GetCounter(appends, appends_help, {{"outcome", "enqueue_fault"}});
  metric_.appends_refused =
      m.GetCounter(appends, appends_help, {{"outcome", "refused"}});
  metric_.appends_applied =
      m.GetCounter(appends, appends_help, {{"outcome", "applied"}});
  metric_.append_failures =
      m.GetCounter(appends, appends_help, {{"outcome", "failed"}});
  const char* snapshots = "ukc_serve_snapshots_total";
  const char* snapshots_help = "Tenant snapshot attempts by outcome";
  metric_.snapshots_saved =
      m.GetCounter(snapshots, snapshots_help, {{"outcome", "saved"}});
  metric_.snapshot_failures =
      m.GetCounter(snapshots, snapshots_help, {{"outcome", "failed"}});
  const char* events = "ukc_serve_tenant_events_total";
  const char* events_help =
      "Tenant lifecycle transitions (degrade, recover, failover restore)";
  metric_.degrade_events =
      m.GetCounter(events, events_help, {{"event", "degrade"}});
  metric_.recover_events =
      m.GetCounter(events, events_help, {{"event", "recover"}});
  metric_.failover_restores =
      m.GetCounter(events, events_help, {{"event", "failover_restore"}});
  const char* queries = "ukc_serve_queries_total";
  const char* queries_help = "Queries by outcome";
  metric_.queries_answered =
      m.GetCounter(queries, queries_help, {{"outcome", "answered"}});
  metric_.queries_deadline_exceeded =
      m.GetCounter(queries, queries_help, {{"outcome", "deadline_exceeded"}});
  metric_.queries_failed =
      m.GetCounter(queries, queries_help, {{"outcome", "failed"}});
  const char* deletes = "ukc_serve_deletes_total";
  const char* deletes_help = "Delete submissions by outcome";
  metric_.deletes_submitted =
      m.GetCounter(deletes, deletes_help, {{"outcome", "submitted"}});
  metric_.deletes_shed =
      m.GetCounter(deletes, deletes_help, {{"outcome", "shed"}});
  metric_.deletes_refused =
      m.GetCounter(deletes, deletes_help, {{"outcome", "refused"}});
  metric_.deletes_applied =
      m.GetCounter(deletes, deletes_help, {{"outcome", "applied"}});
  metric_.delete_failures =
      m.GetCounter(deletes, deletes_help, {{"outcome", "failed"}});
  metric_.points_expired =
      m.GetCounter("ukc_serve_points_expired_total",
                   "Points retired by sliding-window expiry", {});
}

Result<Tenant*> TenantRegistry::CreateTenant(const std::string& id,
                                             TenantConfig config) {
  if (id.empty()) {
    return Status::InvalidArgument("CreateTenant: empty tenant id");
  }
  if (config.dim == 0) {
    return Status::InvalidArgument(
        StrFormat("CreateTenant: tenant %s has dim 0", id.c_str()));
  }
  if (tenants_.count(id) != 0) {
    return Status::InvalidArgument(
        StrFormat("CreateTenant: tenant %s already exists", id.c_str()));
  }
  Slot& slot = tenants_[id];
  slot.tenant = std::make_unique<Tenant>(id, config);
  // Per-tenant serving telemetry: query latency by shape plus the
  // admission queue depth — the "which tenant is slow" handles.
  for (int shape = 0; shape < 3; ++shape) {
    slot.query_seconds[shape] = metrics_->GetHistogram(
        "ukc_serve_query_seconds", "Query latency by tenant and query shape",
        {{"tenant", id}, {"shape", QueryShapeName(shape)}});
  }
  slot.queue_depth =
      metrics_->GetGauge("ukc_serve_queue_depth",
                         "Queued appends awaiting Drain", {{"tenant", id}});
  return slot.tenant.get();
}

Tenant* TenantRegistry::FindTenant(const std::string& id) {
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second.tenant.get();
}

const Tenant* TenantRegistry::FindTenant(const std::string& id) const {
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second.tenant.get();
}

ServeStats TenantRegistry::stats() const {
  ServeStats stats;
  stats.appends_submitted = metric_.appends_submitted->Value();
  stats.appends_shed = metric_.appends_shed->Value();
  stats.enqueue_faults = metric_.enqueue_faults->Value();
  stats.appends_refused = metric_.appends_refused->Value();
  stats.appends_applied = metric_.appends_applied->Value();
  stats.append_failures = metric_.append_failures->Value();
  stats.snapshots_saved = metric_.snapshots_saved->Value();
  stats.snapshot_failures = metric_.snapshot_failures->Value();
  stats.degrade_events = metric_.degrade_events->Value();
  stats.recover_events = metric_.recover_events->Value();
  stats.queries_answered = metric_.queries_answered->Value();
  stats.queries_deadline_exceeded = metric_.queries_deadline_exceeded->Value();
  stats.queries_failed = metric_.queries_failed->Value();
  stats.deletes_submitted = metric_.deletes_submitted->Value();
  stats.deletes_shed = metric_.deletes_shed->Value();
  stats.deletes_refused = metric_.deletes_refused->Value();
  stats.deletes_applied = metric_.deletes_applied->Value();
  stats.delete_failures = metric_.delete_failures->Value();
  stats.points_expired = metric_.points_expired->Value();
  return stats;
}

size_t TenantRegistry::QueueDepth(const std::string& id) const {
  auto it = tenants_.find(id);
  return it == tenants_.end() ? 0 : it->second.queue.size();
}

Status TenantRegistry::SubmitAppend(
    const std::string& id, const uncertain::UncertainPointBatch& batch) {
  metric_.appends_submitted->Increment();
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    return Status::NotFound(
        StrFormat("SubmitAppend: unknown tenant %s", id.c_str()));
  }
  Slot& slot = it->second;
  // Out-of-domain coordinates are refused at admission, per point and
  // with the same ValidateCoordinates message as the file and producer
  // paths. A batch with an inconsistent layout is left to the
  // structural check Tenant::Append runs in Drain.
  if (stream::ValidateBatch(batch, batch.dim).ok()) {
    const std::span<const double> coords(batch.coords);
    for (size_t i = 0; i < batch.n(); ++i) {
      const size_t begin = batch.offsets[i] * batch.dim;
      const size_t end = batch.offsets[i + 1] * batch.dim;
      const Status valid = uncertain::ValidateCoordinates(
          coords.subspan(begin, end - begin), batch.dim);
      if (!valid.ok()) {
        metric_.appends_refused->Increment();
        return valid.WithPrefix(StrFormat("SubmitAppend: tenant %s point %zu",
                                          id.c_str(), i));
      }
    }
  }
  // The enqueue boundary is fault-injectable: an injected kUnavailable
  // models a transient admission failure (client may retry); the
  // status returned by the macro is counted and propagated as-is.
  {
    const Status injected = [&]() -> Status {
      UKC_INJECT_FAULT("serve.enqueue");
      return Status::OK();
    }();
    if (!injected.ok()) {
      metric_.enqueue_faults->Increment();
      return injected;
    }
  }
  if (slot.tenant->state() == TenantState::kDegraded) {
    metric_.appends_refused->Increment();
    return Status::FailedPrecondition(
        StrFormat("SubmitAppend: tenant %s is degraded, writes refused",
                  id.c_str()));
  }
  if (slot.queue.size() >= options_.queue_capacity) {
    metric_.appends_shed->Increment();
    return ShedStatus(
        StrFormat("tenant %s append queue is full (%zu queued)", id.c_str(),
                  slot.queue.size()));
  }
  PendingOp op;
  op.batch = batch;
  slot.queue.push_back(std::move(op));
  slot.queue_depth->Set(static_cast<int64_t>(slot.queue.size()));
  return Status::OK();
}

Status TenantRegistry::SubmitDelete(
    const std::string& id, uint64_t index,
    const uncertain::UncertainPointBatch& point) {
  metric_.deletes_submitted->Increment();
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    return Status::NotFound(
        StrFormat("SubmitDelete: unknown tenant %s", id.c_str()));
  }
  Slot& slot = it->second;
  if (!slot.tenant->config().allow_deletes) {
    metric_.deletes_refused->Increment();
    return Status::FailedPrecondition(
        StrFormat("SubmitDelete: tenant %s does not allow deletes",
                  id.c_str()));
  }
  if (slot.tenant->state() == TenantState::kDegraded) {
    metric_.deletes_refused->Increment();
    return Status::FailedPrecondition(
        StrFormat("SubmitDelete: tenant %s is degraded, writes refused",
                  id.c_str()));
  }
  if (slot.queue.size() >= options_.queue_capacity) {
    metric_.deletes_shed->Increment();
    return ShedStatus(
        StrFormat("tenant %s write queue is full (%zu queued)", id.c_str(),
                  slot.queue.size()));
  }
  PendingOp op;
  op.is_delete = true;
  op.delete_index = index;
  op.batch = point;
  slot.queue.push_back(std::move(op));
  slot.queue_depth->Set(static_cast<int64_t>(slot.queue.size()));
  return Status::OK();
}

void TenantRegistry::RecordFailure(Slot* slot, DrainResult* result) {
  ++slot->consecutive_failures;
  if (slot->consecutive_failures >= options_.degrade_after_failures &&
      slot->tenant->state() == TenantState::kLive) {
    slot->tenant->MarkDegraded();
    metric_.degrade_events->Increment();
    ++result->degraded;
  }
}

void TenantRegistry::RecordSuccess(Slot* slot) {
  slot->consecutive_failures = 0;
}

// Deliberately span-free: Drain is a sub-microsecond call on the
// serving write path, and a TraceSpan resolves its series through the
// registry every time — the applied/refused/snapshot counters below
// already tell the whole story at one relaxed add each.
DrainResult TenantRegistry::Drain() {
  DrainResult result;
  for (auto& [id, slot] : tenants_) {
    Tenant& tenant = *slot.tenant;

    // Watchdog recovery probe: a degraded tenant attempts a snapshot
    // of its (always-valid) live state. Success proves the failing
    // boundary cleared -> back to live; failure keeps it degraded.
    // Tenants without a snapshot path recover by probe-free fiat: the
    // only degradable boundary they have is the append itself, which
    // the next applied batch re-tests.
    if (tenant.state() == TenantState::kDegraded) {
      Status probe = Status::OK();
      if (!tenant.config().snapshot_path.empty()) {
        probe = tenant.Snapshot();
      }
      if (probe.ok()) {
        if (!tenant.config().snapshot_path.empty()) {
          metric_.snapshots_saved->Increment();
          ++result.snapshots;
        }
        tenant.MarkLive();
        slot.consecutive_failures = 0;
        metric_.recover_events->Increment();
        ++result.recovered;
      } else {
        metric_.snapshot_failures->Increment();
        ++slot.consecutive_failures;
      }
    }

    while (!slot.queue.empty()) {
      PendingOp op = std::move(slot.queue.front());
      slot.queue.pop_front();
      if (tenant.state() == TenantState::kDegraded) {
        // Queued before the degrade: dropped un-acked (never silently
        // applied later against a rolled-back coreset).
        if (op.is_delete) {
          metric_.deletes_refused->Increment();
        } else {
          metric_.appends_refused->Increment();
        }
        ++result.refused;
        continue;
      }
      const uint64_t expired_before = tenant.expired_points();
      const Status applied = op.is_delete
                                 ? tenant.Delete(op.delete_index, op.batch)
                                 : tenant.Append(op.batch);
      if (!applied.ok()) {
        if (op.is_delete) {
          metric_.delete_failures->Increment();
        } else {
          metric_.append_failures->Increment();
        }
        ++result.failed;
        RecordFailure(&slot, &result);
        continue;
      }
      if (op.is_delete) {
        metric_.deletes_applied->Increment();
      } else {
        metric_.appends_applied->Increment();
      }
      ++result.applied;
      const uint64_t newly_expired = tenant.expired_points() - expired_before;
      if (newly_expired > 0) {
        metric_.points_expired->Add(newly_expired);
        result.expired += newly_expired;
      }

      // Snapshot cadence, counted in acked appends. The watchdog unit
      // is "ack + due snapshot": a failing snapshot boundary must
      // accumulate consecutive failures even though the appends
      // between its attempts keep succeeding.
      const TenantConfig& config = tenant.config();
      bool unit_ok = true;
      if (!config.snapshot_path.empty() &&
          config.snapshot_every_appends > 0 &&
          tenant.epoch() % config.snapshot_every_appends == 0) {
        const Status saved = tenant.Snapshot();
        if (saved.ok()) {
          metric_.snapshots_saved->Increment();
          ++result.snapshots;
        } else {
          metric_.snapshot_failures->Increment();
          RecordFailure(&slot, &result);
          unit_ok = false;
        }
      }
      if (unit_ok) RecordSuccess(&slot);
    }
    slot.queue_depth->Set(0);  // Drain always empties the queue.
  }
  return result;
}

bool TenantRegistry::SampleQuery(Slot* slot) {
  return (slot->queries_seen++ % options_.latency_sample_every) == 0;
}

void TenantRegistry::CountQuery(Slot* slot, QueryShape shape,
                                const Status& status, bool sampled,
                                double seconds) {
  if (status.ok()) {
    metric_.queries_answered->Increment();
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    metric_.queries_deadline_exceeded->Increment();
  } else {
    metric_.queries_failed->Increment();
  }
  // Latency is recorded for answered AND failed queries — a tenant
  // burning its whole deadline budget must show up in its p99, not
  // vanish from the series. Unsampled queries skip only the
  // measurement (latency_sample_every); they are still counted above.
  if (slot != nullptr && sampled) slot->query_seconds[shape]->Observe(seconds);
}

Result<Tenant::CentersAnswer> TenantRegistry::QueryCenters(
    const std::string& id, const Deadline& deadline) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    metric_.queries_failed->Increment();
    return Status::NotFound(
        StrFormat("QueryCenters: unknown tenant %s", id.c_str()));
  }
  // The timer exists only on sampled queries: its two TSC reads would
  // otherwise dominate the cached-centers hit.
  const bool sampled = SampleQuery(&it->second);
  std::optional<obs::ScopedTimer> timer;
  if (sampled) timer.emplace(nullptr);
  Result<Tenant::CentersAnswer> answer =
      it->second.tenant->QueryCenters(deadline);
  CountQuery(&it->second, kCenters, answer.status(), sampled,
             sampled ? timer->ElapsedSeconds() : 0.0);
  return answer;
}

Result<Tenant::CostAnswer> TenantRegistry::QueryCandidateCost(
    const std::string& id, const std::vector<double>& candidates,
    size_t num_candidates, const Deadline& deadline) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    metric_.queries_failed->Increment();
    return Status::NotFound(
        StrFormat("QueryCandidateCost: unknown tenant %s", id.c_str()));
  }
  const bool sampled = SampleQuery(&it->second);
  std::optional<obs::ScopedTimer> timer;
  if (sampled) timer.emplace(nullptr);
  Result<Tenant::CostAnswer> answer = it->second.tenant->QueryCandidateCost(
      candidates, num_candidates, deadline);
  CountQuery(&it->second, kCandidateCost, answer.status(), sampled,
             sampled ? timer->ElapsedSeconds() : 0.0);
  return answer;
}

Result<Tenant::BracketAnswer> TenantRegistry::QueryBracket(
    const std::string& id, const std::vector<double>& candidates,
    size_t num_candidates, const Deadline& deadline) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    metric_.queries_failed->Increment();
    return Status::NotFound(
        StrFormat("QueryBracket: unknown tenant %s", id.c_str()));
  }
  const bool sampled = SampleQuery(&it->second);
  std::optional<obs::ScopedTimer> timer;
  if (sampled) timer.emplace(nullptr);
  Result<Tenant::BracketAnswer> answer =
      it->second.tenant->QueryBracket(candidates, num_candidates, deadline);
  CountQuery(&it->second, kBracket, answer.status(), sampled,
             sampled ? timer->ElapsedSeconds() : 0.0);
  return answer;
}

Status TenantRegistry::RestoreTenant(const std::string& id,
                                     uint64_t* restored_epoch) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    return Status::NotFound(
        StrFormat("RestoreTenant: unknown tenant %s", id.c_str()));
  }
  Slot& slot = it->second;
  UKC_RETURN_IF_ERROR(slot.tenant->RestoreFromSnapshot());
  slot.queue.clear();
  slot.queue_depth->Set(0);
  slot.consecutive_failures = 0;
  metric_.failover_restores->Increment();
  if (restored_epoch != nullptr) *restored_epoch = slot.tenant->epoch();
  return Status::OK();
}

}  // namespace serve
}  // namespace ukc
