// serve: one client thread drives a seeded script against a
// TenantRegistry of 8 tenants in a closed loop (the registry is
// externally synchronized to one serving thread, so the next op is
// sent only when the previous one returned).
//
// Script mix per op: 50% SubmitAppend of 1-4 points, 5% SubmitDelete
// replaying an acked point (window tenants), 20% QueryCenters, 15%
// QueryCandidateCost, 10% QueryBracket; a Drain every 16 ops, and every
// kRestoreEvery ops a RestoreTenant plus a replay of the acked suffix,
// which must bring the tenant back to its pre-restore epoch and content
// fingerprint. Tenants 4-7 keep a 4096-point sliding window and allow
// deletes; every tenant snapshots each 64 acked ops.
//
// The script is a pure function of the seed, so the first kPrefixOps
// ops are the same on every run: the answer metrics and the registry
// counts are taken over that prefix, the timings over the whole run.

#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <set>
#include <string>

#include "common/rng.h"
#include "common/strings.h"
#include "serve/registry.h"
#include "uncertain/generators.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr size_t kTenants = 8;
constexpr size_t kWindowTenantsFrom = 4;
constexpr size_t kDim = 2;
constexpr size_t kLocations = 4;
constexpr size_t kCenters = 8;
constexpr size_t kMaxCells = 1024;
constexpr uint64_t kSnapshotEvery = 64;
constexpr uint64_t kWindow = 4096;
constexpr size_t kQueueCapacity = 64;
constexpr size_t kWarmAppends = 256;     // Per tenant, at set-up.
constexpr size_t kWarmBatch = 32;        // Points per warm-up append.
constexpr size_t kDrainEvery = 16;
constexpr size_t kRestoreEvery = 4096;
constexpr size_t kBlockOps = 1024;       // Ops per wall_s sample.
constexpr size_t kPrefixOps = 8192;      // Deterministic prefix.
// Warm-ups before the storm and again after it (fresh registry each):
// each is one setup_s sample, taken at both ends of the run.
constexpr size_t kSetupsPerSide = 6;

using ukc::uncertain::UncertainPointBatch;

std::string TenantId(size_t t) { return ukc::StrFormat("t%zu", t); }

// One write op as the client remembers it (for restore replays).
struct WriteOp {
  bool is_delete = false;
  uint64_t index = 0;  // Delete: the replayed point's stream index.
  UncertainPointBatch batch;
};

struct AckedOp {
  uint64_t epoch = 0;  // Tenant epoch right after this op was acked.
  WriteOp op;
};

struct PendingOp {
  size_t tenant = 0;
  Clock::time_point submitted;
  WriteOp op;
};

// Client-side mirror of one tenant.
struct TenantBook {
  uint64_t epoch = 0;                 // Acked ops.
  uint64_t next_index = 0;            // Acked points.
  std::deque<AckedOp> outbox;         // Acked ops past the last snapshot.
  // Window tenants: recent acked single points, by stream index, that a
  // delete may replay; and the indices already deleted.
  std::deque<std::pair<uint64_t, UncertainPointBatch>> recent;
  std::set<uint64_t> deleted;
  uint64_t last_centers_epoch = ~uint64_t{0};
  std::vector<double> last_centers;
};

// Latency samples of one run, in seconds.
struct Samples {
  std::vector<double> query, centers, candidate_cost, bracket;
  std::vector<double> ack, submit, drain, restore;
  uint64_t centers_answers = 0;
  uint64_t centers_cold = 0;
};

class Client {
 public:
  Client(const RunContext& ctx, const std::filesystem::path& snapshot_dir,
         RunResult* result)
      : registry_(MakeOptions(ctx.pool)), rng_(ctx.seed), result_(result) {
    for (size_t t = 0; t < kTenants; ++t) {
      ukc::serve::TenantConfig config;
      config.dim = kDim;
      config.k = kCenters;
      config.coreset.max_cells = kMaxCells;
      config.snapshot_path = (snapshot_dir / (TenantId(t) + ".snap")).string();
      config.snapshot_every_appends = kSnapshotEvery;
      if (t >= kWindowTenantsFrom) {
        config.window_points = kWindow;
        config.allow_deletes = true;
      }
      ukc::Result<ukc::serve::Tenant*> tenant =
          registry_.CreateTenant(TenantId(t), config);
      if (!tenant.ok()) Fail("CreateTenant: " + tenant.status().ToString());
    }
  }

  // Set-up: every tenant gets kWarmAppends appends of kWarmBatch points.
  void Warm() {
    for (size_t round = 0; round < kWarmAppends; ++round) {
      for (size_t t = 0; t < kTenants; ++t) Append(t, kWarmBatch, nullptr);
      if ((round + 1) % (kQueueCapacity / 2) == 0) Drain(nullptr);
    }
    Drain(nullptr);
  }

  // One script op. `samples` null = untimed; `trace` also times the
  // submit calls.
  void Step(Samples* samples, bool trace) {
    ++ops_;
    const int64_t roll = rng_.UniformInt(0, 99);
    const size_t tenant = static_cast<size_t>(rng_.UniformInt(0, kTenants - 1));
    if (roll < 50) {
      Append(tenant, static_cast<size_t>(rng_.UniformInt(1, 4)),
             trace ? samples : nullptr);
    } else if (roll < 55) {
      Delete(kWindowTenantsFrom + tenant % (kTenants - kWindowTenantsFrom),
             trace ? samples : nullptr);
    } else if (roll < 75) {
      QueryCenters(tenant, samples);
    } else if (roll < 90) {
      QueryCost(tenant, samples, /*bracket=*/false);
    } else {
      QueryCost(tenant, samples, /*bracket=*/true);
    }
    if (ops_ % kDrainEvery == 0) Drain(samples);
    if (ops_ % kRestoreEvery == 0) {
      Restore(static_cast<size_t>(rng_.UniformInt(0, kTenants - 1)), samples);
    }
  }

  uint64_t ops() const { return ops_; }
  ukc::serve::TenantRegistry& registry() { return registry_; }

  // Mean QueryCenters cost over the deterministic prefix.
  double prefix_mean_centers_cost() const {
    return prefix_centers_ == 0 ? 0.0 : prefix_centers_cost_ / prefix_centers_;
  }

 private:
  static ukc::serve::RegistryOptions MakeOptions(ukc::ThreadPool* pool) {
    ukc::serve::RegistryOptions options;
    options.queue_capacity = kQueueCapacity;
    options.pool = pool;
    return options;
  }

  void Fail(const std::string& what) { result_->Fail("serve: " + what); }

  // n fresh points: homes Gaussian around one of kCenters planted
  // centers on a fixed 4 x 2 grid over [0, 10]^2 (the layout does not
  // depend on the seed, so neither do the answers' scale), locations
  // Gaussian around each home.
  UncertainPointBatch MakePoints(size_t n) {
    UncertainPointBatch batch;
    batch.dim = kDim;
    batch.offsets.push_back(0);
    for (size_t i = 0; i < n; ++i) {
      const int64_t cluster = rng_.UniformInt(0, kCenters - 1);
      const double center[kDim] = {1.25 + 2.5 * static_cast<double>(cluster % 4),
                                   2.5 + 5.0 * static_cast<double>(cluster / 4)};
      double home[kDim];
      for (size_t a = 0; a < kDim; ++a) home[a] = rng_.Gaussian(center[a], 0.5);
      for (double p : ukc::uncertain::MakeProbabilities(
               kLocations, ukc::uncertain::ProbabilityShape::kRandom, rng_)) {
        batch.probabilities.push_back(p);
        for (size_t a = 0; a < kDim; ++a) {
          batch.coords.push_back(rng_.Gaussian(home[a], 0.5));
        }
      }
      batch.offsets.push_back(batch.probabilities.size());
    }
    return batch;
  }

  // Submits one write op; a rejected submission is a failed op.
  void Submit(size_t tenant, WriteOp op, Samples* timed) {
    const Clock::time_point start = Clock::now();
    const ukc::Status status =
        op.is_delete ? registry_.SubmitDelete(TenantId(tenant), op.index, op.batch)
                     : registry_.SubmitAppend(TenantId(tenant), op.batch);
    if (timed != nullptr) timed->submit.push_back(SecondsSince(start));
    if (!status.ok()) {
      Fail("submit: " + status.ToString());
      return;
    }
    pending_.push_back(PendingOp{tenant, start, std::move(op)});
  }

  void Append(size_t tenant, size_t points, Samples* timed) {
    WriteOp op;
    op.batch = MakePoints(points);
    Submit(tenant, std::move(op), timed);
  }

  // Replays a recent acked, undeleted point of a window tenant, from
  // the newer half of its window so it cannot expire before the next
  // Drain applies the delete.
  void Delete(size_t tenant, Samples* timed) {
    TenantBook& book = books_[tenant];
    for (int attempt = 0; attempt < 8 && !book.recent.empty(); ++attempt) {
      auto& [index, point] = book.recent[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(book.recent.size()) - 1))];
      if (!book.deleted.insert(index).second) continue;
      WriteOp op;
      op.is_delete = true;
      op.index = index;
      op.batch = point;
      Submit(tenant, std::move(op), timed);
      return;
    }
  }

  // Applies every pending op; each must be acked, in submission order
  // per tenant, at consecutive epochs.
  void Drain(Samples* samples) {
    const Clock::time_point start = Clock::now();
    const ukc::serve::DrainResult drained = registry_.Drain();
    const Clock::time_point end = Clock::now();
    if (samples != nullptr) {
      samples->drain.push_back(std::chrono::duration<double>(end - start).count());
    }
    if (drained.applied != pending_.size() || drained.failed != 0 ||
        drained.refused != 0) {
      Fail(ukc::StrFormat("drain acked %llu of %zu ops (%llu failed, %llu refused)",
                          static_cast<unsigned long long>(drained.applied),
                          pending_.size(),
                          static_cast<unsigned long long>(drained.failed),
                          static_cast<unsigned long long>(drained.refused)));
    }
    for (PendingOp& pending : pending_) {
      if (samples != nullptr) {
        samples->ack.push_back(
            std::chrono::duration<double>(end - pending.submitted).count());
      }
      TenantBook& book = books_[pending.tenant];
      ++book.epoch;
      if (!pending.op.is_delete) {
        const UncertainPointBatch& batch = pending.op.batch;
        if (pending.tenant >= kWindowTenantsFrom) {
          for (size_t i = 0; i < batch.n(); ++i) {
            book.recent.emplace_back(book.next_index + i, SinglePoint(batch, i));
          }
        }
        book.next_index += batch.n();
      }
      book.outbox.push_back(AckedOp{book.epoch, std::move(pending.op)});
    }
    pending_.clear();
    for (size_t t = 0; t < kTenants; ++t) Trim(t);
  }

  static UncertainPointBatch SinglePoint(const UncertainPointBatch& batch,
                                         size_t i) {
    UncertainPointBatch point;
    point.dim = batch.dim;
    point.offsets = {0, batch.locations_of(i)};
    point.probabilities.assign(batch.probabilities.begin() + batch.offsets[i],
                               batch.probabilities.begin() + batch.offsets[i + 1]);
    point.coords.assign(batch.coords.begin() + batch.offsets[i] * batch.dim,
                        batch.coords.begin() + batch.offsets[i + 1] * batch.dim);
    return point;
  }

  // Checks the registry agrees with the client's epoch, forgets ops the
  // last snapshot covers and points a delete may no longer target.
  void Trim(size_t t) {
    TenantBook& book = books_[t];
    const ukc::serve::Tenant* tenant = registry_.FindTenant(TenantId(t));
    if (tenant->epoch() != book.epoch || tenant->next_index() != book.next_index) {
      Fail(ukc::StrFormat("tenant %zu at epoch %llu, client expects %llu", t,
                          static_cast<unsigned long long>(tenant->epoch()),
                          static_cast<unsigned long long>(book.epoch)));
      book.epoch = tenant->epoch();
      book.next_index = tenant->next_index();
    }
    while (!book.outbox.empty() &&
           book.outbox.front().epoch <= tenant->stable_epoch()) {
      book.outbox.pop_front();
    }
    const uint64_t oldest = book.next_index > kWindow / 2
                                ? book.next_index - kWindow / 2
                                : 0;
    while (!book.recent.empty() && book.recent.front().first < oldest) {
      book.deleted.erase(book.recent.front().first);
      book.recent.pop_front();
    }
  }

  // Failover: restore from the sidecar, replay the acked suffix, and
  // require the pre-restore epoch and content fingerprint.
  void Restore(size_t t, Samples* samples) {
    Drain(samples);
    ukc::serve::Tenant* tenant = registry_.FindTenant(TenantId(t));
    const uint64_t epoch = tenant->epoch();
    const uint64_t fingerprint = tenant->content_fingerprint();
    const Clock::time_point start = Clock::now();
    uint64_t restored = 0;
    const ukc::Status status = registry_.RestoreTenant(TenantId(t), &restored);
    if (!status.ok()) {
      Fail("RestoreTenant: " + status.ToString());
      return;
    }
    size_t queued = 0;
    for (const AckedOp& acked : books_[t].outbox) {
      if (acked.epoch <= restored) continue;
      const ukc::Status submitted =
          acked.op.is_delete
              ? registry_.SubmitDelete(TenantId(t), acked.op.index, acked.op.batch)
              : registry_.SubmitAppend(TenantId(t), acked.op.batch);
      if (!submitted.ok()) {
        Fail("replay: " + submitted.ToString());
        return;
      }
      if (++queued == kQueueCapacity) {
        registry_.Drain();
        queued = 0;
      }
    }
    registry_.Drain();
    if (samples != nullptr) samples->restore.push_back(SecondsSince(start));
    if (tenant->epoch() != epoch || tenant->content_fingerprint() != fingerprint) {
      Fail(ukc::StrFormat("restore of tenant %zu came back at epoch %llu, not %llu",
                          t, static_cast<unsigned long long>(tenant->epoch()),
                          static_cast<unsigned long long>(epoch)));
    }
    Trim(t);
  }

  void QueryCenters(size_t t, Samples* samples) {
    const Clock::time_point start = Clock::now();
    ukc::Result<ukc::serve::Tenant::CentersAnswer> answer =
        registry_.QueryCenters(TenantId(t), ukc::Deadline());
    const double seconds = SecondsSince(start);
    if (!answer.ok()) {
      Fail("QueryCenters: " + answer.status().ToString());
      return;
    }
    if (!(answer->lower <= answer->cost && answer->cost <= answer->upper) ||
        answer->k != kCenters ||
        answer->center_coords.size() != kCenters * kDim) {
      Fail(ukc::StrFormat("QueryCenters: k=%zu bracket [%g, %g] around %g",
                          answer->k, answer->lower, answer->upper, answer->cost));
    }
    TenantBook& book = books_[t];
    if (samples != nullptr) {
      samples->query.push_back(seconds);
      samples->centers.push_back(seconds);
      ++samples->centers_answers;
      if (answer->epoch != book.last_centers_epoch) ++samples->centers_cold;
    }
    book.last_centers_epoch = answer->epoch;
    book.last_centers = answer->center_coords;
    if (ops_ <= kPrefixOps) {
      prefix_centers_cost_ += answer->cost;
      ++prefix_centers_;
    }
  }

  // QueryCandidateCost on a random candidate set, or QueryBracket on the
  // tenant's last served centers.
  void QueryCost(size_t t, Samples* samples, bool bracket) {
    std::vector<double> candidates = books_[t].last_centers;
    if (!bracket || candidates.empty()) {
      candidates.resize(kCenters * kDim);
      for (double& x : candidates) x = rng_.UniformDouble(0.0, 10.0);
    }
    const size_t count = candidates.size() / kDim;
    const Clock::time_point start = Clock::now();
    double cost = 0.0;
    ukc::Status status;
    if (bracket) {
      ukc::Result<ukc::serve::Tenant::BracketAnswer> answer =
          registry_.QueryBracket(TenantId(t), candidates, count, ukc::Deadline());
      if (samples != nullptr) samples->bracket.push_back(SecondsSince(start));
      status = answer.status();
      if (answer.ok()) {
        cost = answer->cost;
        if (!(answer->lower <= answer->cost && answer->cost <= answer->upper)) {
          Fail(ukc::StrFormat("QueryBracket: [%g, %g] does not hold %g",
                              answer->lower, answer->upper, answer->cost));
        }
      }
    } else {
      ukc::Result<ukc::serve::Tenant::CostAnswer> answer =
          registry_.QueryCandidateCost(TenantId(t), candidates, count,
                                       ukc::Deadline());
      if (samples != nullptr) {
        samples->candidate_cost.push_back(SecondsSince(start));
      }
      status = answer.status();
      if (answer.ok()) cost = answer->cost;
    }
    if (samples != nullptr) {
      samples->query.push_back(bracket ? samples->bracket.back()
                                       : samples->candidate_cost.back());
    }
    if (!status.ok()) {
      Fail(std::string(bracket ? "QueryBracket: " : "QueryCandidateCost: ") +
           status.ToString());
    } else if (!std::isfinite(cost) || cost < 0.0) {
      Fail(ukc::StrFormat("candidate cost %g is not a distance", cost));
    }
  }

  ukc::serve::TenantRegistry registry_;
  ukc::Rng rng_;
  RunResult* result_;
  TenantBook books_[kTenants];
  std::vector<PendingOp> pending_;
  uint64_t ops_ = 0;
  double prefix_centers_cost_ = 0.0;
  uint64_t prefix_centers_ = 0;
};

double P50Us(const std::vector<double>& seconds) {
  return Quantile(seconds, 0.5) * 1e6;
}

double P99Us(const std::vector<double>& seconds) {
  return Quantile(seconds, 0.99) * 1e6;
}

}  // namespace

RunResult RunServe(const RunContext& ctx) {
  RunResult result;

  // Set-up, repeated for a steady median: fresh registry, fresh
  // snapshot directory, warm every tenant. The storm runs on the last
  // client warmed before it.
  std::vector<double> setup_s;
  std::unique_ptr<Client> client;
  const auto warm_clients = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      client.reset();
      const std::filesystem::path snapshots =
          ctx.temp_dir / ukc::StrFormat("snapshots-%zu", setup_s.size());
      std::filesystem::create_directories(snapshots);
      const Clock::time_point start = Clock::now();
      client = std::make_unique<Client>(ctx, snapshots, &result);
      client->Warm();
      setup_s.push_back(SecondsSince(start));
    }
  };
  warm_clients(kSetupsPerSide);
  if (!result.correct) return result;

  // The storm: blocks of kBlockOps ops until the measured time is
  // spent and the deterministic prefix is complete. Traced, odd blocks
  // also time the submit calls; even blocks stay untraced for the
  // overhead comparison.
  Samples samples;
  std::vector<double> block_s;
  std::vector<double> traced_block_s;
  // Tail latencies per block, reported as the median block: a host
  // stall that hits a few blocks moves a pooled p99 several-fold but
  // leaves the median block's p99 in place.
  std::vector<double> block_query_p99;
  std::vector<double> block_ack_p99;
  const ukc::obs::RegistrySnapshot before = Snapshot();
  std::unique_ptr<ukc::obs::RegistrySnapshot> at_prefix;
  // Peak resident set over the deterministic prefix: later the client's
  // own sample buffers keep growing with the op count, which a faster
  // host raises.
  double peak = 0.0;
  double measured = 0.0;
  ResetPeakRss();
  for (size_t block = 0; measured < ctx.seconds || client->ops() < kPrefixOps;
       ++block) {
    const bool trace = ctx.trace && block % 2 == 1;
    const size_t queries_before = samples.query.size();
    const size_t acks_before = samples.ack.size();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < kBlockOps; ++i) client->Step(&samples, trace);
    const double elapsed = SecondsSince(start);
    measured += elapsed;
    (trace ? traced_block_s : block_s).push_back(elapsed);
    block_query_p99.push_back(
        Quantile({samples.query.begin() + queries_before, samples.query.end()},
                 0.99));
    block_ack_p99.push_back(
        Quantile({samples.ack.begin() + acks_before, samples.ack.end()}, 0.99));
    if (at_prefix == nullptr && client->ops() >= kPrefixOps) {
      peak = PeakRssMiB();
      at_prefix = std::make_unique<ukc::obs::RegistrySnapshot>(Snapshot());
    }
  }
  const uint64_t ops = client->ops();
  result.attempted = ops;

  const ukc::serve::ServeStats& stats = client->registry().stats();
  if (stats.appends_shed != 0 || stats.deletes_shed != 0) {
    result.Fail(ukc::StrFormat("%llu appends and %llu deletes were shed",
                               static_cast<unsigned long long>(stats.appends_shed),
                               static_cast<unsigned long long>(stats.deletes_shed)));
  }

  if (!ctx.trace) {
    const double prefix_cost = client->prefix_mean_centers_cost();
    std::fprintf(stderr, "serve: %zu query and %zu ack latency samples in %zu blocks\n",
                 samples.query.size(), samples.ack.size(), block_s.size());
    warm_clients(kSetupsPerSide);
    result.Add("wall_s", Median(block_s), "s");
    result.Add("ops_per_s", static_cast<double>(ops) / measured, "ops/s");
    result.Add("query_p50_us", P50Us(samples.query), "us");
    result.Add("query_p99_us", Median(block_query_p99) * 1e6, "us");
    result.Add("ack_p99_us", Median(block_ack_p99) * 1e6, "us");
    result.Add("expected_cost", prefix_cost, "cost");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", peak, "MiB");
    return result;
  }

  const RegistryDiff diff(before, *at_prefix);
  const char* appends = "ukc_serve_appends_total";
  const char* deletes = "ukc_serve_deletes_total";
  result.Add("serve.submit_p99_us", P99Us(samples.submit), "us");
  result.Add("serve.drain_p50_us", P50Us(samples.drain), "us");
  result.Add("serve.drain_p99_us", P99Us(samples.drain), "us");
  result.Add("serve.centers_p50_us", P50Us(samples.centers), "us");
  result.Add("serve.centers_p99_us", P99Us(samples.centers), "us");
  result.Add("serve.candidate_cost_p99_us", P99Us(samples.candidate_cost), "us");
  result.Add("serve.bracket_p99_us", P99Us(samples.bracket), "us");
  result.Add("serve.centers_cold_share",
             samples.centers_answers == 0
                 ? 0.0
                 : static_cast<double>(samples.centers_cold) /
                       static_cast<double>(samples.centers_answers),
             "fraction");
  result.Add("serve.restore_us", P50Us(samples.restore), "us");
  result.Add("serve.snapshots",
             static_cast<double>(diff.Counter("ukc_serve_snapshots_total",
                                              {{"outcome", "saved"}})),
             "count");
  result.Add("serve.points_expired",
             static_cast<double>(diff.Counter("ukc_serve_points_expired_total")),
             "count");
  result.Add("serve.deletes_applied",
             static_cast<double>(diff.Counter(deletes, {{"outcome", "applied"}})),
             "count");
  result.Add("serve.shed",
             static_cast<double>(diff.Counter(appends, {{"outcome", "shed"}}) +
                                 diff.Counter(deletes, {{"outcome", "shed"}})),
             "count");
  result.Add("bench.trace_overhead_frac",
             Median(traced_block_s) / Median(block_s) - 1.0, "fraction");
  return result;
}

}  // namespace e2e
