// Resilient serving core suite (serve/registry.h + serve/tenant.h).
//
// The properties under test, in rough order of load-bearing-ness:
//   1. Kill-and-restore is BITWISE: a replica restored from the
//      snapshot sidecar and caught up by replaying the acked suffix
//      answers every query bit-for-bit like the uninterrupted primary
//      — across seeds {0, 1, 2} × snapshot cadence {1, 7, 64}.
//   2. Chaos: >= 1000 mixed ops over >= 4 tenants under injected
//      faults end bitwise-equal to a fault-free replay of exactly the
//      acked appends (the all-or-nothing append contract).
//   3. Deadlines are deterministic (AfterChecks) and side-effect-free:
//      an expired query returns kDeadlineExceeded and changes nothing.
//   4. Overload sheds the newest submission with a marked
//      kUnavailable that the serve retry policy refuses to retry.
//   5. The watchdog degrades a failing tenant to stale-but-available
//      (reads from the last snapshot, writes refused) and recovers it
//      once the boundary heals.
//
// Extra chaos seeds sweep in from UKC_FAULTS (see the verify-faults
// target and docs/operations.md), mirroring the crash-recovery suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/uncertain_kcenter.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "serve/serve.h"
#include "serve/tenant.h"
#include "stream/coreset.h"
#include "uncertain/chunk.h"
#include "uncertain/dataset.h"

namespace ukc {
namespace {

using serve::RegistryOptions;
using serve::Tenant;
using serve::TenantConfig;
using serve::TenantRegistry;
using serve::TenantState;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A deterministic batch of n uncertain points in [-10, 10]^dim with
// 1..3 locations each. Batches depend only on the Rng state, so two
// registries fed from equal-seeded generators see equal streams.
uncertain::UncertainPointBatch MakeBatch(Rng& rng, size_t n, size_t dim) {
  uncertain::UncertainPointBatch batch;
  batch.dim = dim;
  batch.norm = metric::Norm::kL2;
  batch.offsets.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    const size_t locations = 1 + rng.Next() % 3;
    std::vector<double> weights(locations);
    double total = 0.0;
    for (double& w : weights) {
      w = rng.UniformDouble(0.1, 1.0);
      total += w;
    }
    for (size_t l = 0; l < locations; ++l) {
      for (size_t d = 0; d < dim; ++d) {
        batch.coords.push_back(rng.UniformDouble(-10.0, 10.0));
      }
      batch.probabilities.push_back(weights[l] / total);
    }
    batch.offsets.push_back(batch.offsets.back() + locations);
  }
  return batch;
}

TenantConfig BasicConfig(const std::string& snapshot_path = "",
                         uint64_t cadence = 16) {
  TenantConfig config;
  config.dim = 2;
  config.norm = metric::Norm::kL2;
  config.k = 3;
  config.coreset.max_cells = 32;
  config.coreset.base_cell_width = 1e-3;
  config.snapshot_path = snapshot_path;
  config.snapshot_every_appends = cadence;
  config.snapshot_sync = false;
  return config;
}

void ExpectCellsBitwiseEqual(
    const std::vector<stream::StreamingCoreset::Cell>& got,
    const std::vector<stream::StreamingCoreset::Cell>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].min_index, want[c].min_index);
    EXPECT_EQ(got[c].count, want[c].count);
    EXPECT_EQ(got[c].max_spread, want[c].max_spread);
    EXPECT_EQ(got[c].representative, want[c].representative);
  }
}

// Bitwise comparison of the full answer surface of two tenants
// (presumed replicas): cells, fingerprints, and all three query
// shapes. Candidate sets come from the centers answer itself, so both
// sides evaluate the same candidates.
void ExpectReplicasAnswerIdentically(TenantRegistry& a, TenantRegistry& b,
                                     const std::string& id) {
  Tenant* ta = a.FindTenant(id);
  Tenant* tb = b.FindTenant(id);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  EXPECT_EQ(ta->epoch(), tb->epoch());
  EXPECT_EQ(ta->next_index(), tb->next_index());
  EXPECT_EQ(ta->content_fingerprint(), tb->content_fingerprint());
  ExpectCellsBitwiseEqual(tb->ExtractCells(), ta->ExtractCells());

  auto centers_a = a.QueryCenters(id, Deadline());
  auto centers_b = b.QueryCenters(id, Deadline());
  ASSERT_TRUE(centers_a.ok()) << centers_a.status();
  ASSERT_TRUE(centers_b.ok()) << centers_b.status();
  EXPECT_EQ(centers_a->epoch, centers_b->epoch);
  EXPECT_EQ(centers_a->k, centers_b->k);
  EXPECT_EQ(centers_a->cost, centers_b->cost);
  EXPECT_EQ(centers_a->lower, centers_b->lower);
  EXPECT_EQ(centers_a->upper, centers_b->upper);
  EXPECT_EQ(centers_a->center_coords, centers_b->center_coords);

  if (centers_a->k == 0) return;
  auto bracket_a =
      a.QueryBracket(id, centers_a->center_coords, centers_a->k, Deadline());
  auto bracket_b =
      b.QueryBracket(id, centers_a->center_coords, centers_a->k, Deadline());
  ASSERT_TRUE(bracket_a.ok()) << bracket_a.status();
  ASSERT_TRUE(bracket_b.ok()) << bracket_b.status();
  EXPECT_EQ(bracket_a->cost, bracket_b->cost);
  EXPECT_EQ(bracket_a->error_bound, bracket_b->error_bound);
  EXPECT_EQ(bracket_a->lower, bracket_b->lower);
  EXPECT_EQ(bracket_a->upper, bracket_b->upper);
}

// Options that meter into `metrics`: stats() reads its counts out of
// the metrics registry, so a test that asserts exact counts gives its
// TenantRegistry a private one.
RegistryOptions PrivateMetrics(obs::MetricsRegistry* metrics) {
  RegistryOptions options;
  options.metrics = metrics;
  return options;
}

// --- Lifecycle and basic queries --------------------------------------------

TEST(ServeTest, LifecycleAppendDrainAndQuery) {
  obs::MetricsRegistry metrics;
  TenantRegistry registry(PrivateMetrics(&metrics));
  ASSERT_TRUE(registry.CreateTenant("alpha", BasicConfig()).ok());
  Rng rng(7);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  }
  EXPECT_EQ(registry.QueueDepth("alpha"), 6u);
  const serve::DrainResult drained = registry.Drain();
  EXPECT_EQ(drained.applied, 6u);
  EXPECT_EQ(drained.failed, 0u);
  EXPECT_EQ(registry.QueueDepth("alpha"), 0u);

  Tenant* tenant = registry.FindTenant("alpha");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->epoch(), 6u);
  EXPECT_EQ(tenant->next_index(), 24u);
  EXPECT_EQ(tenant->state(), TenantState::kLive);

  auto centers = registry.QueryCenters("alpha", Deadline());
  ASSERT_TRUE(centers.ok()) << centers.status();
  EXPECT_EQ(centers->epoch, 6u);
  EXPECT_FALSE(centers->stale);
  EXPECT_EQ(centers->k, 3u);
  EXPECT_GE(centers->cost, 0.0);
  EXPECT_LE(centers->lower, centers->cost);
  EXPECT_GE(centers->upper, centers->cost);

  // The candidate-cost query on the solved centers must reproduce the
  // solve's own cost: on certain representative cells the expected
  // distance IS the distance, and both paths scan cells in the same
  // fixed order.
  auto cost = registry.QueryCandidateCost("alpha", centers->center_coords,
                                          centers->k, Deadline());
  ASSERT_TRUE(cost.ok()) << cost.status();
  EXPECT_EQ(cost->cost, centers->cost);

  auto bracket = registry.QueryBracket("alpha", centers->center_coords,
                                       centers->k, Deadline());
  ASSERT_TRUE(bracket.ok()) << bracket.status();
  EXPECT_EQ(bracket->cost, centers->cost);
  EXPECT_EQ(bracket->lower, centers->lower);
  EXPECT_EQ(bracket->upper, centers->upper);

  EXPECT_EQ(registry.stats().appends_applied, 6u);
  EXPECT_EQ(registry.stats().queries_answered, 3u);
}

// The metrics registry is the one store of the serve counts: two
// TenantRegistry instances with private metrics registries count
// apart, and two that share one both report the sum.
TEST(ServeTest, StatsReadTheMetricsRegistryTheyWriteInto) {
  obs::MetricsRegistry metrics_a;
  obs::MetricsRegistry metrics_b;
  TenantRegistry a(PrivateMetrics(&metrics_a));
  TenantRegistry b(PrivateMetrics(&metrics_b));
  Rng rng(5);
  for (TenantRegistry* registry : {&a, &b}) {
    ASSERT_TRUE(registry->CreateTenant("alpha", BasicConfig()).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(a.SubmitAppend("alpha", MakeBatch(rng, 2, 2)).ok());
  }
  ASSERT_TRUE(b.SubmitAppend("alpha", MakeBatch(rng, 2, 2)).ok());
  a.Drain();
  b.Drain();
  EXPECT_EQ(a.stats().appends_submitted, 3u);
  EXPECT_EQ(a.stats().appends_applied, 3u);
  EXPECT_EQ(b.stats().appends_submitted, 1u);
  EXPECT_EQ(b.stats().appends_applied, 1u);
  EXPECT_EQ(a.QueryCenters("ghost", Deadline()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(a.stats().queries_failed, 1u);
  EXPECT_EQ(b.stats().queries_failed, 0u);

  obs::MetricsRegistry shared;
  TenantRegistry c(PrivateMetrics(&shared));
  TenantRegistry d(PrivateMetrics(&shared));
  ASSERT_TRUE(c.CreateTenant("alpha", BasicConfig()).ok());
  ASSERT_TRUE(d.CreateTenant("beta", BasicConfig()).ok());
  ASSERT_TRUE(c.SubmitAppend("alpha", MakeBatch(rng, 2, 2)).ok());
  ASSERT_TRUE(c.SubmitAppend("alpha", MakeBatch(rng, 2, 2)).ok());
  ASSERT_TRUE(d.SubmitAppend("beta", MakeBatch(rng, 2, 2)).ok());
  c.Drain();
  d.Drain();
  EXPECT_EQ(c.stats().appends_applied, 3u);
  EXPECT_EQ(d.stats().appends_applied, 3u);
  const obs::RegistrySnapshot snapshot = shared.Snapshot();
  const obs::MetricSnapshot* applied =
      snapshot.Find("ukc_serve_appends_total", {{"outcome", "applied"}});
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ(applied->counter_value, 3u);
}

TEST(ServeTest, RegistryValidatesTenantsAndRoutes) {
  TenantRegistry registry(RegistryOptions{});
  EXPECT_FALSE(registry.CreateTenant("", BasicConfig()).ok());
  TenantConfig zero_dim = BasicConfig();
  zero_dim.dim = 0;
  EXPECT_FALSE(registry.CreateTenant("bad", zero_dim).ok());
  ASSERT_TRUE(registry.CreateTenant("alpha", BasicConfig()).ok());
  EXPECT_FALSE(registry.CreateTenant("alpha", BasicConfig()).ok());

  Rng rng(1);
  EXPECT_EQ(registry.SubmitAppend("ghost", MakeBatch(rng, 2, 2)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.QueryCenters("ghost", Deadline()).status().code(),
            StatusCode::kNotFound);

  // A batch under the wrong norm is rejected at apply time, with the
  // tenant bitwise unchanged (the all-or-nothing contract).
  uncertain::UncertainPointBatch batch = MakeBatch(rng, 2, 2);
  batch.norm = metric::Norm::kL1;
  ASSERT_TRUE(registry.SubmitAppend("alpha", batch).ok());
  const uint64_t before = registry.FindTenant("alpha")->content_fingerprint();
  const serve::DrainResult drained = registry.Drain();
  EXPECT_EQ(drained.failed, 1u);
  EXPECT_EQ(drained.applied, 0u);
  EXPECT_EQ(registry.FindTenant("alpha")->content_fingerprint(), before);
  EXPECT_EQ(registry.FindTenant("alpha")->epoch(), 0u);
}

TEST(ServeTest, TenantsAreIsolated) {
  // Appends and failures on one tenant never move another tenant's
  // state: the isolation half of multi-tenancy.
  TenantRegistry registry(RegistryOptions{});
  ASSERT_TRUE(registry.CreateTenant("alpha", BasicConfig()).ok());
  ASSERT_TRUE(registry.CreateTenant("beta", BasicConfig()).ok());
  Rng rng(11);
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  registry.Drain();
  const uint64_t alpha_print =
      registry.FindTenant("alpha")->content_fingerprint();

  // Beta absorbs appends and a failing one; alpha must not move.
  uncertain::UncertainPointBatch bad = MakeBatch(rng, 2, 2);
  bad.norm = metric::Norm::kL1;
  ASSERT_TRUE(registry.SubmitAppend("beta", MakeBatch(rng, 4, 2)).ok());
  ASSERT_TRUE(registry.SubmitAppend("beta", bad).ok());
  registry.Drain();
  EXPECT_EQ(registry.FindTenant("alpha")->content_fingerprint(), alpha_print);
  EXPECT_EQ(registry.FindTenant("alpha")->epoch(), 1u);
  EXPECT_EQ(registry.FindTenant("beta")->epoch(), 1u);
}

// --- Deadlines --------------------------------------------------------------

TEST(ServeTest, ExpiredDeadlineRejectsEveryQueryShape) {
  obs::MetricsRegistry metrics;
  TenantRegistry registry(PrivateMetrics(&metrics));
  ASSERT_TRUE(registry.CreateTenant("alpha", BasicConfig()).ok());
  Rng rng(3);
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 8, 2)).ok());
  registry.Drain();

  const std::vector<double> candidates = {0.0, 0.0};
  EXPECT_EQ(registry.QueryCenters("alpha", Deadline::Expired()).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(registry.QueryCandidateCost("alpha", candidates, 1,
                                        Deadline::Expired())
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(
      registry.QueryBracket("alpha", candidates, 1, Deadline::Expired())
          .status()
          .code(),
      StatusCode::kDeadlineExceeded);
  EXPECT_EQ(registry.stats().queries_deadline_exceeded, 3u);
  EXPECT_EQ(registry.stats().queries_answered, 0u);

  // And the rejection is side-effect-free: the same queries under an
  // infinite deadline now succeed with live (non-stale) answers.
  auto centers = registry.QueryCenters("alpha", Deadline());
  ASSERT_TRUE(centers.ok()) << centers.status();
  EXPECT_FALSE(centers->stale);
}

TEST(ServeTest, CheckBudgetDeadlineExpiresMidSolveDeterministically) {
  // AfterChecks(n) expires at exactly the n-th deadline check,
  // independent of wall clock — the deterministic handle the tests and
  // the CLI's --deadline-checks flag use. With a budget of 2 the
  // centers query gets past its entry check and dies inside the solve,
  // on every run, at the same check site.
  TenantRegistry registry(RegistryOptions{});
  ASSERT_TRUE(registry.CreateTenant("alpha", BasicConfig()).ok());
  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 8, 2)).ok());
  }
  registry.Drain();

  for (int run = 0; run < 3; ++run) {
    auto rejected = registry.QueryCenters("alpha", Deadline::AfterChecks(2));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kDeadlineExceeded);
  }
  // A partial solve left nothing behind: the full query still answers
  // and equals a fresh replica's answer (asserted via cache bypass —
  // the failed attempts must not have populated the cache).
  auto centers = registry.QueryCenters("alpha", Deadline());
  ASSERT_TRUE(centers.ok()) << centers.status();
  EXPECT_EQ(centers->epoch, 4u);

  // A generous check budget sails through.
  auto fine = registry.QueryCenters("alpha", Deadline::AfterChecks(1 << 20));
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_EQ(fine->cost, centers->cost);
}

// --- Coreset-solve parity --------------------------------------------------

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

// The oracle of a cold QueryCenters: the extracted cells loaded as a
// certain dataset and solved by the general uncertain pipeline
// (expected-point surrogates, ED assignment, exact evaluator).
struct CentersOracle {
  size_t k = 0;
  std::vector<double> center_coords;
  double cost = 0.0;
};

CentersOracle SolveCellsThroughPipeline(
    const std::vector<stream::StreamingCoreset::Cell>& cells,
    const TenantConfig& config) {
  CentersOracle oracle;
  if (cells.empty()) return oracle;
  auto space = std::make_shared<metric::EuclideanSpace>(config.dim, config.norm);
  std::vector<uncertain::UncertainPoint> points;
  for (const stream::StreamingCoreset::Cell& cell : cells) {
    points.push_back(uncertain::UncertainPoint::Certain(
        space->AddCoords(cell.representative.data())));
  }
  auto dataset =
      std::move(uncertain::UncertainDataset::Build(space, std::move(points)))
          .value();
  core::UncertainKCenterOptions options;
  options.k = std::min(config.k, cells.size());
  options.rule = cost::AssignmentRule::kExpectedDistance;
  auto solution = std::move(core::SolveUncertainKCenter(&dataset, options))
                      .value();
  oracle.k = solution.centers.size();
  for (metric::SiteId center : solution.centers) {
    const double* coords = space->coords(center);
    oracle.center_coords.insert(oracle.center_coords.end(), coords,
                                coords + config.dim);
  }
  oracle.cost = solution.expected_cost;
  return oracle;
}

// The oracle of QueryCandidateCost: max over the extracted cells of the
// distance from the representative to its nearest candidate.
double CandidateCostOverCells(
    const std::vector<stream::StreamingCoreset::Cell>& cells,
    const std::vector<double>& candidates, size_t num_candidates,
    const TenantConfig& config) {
  double cost = 0.0;
  for (const stream::StreamingCoreset::Cell& cell : cells) {
    double nearest = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < num_candidates; ++c) {
      nearest = std::min(nearest, metric::NormDistanceKernel(
                                      config.norm, cell.representative.data(),
                                      candidates.data() + c * config.dim,
                                      config.dim));
    }
    cost = std::max(cost, nearest);
  }
  return cost;
}

TEST(ServeTest, ColdQueriesMatchThePipelineOracleOverChurn) {
  // A windowed tenant with deletes: every step appends or deletes, so
  // every centers query is cold. Its answer, and the candidate cost of
  // random and of its own centers, must equal the oracles bit for bit.
  TenantConfig config = BasicConfig();
  config.k = 4;
  config.window_points = 40;
  config.allow_deletes = true;
  Tenant tenant("alpha", config);
  Rng rng(61);
  std::vector<uncertain::UncertainPointBatch> acked;  // By stream index.
  std::vector<bool> deleted;
  for (int step = 0; step < 80; ++step) {
    SCOPED_TRACE(::testing::Message() << "step=" << step);
    if (step % 3 == 2) {
      // Delete a point inside the window (never expired yet).
      const uint64_t next = tenant.next_index();
      const uint64_t from = next > config.window_points
                                ? next - config.window_points
                                : 0;
      const uint64_t index = from + rng.Next() % (next - from);
      if (deleted[index]) continue;
      ASSERT_TRUE(tenant.Delete(index, acked[index]).ok());
      deleted[index] = true;
    } else {
      const size_t points = 1 + rng.Next() % 4;
      for (size_t p = 0; p < points; ++p) {
        acked.push_back(MakeBatch(rng, 1, config.dim));
        deleted.push_back(false);
        ASSERT_TRUE(tenant.Append(acked.back()).ok());
      }
    }
    const std::vector<stream::StreamingCoreset::Cell> cells =
        tenant.ExtractCells();
    auto centers = tenant.QueryCenters(Deadline());
    ASSERT_TRUE(centers.ok()) << centers.status();
    const CentersOracle oracle = SolveCellsThroughPipeline(cells, config);
    EXPECT_EQ(centers->k, oracle.k);
    EXPECT_EQ(Bits(centers->center_coords), Bits(oracle.center_coords));
    EXPECT_EQ(Bits({centers->cost}), Bits({oracle.cost}));
    if (centers->k == 0) continue;

    std::vector<double> random_candidates;
    for (size_t a = 0; a < 2 * config.dim; ++a) {
      random_candidates.push_back(rng.UniformDouble(-10.0, 10.0));
    }
    for (const auto& [candidates, count] :
         {std::pair{random_candidates, size_t{2}},
          std::pair{centers->center_coords, centers->k}}) {
      auto cost = tenant.QueryCandidateCost(candidates, count, Deadline());
      ASSERT_TRUE(cost.ok()) << cost.status();
      EXPECT_EQ(Bits({cost->cost}),
                Bits({CandidateCostOverCells(cells, candidates, count,
                                             config)}));
    }
  }
}

// --- Overload shedding ------------------------------------------------------

TEST(ServeTest, FullQueueShedsNewestWithMarkedUnavailable) {
  obs::MetricsRegistry metrics;
  RegistryOptions options = PrivateMetrics(&metrics);
  options.queue_capacity = 2;
  TenantRegistry registry(options);
  ASSERT_TRUE(registry.CreateTenant("alpha", BasicConfig()).ok());
  Rng rng(9);
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 2, 2)).ok());
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 2, 2)).ok());
  const Status shed = registry.SubmitAppend("alpha", MakeBatch(rng, 2, 2));
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(serve::IsShed(shed));
  EXPECT_TRUE(shed.IsTransientError());  // Transient-coded, yet marked.
  EXPECT_EQ(registry.stats().appends_shed, 1u);
  EXPECT_EQ(registry.QueueDepth("alpha"), 2u);

  // Drain relieves the pressure; the queue admits again.
  registry.Drain();
  EXPECT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 2, 2)).ok());
}

TEST(ServeTest, IsShedRequiresBothCodeAndMarker) {
  EXPECT_FALSE(serve::IsShed(Status::OK()));
  EXPECT_FALSE(serve::IsShed(Status::Unavailable("plain transient")));
  EXPECT_FALSE(serve::IsShed(
      Status::Internal(std::string(serve::kShedMessageMarker))));
  EXPECT_TRUE(serve::IsShed(serve::ShedStatus("queue full")));
}

TEST(ServeTest, TransientEnqueueFaultIsNotAShed) {
  // An injected enqueue fault carries the same kUnavailable code as a
  // shed but not its marker, so a client may resubmit it; the next
  // submission lands.
  obs::MetricsRegistry metrics;
  TenantRegistry registry(PrivateMetrics(&metrics));
  ASSERT_TRUE(registry.CreateTenant("alpha", BasicConfig()).ok());
  Rng rng(13);
  FaultPlan plan;
  plan.rules.push_back(
      FaultRule{"serve.enqueue", {0}, 0.0, StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);

  const Status faulted = registry.SubmitAppend("alpha", MakeBatch(rng, 2, 2));
  EXPECT_TRUE(faulted.IsTransientError());
  EXPECT_FALSE(serve::IsShed(faulted));
  EXPECT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 2, 2)).ok());
  EXPECT_EQ(registry.stats().enqueue_faults, 1u);
  EXPECT_EQ(registry.QueueDepth("alpha"), 1u);
}

// --- Watchdog: degrade, stale serving, recovery -----------------------------

TEST(ServeTest, WatchdogDegradesServesStaleAndRecovers) {
  const std::string path = TempPath("watchdog.ckpt");
  std::remove(path.c_str());
  obs::MetricsRegistry metrics;
  RegistryOptions options = PrivateMetrics(&metrics);
  options.degrade_after_failures = 3;
  TenantRegistry registry(options);
  ASSERT_TRUE(
      registry.CreateTenant("alpha", BasicConfig(path, /*cadence=*/1)).ok());
  Rng rng(17);

  // Seed some healthy state; cadence 1 means every ack snapshots.
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  registry.Drain();
  Tenant* tenant = registry.FindTenant("alpha");
  ASSERT_EQ(tenant->epoch(), 2u);
  ASSERT_EQ(tenant->stable_epoch(), 2u);
  auto healthy = registry.QueryCenters("alpha", Deadline());
  ASSERT_TRUE(healthy.ok()) << healthy.status();

  {
    // Every append now fails at the serve.append boundary: three
    // consecutive failures trip the watchdog.
    FaultPlan plan;
    plan.rules.push_back(
        FaultRule{"serve.append", {}, 1.0, StatusCode::kInternal, 0});
    ScopedFaultInjection scope(plan);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
    }
    const serve::DrainResult drained = registry.Drain();
    EXPECT_EQ(drained.failed, 3u);
    EXPECT_EQ(drained.degraded, 1u);
    EXPECT_EQ(tenant->state(), TenantState::kDegraded);

    // Degraded: writes refused outright at submission...
    const Status refused = registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2));
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
    EXPECT_FALSE(refused.IsTransientError());

    // ...while queries stay available, served STALE from the last
    // snapshot and flagged as such.
    auto stale = registry.QueryCenters("alpha", Deadline());
    ASSERT_TRUE(stale.ok()) << stale.status();
    EXPECT_TRUE(stale->stale);
    EXPECT_EQ(stale->epoch, 2u);
    EXPECT_EQ(stale->cost, healthy->cost);
    EXPECT_EQ(stale->center_coords, healthy->center_coords);

    // While the boundary still fails... the recovery probe targets
    // serve.snapshot, which this plan leaves healthy, so the NEXT
    // drain recovers (append and snapshot are distinct boundaries).
  }

  // Fault cleared: the next Drain's recovery probe snapshots
  // successfully and revives the tenant.
  const serve::DrainResult recovered = registry.Drain();
  EXPECT_EQ(recovered.recovered, 1u);
  EXPECT_EQ(tenant->state(), TenantState::kLive);
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  EXPECT_EQ(registry.Drain().applied, 1u);
  EXPECT_EQ(tenant->epoch(), 3u);
  auto live_again = registry.QueryCenters("alpha", Deadline());
  ASSERT_TRUE(live_again.ok()) << live_again.status();
  EXPECT_FALSE(live_again->stale);
  EXPECT_EQ(registry.stats().degrade_events, 1u);
  EXPECT_EQ(registry.stats().recover_events, 1u);
}

TEST(ServeTest, FailingSnapshotBoundaryKeepsTenantDegraded) {
  const std::string path = TempPath("snap_fail.ckpt");
  std::remove(path.c_str());
  RegistryOptions options;
  options.degrade_after_failures = 2;
  TenantRegistry registry(options);
  ASSERT_TRUE(
      registry.CreateTenant("alpha", BasicConfig(path, /*cadence=*/1)).ok());
  Rng rng(19);
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  registry.Drain();  // Healthy snapshot at epoch 1.

  FaultPlan plan;
  plan.rules.push_back(
      FaultRule{"serve.snapshot", {}, 1.0, StatusCode::kUnavailable, 0});
  ScopedFaultInjection scope(plan);

  // Two acked appends whose cadence snapshots both fail: appends land
  // (epoch moves) but the watchdog degrades on the snapshot boundary.
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  const serve::DrainResult drained = registry.Drain();
  EXPECT_EQ(drained.applied, 2u);
  EXPECT_EQ(drained.degraded, 1u);
  Tenant* tenant = registry.FindTenant("alpha");
  EXPECT_EQ(tenant->state(), TenantState::kDegraded);
  EXPECT_EQ(tenant->epoch(), 3u);
  EXPECT_EQ(tenant->stable_epoch(), 1u);

  // The recovery probe hits the same failing boundary: still degraded,
  // still serving the stale epoch.
  EXPECT_EQ(registry.Drain().recovered, 0u);
  EXPECT_EQ(tenant->state(), TenantState::kDegraded);
  auto stale = registry.QueryCenters("alpha", Deadline());
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_TRUE(stale->stale);
  EXPECT_EQ(stale->epoch, 1u);
}

// --- Kill-and-restore: the bitwise failover sweep ---------------------------

// Runs one primary for `total_batches` acked appends (snapshot cadence
// `cadence`, batches drawn from `seed`), kills it, rebuilds a replica
// from the sidecar, replays the acked suffix from the outbox, and
// requires the replica to answer bitwise-identically. Returns the
// epoch the replica restored to (to assert the sweep exercised real
// rollback).
uint64_t KillRestoreReplayOnce(uint64_t cadence, uint64_t seed) {
  const std::string path = TempPath("kill_restore.ckpt");
  std::remove(path.c_str());
  const TenantConfig config = BasicConfig(path, cadence);
  constexpr uint64_t kBatches = 24;

  RegistryOptions options;
  TenantRegistry primary(options);
  EXPECT_TRUE(primary.CreateTenant("alpha", config).ok());
  Rng rng(seed);
  std::vector<uncertain::UncertainPointBatch> outbox;
  for (uint64_t b = 0; b < kBatches; ++b) {
    outbox.push_back(MakeBatch(rng, 3, 2));
    EXPECT_TRUE(primary.SubmitAppend("alpha", outbox.back()).ok());
    primary.Drain();  // Ack + cadence snapshot.
  }
  EXPECT_EQ(primary.FindTenant("alpha")->epoch(), kBatches);

  // "Kill": the primary object stays alive only as the answer oracle;
  // the replica starts from nothing but the sidecar + the outbox.
  TenantRegistry replica(options);
  EXPECT_TRUE(replica.CreateTenant("alpha", config).ok());
  uint64_t restored_epoch = 0;
  const Status restored = replica.RestoreTenant("alpha", &restored_epoch);
  if (cadence > kBatches) {
    // The cadence never fired, so no sidecar exists: failover
    // degrades to a clean cold start over the full outbox.
    EXPECT_FALSE(restored.ok());
    restored_epoch = 0;
  } else {
    EXPECT_TRUE(restored.ok()) << restored;
    EXPECT_EQ(restored_epoch, kBatches - kBatches % cadence);
  }
  // Replay the acked suffix.
  for (uint64_t b = restored_epoch; b < kBatches; ++b) {
    EXPECT_TRUE(replica.SubmitAppend("alpha", outbox[b]).ok());
  }
  replica.Drain();
  ExpectReplicasAnswerIdentically(primary, replica, "alpha");
  return restored_epoch;
}

TEST(ServeTest, KillAndRestoreIsBitwiseAcrossSeedsAndCadences) {
  size_t combo = 0;
  size_t rolled_back = 0;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t cadence : {uint64_t{1}, uint64_t{7}, uint64_t{64}}) {
      SCOPED_TRACE(::testing::Message()
                   << "round=" << round << " cadence=" << cadence);
      const uint64_t restored_epoch =
          KillRestoreReplayOnce(cadence, 0x5eed ^ combo);
      ++combo;
      if (restored_epoch < 24) ++rolled_back;
    }
  }
  // Cadences 7 and 64 leave the sidecar behind the head, so the sweep
  // must have exercised genuine rollback-and-replay, not just reload.
  EXPECT_GE(rolled_back, 6u);
}

// --- Snapshot-cadence edge cases --------------------------------------------

TEST(ServeTest, SnapshotWithPendingAppendsRestoresToSnapshotEpochOnly) {
  // A snapshot races queued-but-unacked appends: the sidecar must
  // reflect exactly the acked prefix, never queued work. Restore rolls
  // to the snapshot epoch; replaying the suffix reconverges bitwise.
  const std::string path = TempPath("pending.ckpt");
  std::remove(path.c_str());
  const TenantConfig config = BasicConfig(path, /*cadence=*/3);
  TenantRegistry registry(RegistryOptions{});
  ASSERT_TRUE(registry.CreateTenant("alpha", config).ok());
  Rng rng(29);
  std::vector<uncertain::UncertainPointBatch> outbox;
  for (int i = 0; i < 5; ++i) outbox.push_back(MakeBatch(rng, 3, 2));
  for (const auto& batch : outbox) {
    ASSERT_TRUE(registry.SubmitAppend("alpha", batch).ok());
  }
  registry.Drain();  // Acks all 5; the cadence snapshot fired at epoch 3.
  Tenant* tenant = registry.FindTenant("alpha");
  ASSERT_EQ(tenant->epoch(), 5u);
  ASSERT_EQ(tenant->stable_epoch(), 3u);

  TenantRegistry replica(RegistryOptions{});
  ASSERT_TRUE(replica.CreateTenant("alpha", config).ok());
  uint64_t restored_epoch = 0;
  ASSERT_TRUE(replica.RestoreTenant("alpha", &restored_epoch).ok());
  EXPECT_EQ(restored_epoch, 3u);
  for (uint64_t b = restored_epoch; b < outbox.size(); ++b) {
    ASSERT_TRUE(replica.SubmitAppend("alpha", outbox[b]).ok());
  }
  replica.Drain();
  ExpectReplicasAnswerIdentically(registry, replica, "alpha");
}

TEST(ServeTest, RestoreInvalidatesInFlightQueryCache) {
  // A query answered just before a restore must not leak its cached
  // answer past the rollback: the post-restore answer reflects the
  // restored epoch.
  const std::string path = TempPath("cache_restore.ckpt");
  std::remove(path.c_str());
  const TenantConfig config = BasicConfig(path, /*cadence=*/2);
  TenantRegistry registry(RegistryOptions{});
  ASSERT_TRUE(registry.CreateTenant("alpha", config).ok());
  Rng rng(31);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  }
  registry.Drain();  // Epoch 3; snapshot at epoch 2.
  auto head = registry.QueryCenters("alpha", Deadline());
  ASSERT_TRUE(head.ok()) << head.status();
  ASSERT_EQ(head->epoch, 3u);

  uint64_t restored_epoch = 0;
  ASSERT_TRUE(registry.RestoreTenant("alpha", &restored_epoch).ok());
  ASSERT_EQ(restored_epoch, 2u);
  auto rolled = registry.QueryCenters("alpha", Deadline());
  ASSERT_TRUE(rolled.ok()) << rolled.status();
  EXPECT_EQ(rolled->epoch, 2u);  // Not the cached epoch-3 answer.
}

TEST(ServeTest, RestoreRevivesADegradedTenant) {
  const std::string path = TempPath("degraded_restore.ckpt");
  std::remove(path.c_str());
  RegistryOptions options;
  options.degrade_after_failures = 1;
  TenantRegistry registry(options);
  ASSERT_TRUE(
      registry.CreateTenant("alpha", BasicConfig(path, /*cadence=*/1)).ok());
  Rng rng(37);
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  registry.Drain();

  {
    FaultPlan plan;
    plan.rules.push_back(
        FaultRule{"serve.append", {}, 1.0, StatusCode::kInternal, 0});
    ScopedFaultInjection scope(plan);
    ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
    registry.Drain();
  }
  Tenant* tenant = registry.FindTenant("alpha");
  ASSERT_EQ(tenant->state(), TenantState::kDegraded);

  // Failover instead of waiting for the watchdog: restore clears the
  // degraded state AND the failure accounting in one stroke.
  uint64_t restored_epoch = 0;
  ASSERT_TRUE(registry.RestoreTenant("alpha", &restored_epoch).ok());
  EXPECT_EQ(restored_epoch, 1u);
  EXPECT_EQ(tenant->state(), TenantState::kLive);
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  EXPECT_EQ(registry.Drain().applied, 1u);
  EXPECT_EQ(tenant->epoch(), 2u);
}

TEST(ServeTest, RestoreRejectsConfigMismatchAndMissingSidecar) {
  const std::string path = TempPath("mismatch_serve.ckpt");
  std::remove(path.c_str());
  TenantRegistry registry(RegistryOptions{});
  ASSERT_TRUE(
      registry.CreateTenant("alpha", BasicConfig(path, /*cadence=*/1)).ok());
  // No sidecar yet: restore must fail cleanly.
  EXPECT_FALSE(registry.RestoreTenant("alpha", nullptr).ok());

  Rng rng(41);
  ASSERT_TRUE(registry.SubmitAppend("alpha", MakeBatch(rng, 4, 2)).ok());
  registry.Drain();

  // Same sidecar, different k: the config fingerprint gates the
  // restore (a snapshot from another configuration must never be
  // silently served).
  TenantConfig other = BasicConfig(path, /*cadence=*/1);
  other.k = 7;
  TenantRegistry imposter(RegistryOptions{});
  ASSERT_TRUE(imposter.CreateTenant("alpha", other).ok());
  const Status rejected = imposter.RestoreTenant("alpha", nullptr);
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(imposter.FindTenant("alpha")->epoch(), 0u);
}

// --- Chaos: mixed ops, many tenants, injected faults ------------------------

// One chaos round: >= `num_ops` mixed operations over `kTenants`
// tenants with faults injected at the enqueue, snapshot and restore
// boundaries (append faults are exercised by the targeted tests; the
// chaos plan keeps them out so the acked set stays observable as a
// per-drain prefix — see the watchdog analysis in the drain loop).
// After the storm, every tenant must be bitwise-equal to a fault-free
// replay of exactly its acked appends, and the exported metrics
// snapshot must match the observed event counts exactly. When
// `counter_digest` is non-null it receives a canonical dump of every
// counter series (name, labels, value) so callers can assert the
// export is identical across runs.
void ChaosRound(uint64_t seed, size_t num_ops,
                std::string* counter_digest = nullptr) {
  constexpr size_t kTenants = 4;
  obs::MetricsRegistry chaos_metrics;
  RegistryOptions options;
  options.queue_capacity = 4;
  options.degrade_after_failures = 2;
  options.metrics = &chaos_metrics;
  // Measure every query: the bar below asserts the latency series
  // holds one observation per query routed to a tenant.
  options.latency_sample_every = 1;
  TenantRegistry registry(options);

  std::vector<std::string> ids;
  std::vector<TenantConfig> configs;
  for (size_t t = 0; t < kTenants; ++t) {
    const std::string id = "tenant-" + std::to_string(t);
    TenantConfig config = BasicConfig(
        TempPath("chaos_" + std::to_string(seed) + "_" + id + ".ckpt"),
        /*cadence=*/1 + t);  // Mixed cadences across tenants.
    config.k = 2 + t % 3;
    std::remove(config.snapshot_path.c_str());
    EXPECT_TRUE(registry.CreateTenant(id, config).ok());
    ids.push_back(id);
    configs.push_back(config);
  }

  // Per-tenant mirror of the registry queue (batches admitted but not
  // yet drained) and the authoritative acked log the reference replay
  // uses. Invariant exploited: with serve.append excluded from the
  // plan, the acked subset of one drain is always a PREFIX of the
  // queue — mid-drain failures only come from the snapshot boundary,
  // whose degrade refuses everything after it.
  std::vector<std::vector<uncertain::UncertainPointBatch>> pending(kTenants);
  std::vector<std::vector<uncertain::UncertainPointBatch>> acked(kTenants);

  FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back(
      FaultRule{"serve.enqueue", {}, 0.05, StatusCode::kUnavailable, 0});
  plan.rules.push_back(
      FaultRule{"serve.snapshot", {}, 0.10, StatusCode::kUnavailable, 0});
  plan.rules.push_back(
      FaultRule{"serve.restore", {}, 0.10, StatusCode::kUnavailable, 0});
  plan.rules.push_back(
      FaultRule{"checkpoint.write", {}, 0.05, StatusCode::kUnavailable, 0});

  Rng rng(seed);
  size_t deadline_hits = 0;
  size_t sheds = 0;
  size_t restores = 0;
  size_t ops = 0;
  {
    ScopedFaultInjection scope(plan);
    while (ops < num_ops) {
      const size_t t = rng.Next() % kTenants;
      const uint64_t dice = rng.Next() % 100;
      ++ops;
      if (dice < 55) {
        // Submit: mirror the queue only on an OK admission.
        uncertain::UncertainPointBatch batch =
            MakeBatch(rng, 1 + rng.Next() % 4, 2);
        const Status admitted = registry.SubmitAppend(ids[t], batch);
        if (admitted.ok()) {
          pending[t].push_back(std::move(batch));
        } else if (serve::IsShed(admitted)) {
          ++sheds;
        }
      } else if (dice < 75) {
        // Drain: the acked subset of each tenant's queue is the first
        // (epoch delta) entries of the mirror; the rest were refused.
        std::vector<uint64_t> before(kTenants);
        for (size_t i = 0; i < kTenants; ++i) {
          before[i] = registry.FindTenant(ids[i])->epoch();
        }
        registry.Drain();
        for (size_t i = 0; i < kTenants; ++i) {
          const uint64_t delta =
              registry.FindTenant(ids[i])->epoch() - before[i];
          ASSERT_LE(delta, pending[i].size());
          for (uint64_t a = 0; a < delta; ++a) {
            acked[i].push_back(std::move(pending[i][a]));
          }
          pending[i].clear();
        }
      } else if (dice < 95) {
        // Query with an occasional tight (deterministic) deadline.
        const Deadline deadline = (dice % 5 == 0)
                                      ? Deadline::AfterChecks(2)
                                      : Deadline();
        const uint64_t shape = rng.Next() % 3;
        if (shape == 0) {
          auto answer = registry.QueryCenters(ids[t], deadline);
          if (!answer.ok()) {
            ASSERT_EQ(answer.status().code(),
                      StatusCode::kDeadlineExceeded);
            ++deadline_hits;
          }
        } else {
          const std::vector<double> candidates = {
              rng.UniformDouble(-10.0, 10.0), rng.UniformDouble(-10.0, 10.0)};
          auto answer =
              shape == 1
                  ? registry
                        .QueryCandidateCost(ids[t], candidates, 1, deadline)
                        .status()
                  : registry.QueryBracket(ids[t], candidates, 1, deadline)
                        .status();
          if (!answer.ok()) {
            ASSERT_EQ(answer.code(), StatusCode::kDeadlineExceeded);
            ++deadline_hits;
          }
        }
      } else {
        // Failover: a successful restore rolls the tenant back to a
        // prefix of its acked log and forgets its queue.
        uint64_t restored_epoch = 0;
        const Status restored =
            registry.RestoreTenant(ids[t], &restored_epoch);
        if (restored.ok()) {
          ++restores;
          ASSERT_LE(restored_epoch, acked[t].size());
          acked[t].resize(restored_epoch);
          pending[t].clear();
        }
      }
    }
    // Final settle inside the fault scope still counts as chaos.
    std::vector<uint64_t> before(kTenants);
    for (size_t i = 0; i < kTenants; ++i) {
      before[i] = registry.FindTenant(ids[i])->epoch();
    }
    registry.Drain();
    for (size_t i = 0; i < kTenants; ++i) {
      const uint64_t delta = registry.FindTenant(ids[i])->epoch() - before[i];
      ASSERT_LE(delta, pending[i].size());
      for (uint64_t a = 0; a < delta; ++a) {
        acked[i].push_back(std::move(pending[i][a]));
      }
      pending[i].clear();
    }
  }

  // The verdict: each tenant bitwise-equals a fault-free replay of
  // exactly its acked appends into a fresh tenant.
  TenantRegistry reference(RegistryOptions{});
  for (size_t t = 0; t < kTenants; ++t) {
    TenantConfig config = configs[t];
    config.snapshot_path.clear();  // The replay needs no sidecar.
    ASSERT_TRUE(reference.CreateTenant(ids[t], config).ok());
    Tenant* replayed = reference.FindTenant(ids[t]);
    for (const auto& batch : acked[t]) {
      ASSERT_TRUE(replayed->Append(batch).ok());
    }
    Tenant* chaotic = registry.FindTenant(ids[t]);
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " tenant=" << ids[t]
                 << " acked=" << acked[t].size()
                 << " state=" << serve::TenantStateToString(chaotic->state()));
    EXPECT_EQ(chaotic->epoch(), acked[t].size());
    EXPECT_EQ(chaotic->content_fingerprint(),
              replayed->content_fingerprint());
    // Compare LIVE cells (a degraded tenant's ExtractCells serves the
    // stale snapshot; the live coreset must still match the replay).
    chaotic->MarkLive();
    ExpectCellsBitwiseEqual(chaotic->ExtractCells(),
                            replayed->ExtractCells());
  }
  // The storm must have actually stormed.
  const serve::ServeStats stats = registry.stats();
  EXPECT_GE(ops, num_ops);
  EXPECT_GT(stats.appends_applied, 0u);
  EXPECT_GT(stats.queries_answered, 0u);
  EXPECT_GT(stats.enqueue_faults + stats.snapshot_failures +
                stats.append_failures,
            0u);

  // The observability bar: the exported counters match the event
  // counts this test observed from the outside (sheds, deadline hits,
  // restores).
  const obs::RegistrySnapshot snapshot = chaos_metrics.Snapshot();
  const auto counter = [&snapshot](const char* name, const char* key,
                                   const char* value) -> uint64_t {
    const obs::MetricSnapshot* series = snapshot.Find(name, {{key, value}});
    return series == nullptr ? 0u : series->counter_value;
  };
  EXPECT_EQ(counter("ukc_serve_appends_total", "outcome", "shed"), sheds);
  EXPECT_EQ(
      counter("ukc_serve_tenant_events_total", "event", "failover_restore"),
      restores);
  EXPECT_EQ(
      counter("ukc_serve_queries_total", "outcome", "deadline_exceeded"),
      deadline_hits);
  // Every query that reached a tenant landed in a latency histogram
  // (deadline-burners included — they must show in the tail).
  EXPECT_EQ(snapshot.HistogramTotal("ukc_serve_query_seconds").count,
            stats.queries_answered + stats.queries_deadline_exceeded +
                stats.queries_failed);
  if (counter_digest != nullptr) {
    std::string digest;
    for (const obs::MetricSnapshot& series : snapshot.metrics) {
      if (series.type != obs::MetricType::kCounter) continue;
      digest += series.name;
      for (const auto& label : series.labels) {
        digest += "{" + label.first + "=" + label.second + "}";
      }
      digest += "=" + std::to_string(series.counter_value) + "\n";
    }
    *counter_digest = digest;
  }
}

TEST(ServeTest, ChaosStormEndsBitwiseEqualToFaultFreeReplay) {
  ChaosRound(/*seed=*/0xbadcafe, /*num_ops=*/1200);
}

TEST(ServeTest, ChaosMetricsSnapshotDeterministicAcrossRuns) {
  // The same storm replayed into fresh metrics registries exports the
  // SAME counter values series-for-series: the op sequence is
  // deterministic, so nothing run-dependent can leak into the snapshot.
  std::string reference;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(::testing::Message() << "run=" << run);
    std::string digest;
    ChaosRound(/*seed=*/0xbadcafe, /*num_ops=*/400, &digest);
    EXPECT_FALSE(digest.empty());
    if (reference.empty()) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference);
    }
  }
}

TEST(ServeTest, ChaosSeedSweepFromEnvironment) {
  // Default seeds plus whatever CI passes via UKC_FAULTS — the same
  // widening knob the crash-recovery suite uses.
  std::vector<uint64_t> seeds = {7, 5309};
  for (uint64_t seed : FaultSeedsFromEnv()) seeds.push_back(seed);
  for (uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    ChaosRound(Mix64(seed), /*num_ops=*/300);
  }
}

}  // namespace
}  // namespace ukc
