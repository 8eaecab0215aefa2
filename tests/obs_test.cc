// Observability core (src/obs/): registry get-or-create identity,
// counter/gauge/histogram semantics, deterministic multi-threaded
// snapshots, quantile extraction, Prometheus/JSON export shape, and
// the span path stack. Those tests run against private registries so
// counts are exact regardless of what other tests metered into the
// process-wide default. The last suite is the one that uses the
// default registry: it proves no answer of the library reads a metric.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/unassigned.h"
#include "exper/instances.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "stream/pipeline.h"
#include "uncertain/chunk.h"

namespace ukc {
namespace obs {
namespace {

TEST(MetricsRegistryTest, GetOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ukc_test_total", "help", {{"k", "v"}});
  Counter* b = registry.GetCounter("ukc_test_total", "ignored", {{"k", "v"}});
  EXPECT_EQ(a, b);
  // Label order does not split the metric.
  Counter* c = registry.GetCounter("ukc_test_multi", "",
                                   {{"b", "2"}, {"a", "1"}});
  Counter* d = registry.GetCounter("ukc_test_multi", "",
                                   {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(c, d);
  // A different label VALUE is a different series.
  Counter* e = registry.GetCounter("ukc_test_total", "", {{"k", "other"}});
  EXPECT_NE(a, e);
  EXPECT_EQ(registry.NumMetrics(), 3u);
}

TEST(MetricsRegistryTest, CounterAndGaugeValues) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("ukc_c_total");
  Gauge* gauge = registry.GetGauge("ukc_g");
  counter->Increment();
  counter->Add(41);
  gauge->Set(7);
  gauge->Add(-3);
  EXPECT_EQ(counter->Value(), 42u);
  EXPECT_EQ(gauge->Value(), 4);

  const RegistrySnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 2u);
  EXPECT_EQ(snapshot.metrics[0].counter_value, 42u);
  EXPECT_EQ(snapshot.metrics[1].gauge_value, 4);
  EXPECT_EQ(snapshot.CounterTotal("ukc_c_total"), 42u);

  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(gauge->Value(), 0);
}

TEST(MetricsRegistryTest, HistogramCountsSumAndQuantiles) {
  MetricsRegistry registry;
  // Bounds 1, 2, 4, 8: values land by upper_bound (value <= bound).
  Histogram* h = registry.GetHistogram("ukc_h_seconds", "", {},
                                       ExponentialBuckets(1.0, 2.0, 4));
  for (int i = 0; i < 100; ++i) h->Observe(1.5);  // Bucket (1, 2].
  h->Observe(100.0);                              // Overflow bucket.

  const HistogramSnapshot snapshot = h->Snapshot();
  ASSERT_EQ(snapshot.bounds.size(), 4u);
  ASSERT_EQ(snapshot.counts.size(), 5u);
  EXPECT_EQ(snapshot.counts[1], 100u);
  EXPECT_EQ(snapshot.counts[4], 1u);
  EXPECT_EQ(snapshot.count, 101u);
  EXPECT_NEAR(snapshot.sum, 100 * 1.5 + 100.0, 1e-6);
  // p50 interpolates inside (1, 2]; the overflow bucket reports its
  // lower bound (the last finite bound).
  const double p50 = snapshot.Quantile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(1.0), 8.0);
  EXPECT_NEAR(snapshot.Mean(), (100 * 1.5 + 100.0) / 101.0, 1e-9);
  // Empty histograms answer 0 everywhere.
  EXPECT_EQ(HistogramSnapshot{}.Quantile(0.5), 0.0);
}

// A quantile landing in the +Inf overflow bucket is a LOWER BOUND, not
// an estimate: Quantile sets the overflow flag, and ExportJson marks
// the quantile with a "<q>_lower_bound" field so dashboards can render
// "p99 >= X" instead of a silently wrong point estimate.
TEST(MetricsRegistryTest, OverflowQuantilesAreFlaggedAsLowerBounds) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("ukc_over_seconds", "", {},
                                       ExponentialBuckets(1.0, 2.0, 4));
  // Half the mass in (1, 2], half past the last finite bound (8): p50
  // interpolates normally, p95/p99 land in the overflow bucket.
  for (int i = 0; i < 50; ++i) h->Observe(1.5);
  for (int i = 0; i < 50; ++i) h->Observe(100.0);
  const HistogramSnapshot snapshot = h->Snapshot();

  bool overflow = true;
  const double p50 = snapshot.Quantile(0.5, &overflow);
  EXPECT_FALSE(overflow);  // The flag is cleared, not just left alone.
  EXPECT_LE(p50, 2.0);
  const double p99 = snapshot.Quantile(0.99, &overflow);
  EXPECT_TRUE(overflow);
  EXPECT_DOUBLE_EQ(p99, 8.0);  // The last finite bound, never +Inf.
  // The flag is optional — a null out-param must not crash.
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.99), 8.0);

  const std::string json = registry.ExportJson();
  EXPECT_EQ(json.find("\"p50_lower_bound\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_lower_bound\":true"), std::string::npos);
}

// The determinism contract: the merged snapshot depends only on the
// multiset of observed events, not on which thread observed which —
// integer bucket counts and the fixed-point sum are commutative.
TEST(MetricsRegistryTest, SnapshotDeterministicAcrossThreadCounts) {
  RegistrySnapshot reference;
  for (const int threads : {1, 2, 8}) {
    MetricsRegistry registry;
    Counter* counter = registry.GetCounter("ukc_det_total");
    Histogram* h = registry.GetHistogram("ukc_det_seconds");
    ThreadPool pool(threads);
    pool.ParallelFor(4096, [&](int, size_t i) {
      counter->Increment();
      h->Observe(1e-6 * static_cast<double>(i % 32 + 1));
    });
    const RegistrySnapshot snapshot = registry.Snapshot();
    EXPECT_EQ(snapshot.CounterTotal("ukc_det_total"), 4096u);
    if (reference.metrics.empty()) {
      reference = snapshot;
      continue;
    }
    ASSERT_EQ(snapshot.metrics.size(), reference.metrics.size());
    const HistogramSnapshot& got = snapshot.metrics[1].histogram;
    const HistogramSnapshot& want = reference.metrics[1].histogram;
    EXPECT_EQ(got.counts, want.counts) << "threads=" << threads;
    EXPECT_EQ(got.count, want.count);
    // Fixed-point accumulation: the sum is bitwise identical too.
    EXPECT_EQ(got.sum, want.sum) << "threads=" << threads;
  }
}

TEST(MetricsRegistryTest, PrometheusExportShape) {
  MetricsRegistry registry;
  registry.GetCounter("ukc_x_total", "counts x", {{"site", "a"}})->Add(3);
  registry
      .GetHistogram("ukc_y_seconds", "times y", {},
                    ExponentialBuckets(1.0, 2.0, 2))
      ->Observe(1.5);
  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("# TYPE ukc_x_total counter"), std::string::npos);
  EXPECT_NE(text.find("ukc_x_total{site=\"a\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ukc_y_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("ukc_y_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ukc_y_seconds_count 1"), std::string::npos);

  const std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"ukc_x_total\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(TraceSpanTest, NestedSpansBuildDottedPaths) {
  MetricsRegistry registry;
  EXPECT_EQ(TraceSpan::CurrentPath(), "");
  {
    TraceSpan outer("solve", &registry);
    EXPECT_EQ(TraceSpan::CurrentPath(), "solve");
    {
      TraceSpan inner("sweep", &registry);
      EXPECT_EQ(TraceSpan::CurrentPath(), "solve.sweep");
    }
    EXPECT_EQ(TraceSpan::CurrentPath(), "solve");
  }
  EXPECT_EQ(TraceSpan::CurrentPath(), "");
  const RegistrySnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterTotal("ukc_span_total"), 2u);
  const MetricSnapshot* inner_series =
      snapshot.Find("ukc_span_seconds", {{"span", "solve.sweep"}});
  ASSERT_NE(inner_series, nullptr);
  EXPECT_EQ(inner_series->histogram.count, 1u);
}

TEST(ScopedTimerTest, ObservesOnceAndCancelDetaches) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("ukc_t_seconds");
  { ScopedTimer timer(h); }
  {
    ScopedTimer timer(h);
    timer.Cancel();
  }
  { ScopedTimer timer(nullptr); }  // Measure-only: must not crash.
  EXPECT_EQ(h->Snapshot().count, 1u);
}

// --- Answers never read the registry ----------------------------------------
//
// Metrics live outside every correctness decision (see metrics.h). Three
// workloads run on a zeroed default registry and again after every
// registered counter and gauge was pushed up by 2^40 and every histogram
// got an observation in its overflow bucket. Centers, costs, brackets
// and the serve tenant's coreset image must be bitwise equal.

uncertain::UncertainDataset SmallInstance(uint64_t seed) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = 60;
  spec.z = 3;
  spec.dim = 2;
  spec.k = 3;
  spec.seed = seed;
  return std::move(exper::MakeInstance(spec)).value();
}

// One uncertain point of 1..3 equally likely locations in [-10, 10]^2.
uncertain::UncertainPointBatch OnePoint(Rng& rng) {
  uncertain::UncertainPointBatch batch;
  batch.dim = 2;
  batch.norm = metric::Norm::kL2;
  const size_t locations = 1 + rng.Next() % 3;
  for (size_t l = 0; l < 2 * locations; ++l) {
    batch.coords.push_back(rng.UniformDouble(-10.0, 10.0));
  }
  batch.probabilities.assign(locations, 1.0 / static_cast<double>(locations));
  batch.offsets = {0, locations};
  return batch;
}

// Every number one pass answered, as bits, then the coreset image.
struct Answers {
  std::vector<uint64_t> bits;
  std::string coreset_bytes;

  void Add(const std::vector<double>& values) {
    for (double value : values) bits.push_back(std::bit_cast<uint64_t>(value));
  }
};

void RunWorkloads(const std::string& snapshot_path, Answers* answers) {
  ThreadPool pool(2);
  uncertain::UncertainDataset search_data = SmallInstance(5);
  core::UnassignedSearchOptions search;
  search.k = 3;
  search.max_swaps = 4;
  search.pool = &pool;
  auto searched = core::LocalSearchUnassigned(&search_data, search);
  ASSERT_TRUE(searched.ok()) << searched.status();
  answers->bits.insert(answers->bits.end(), searched->centers.begin(),
                       searched->centers.end());
  answers->Add({searched->expected_cost});

  uncertain::UncertainDataset stream_data = SmallInstance(6);
  stream::StreamingOptions streaming;
  streaming.k = 3;
  streaming.pool = &pool;
  streaming.ingest.chunk_size = 16;
  streaming.ingest.coreset.max_cells = 24;
  auto streamed =
      stream::StreamingUncertainKCenter(streaming).SolveDataset(&stream_data);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  answers->Add(streamed->center_coords);
  answers->Add({streamed->coreset_cost, streamed->verified_lower,
                streamed->verified_upper, streamed->verified_exact});

  serve::TenantConfig config;
  config.k = 3;
  config.coreset.max_cells = 16;
  config.coreset.base_cell_width = 1e-3;
  config.window_points = 24;
  config.allow_deletes = true;
  config.snapshot_path = snapshot_path;
  serve::TenantRegistry registry(serve::RegistryOptions{});
  ASSERT_TRUE(registry.CreateTenant("t", config).ok());
  Rng rng(17);
  std::vector<uncertain::UncertainPointBatch> acked;  // By stream index.
  for (int step = 0; step < 40; ++step) {
    if (step % 5 == 4) {
      // Each delete takes the newest point, inside the window.
      ASSERT_TRUE(
          registry.SubmitDelete("t", acked.size() - 1, acked.back()).ok());
    }
    acked.push_back(OnePoint(rng));
    ASSERT_TRUE(registry.SubmitAppend("t", acked.back()).ok());
    if (step % 8 == 7) {
      ASSERT_EQ(registry.Drain().failed, 0u);
      auto centers = registry.QueryCenters("t", Deadline());
      ASSERT_TRUE(centers.ok()) << centers.status();
      answers->Add(centers->center_coords);
      answers->Add({centers->cost, centers->lower, centers->upper});
    }
  }
  ASSERT_TRUE(registry.FindTenant("t")->Snapshot().ok());
  std::ifstream in(snapshot_path, std::ios::binary);
  answers->coreset_bytes.assign(std::istreambuf_iterator<char>(in), {});
  ASSERT_FALSE(answers->coreset_bytes.empty());
}

TEST(RegistryIndependenceTest, AnswersIgnoreEveryMetricValue) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  const std::string path = ::testing::TempDir() + "/obs_independence.ckpt";
  // The first pass registers every metric the workloads touch, so the
  // saturation below reaches all of them.
  Answers first, zeroed, saturated;
  ASSERT_NO_FATAL_FAILURE(RunWorkloads(path, &first));
  registry.Reset();
  ASSERT_NO_FATAL_FAILURE(RunWorkloads(path, &zeroed));

  constexpr uint64_t kBump = uint64_t{1} << 40;
  for (const MetricSnapshot& metric : registry.Snapshot().metrics) {
    if (metric.type == MetricType::kCounter) {
      registry.GetCounter(metric.name, "", metric.labels)->Add(kBump);
    } else if (metric.type == MetricType::kGauge) {
      registry.GetGauge(metric.name, "", metric.labels)->Add(kBump);
    } else {
      Histogram* histogram =
          registry.GetHistogram(metric.name, "", metric.labels);
      histogram->Observe(2.0 * histogram->bounds().back());
    }
  }
  ASSERT_GT(registry.Snapshot().CounterTotal("ukc_serve_appends_total"),
            kBump);
  ASSERT_NO_FATAL_FAILURE(RunWorkloads(path, &saturated));

  EXPECT_EQ(zeroed.bits, first.bits);
  EXPECT_EQ(saturated.bits, zeroed.bits);
  EXPECT_EQ(saturated.coreset_bytes, zeroed.coreset_bytes);
  registry.Reset();
}

}  // namespace
}  // namespace obs
}  // namespace ukc
