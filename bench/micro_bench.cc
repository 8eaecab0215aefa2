// Google-benchmark micro-benchmarks. Each row is the recorded evidence
// for one option, constant or fast path of the library, named in the
// comment above it; end-to-end numbers live in e2ebench/, the paper's
// approximation factors in the table1_row* binaries.
//
// The custom main records provenance context into the JSON output
// (git SHA via UKC_GIT_SHA — exported by bench/run_bench.sh — the
// library's CMake build type, the machine's hardware thread count and
// the dataset sizes exercised), so BENCH_micro.json stays attributable.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "cost/expected_cost_evaluator.h"
#include "exper/instances.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "solver/gonzalez.h"

namespace ukc {
namespace {

uncertain::UncertainDataset MakeDataset(size_t n) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = n;
  spec.z = 4;
  spec.dim = 2;
  spec.k = 8;
  spec.seed = 42;
  return std::move(exper::MakeInstance(spec)).value();
}

// --- Cost engine (cost/) ----------------------------------------------------

// The unassigned cost over k Gonzalez centers with the center scan
// forced linear or forced through the kd-tree.
void UnassignedCost(benchmark::State& state, size_t kdtree_cutover) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  auto dataset = MakeDataset(n);
  auto centers = solver::Gonzalez(dataset.space(), dataset.LocationSites(), k);
  cost::ExpectedCostEvaluator::Options options;
  options.kdtree_cutover = kdtree_cutover;
  cost::ExpectedCostEvaluator evaluator(options);
  for (auto _ : state) {
    auto value = evaluator.UnassignedCost(dataset, centers->centers);
    UKC_CHECK(value.ok()) << value.status();
    benchmark::DoNotOptimize(value);
  }
}

// Evidence for cost::kDefaultKdTreeCutover: the smallest k from which
// the tree row (BM_UnassignedCostKdTree) beats the linear row
// (BM_UnassignedCostLinear) at both n, read off the recorded medians.
// Each (n, k) pair is registered back to back so the box's drift
// between the two rows stays small.
const bool kUnassignedCostRegistered = [] {
  for (int64_t n : {4000, 100000}) {
    for (int64_t k : {8, 16, 32, 48, 64, 96, 128, 256}) {
      benchmark::RegisterBenchmark("BM_UnassignedCostLinear", UnassignedCost,
                                   std::numeric_limits<size_t>::max())
          ->Args({n, k})
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark("BM_UnassignedCostKdTree", UnassignedCost,
                                   size_t{1})
          ->Args({n, k})
          ->Unit(benchmark::kMillisecond);
    }
  }
  return true;
}();

// --- Observability (obs/) ---------------------------------------------------

// Evidence for the per-thread-shard hot path (one relaxed atomic add
// per event; docs/operations.md "Observability").
void BM_MetricsCounter(benchmark::State& state) {
  obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("ukc_bench_counter_total");
  for (auto _ : state) {
    counter->Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounter)->ThreadRange(1, 4)->UseRealTime();

void BM_MetricsHistogram(benchmark::State& state) {
  obs::Histogram* histogram =
      obs::MetricsRegistry::Default().GetHistogram("ukc_bench_seconds");
  double value = 1e-6;
  for (auto _ : state) {
    histogram->Observe(value);
    // Walk the latency range so the bucket search sees varied depths.
    value = value < 1.0 ? value * 1.5 : 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogram)->ThreadRange(1, 4)->UseRealTime();

// --- Serving core (serve/) --------------------------------------------------

// Evidence for serve::RegistryOptions::latency_sample_every = 16: a
// cached centers answer on a tenant warmed with 256 acked appends of 4
// points, the query whose cost an unsampled latency observation would
// dominate.
void BM_ServeCentersQueryCached(benchmark::State& state) {
  serve::RegistryOptions options;
  options.queue_capacity = 256;
  serve::TenantRegistry registry(options);
  serve::TenantConfig config;
  config.dim = 2;
  config.k = 8;
  config.coreset.max_cells = 1024;
  config.coreset.base_cell_width = 1e-3;
  UKC_CHECK(registry.CreateTenant("tenant-0", config).ok());
  Rng rng(0xbe7c);
  for (size_t a = 0; a < 256; ++a) {
    uncertain::UncertainPointBatch batch;
    batch.dim = 2;
    batch.offsets.push_back(0);
    for (size_t i = 0; i < 4; ++i) {
      const size_t locations = 1 + rng.Next() % 3;
      for (size_t l = 0; l < locations; ++l) {
        batch.coords.push_back(rng.UniformDouble(-10.0, 10.0));
        batch.coords.push_back(rng.UniformDouble(-10.0, 10.0));
        batch.probabilities.push_back(1.0 / locations);
      }
      batch.offsets.push_back(batch.offsets.back() + locations);
    }
    UKC_CHECK(registry.SubmitAppend("tenant-0", batch).ok());
    if (a % 64 == 63) registry.Drain();
  }
  registry.Drain();
  for (auto _ : state) {
    auto answer = registry.QueryCenters("tenant-0", Deadline());
    UKC_CHECK(answer.ok()) << answer.status();
    benchmark::DoNotOptimize(answer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCentersQueryCached);

}  // namespace
}  // namespace ukc

int main(int argc, char** argv) {
  // Provenance context for BENCH_micro.json (see file comment). The
  // context's own library_build_type is google-benchmark's build, not
  // this library's; ukc_build_type is this library's.
  const char* git_sha = std::getenv("UKC_GIT_SHA");
  benchmark::AddCustomContext("git_sha", git_sha != nullptr ? git_sha : "unknown");
  benchmark::AddCustomContext("ukc_build_type", UKC_BUILD_TYPE);
  benchmark::AddCustomContext(
      "hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("dataset_sizes", "4000,10000,100000");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
