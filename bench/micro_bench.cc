// Google-benchmark micro-benchmarks for the library's hot paths:
// surrogate construction, deterministic clustering, assignment, exact
// cost evaluation, multi-candidate (swap-sweep) evaluation,
// sampling, and enclosing balls.
//
// The custom main records provenance context into the JSON output
// (git SHA via UKC_GIT_SHA — exported by bench/run_bench.sh — plus the
// machine's hardware thread count and the dataset sizes exercised), so
// the perf trajectory in BENCH_micro.json stays attributable across
// PRs and machines.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "core/surrogates.h"
#include "core/unassigned.h"
#include "cost/assignment.h"
#include "cost/expected_cost.h"
#include "cost/parallel_evaluator.h"
#include "exper/instances.h"
#include "solver/enclosing_ball.h"
#include "solver/geometric_median.h"
#include "solver/gonzalez.h"
#include "stream/checkpoint.h"
#include "stream/coreset.h"
#include "stream/ingest.h"
#include "stream/pipeline.h"
#include "uncertain/sampler.h"

namespace ukc {
namespace {

uncertain::UncertainDataset MakeDataset(size_t n, size_t z = 4,
                                        size_t dim = 2) {
  exper::InstanceSpec spec;
  spec.family = exper::Family::kClustered;
  spec.n = n;
  spec.z = z;
  spec.dim = dim;
  spec.k = 8;
  spec.seed = 42;
  return std::move(exper::MakeInstance(spec)).value();
}

void BM_ExpectedPointSurrogates(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto dataset = MakeDataset(n);
    core::SurrogateOptions options;
    options.kind = core::SurrogateKind::kExpectedPoint;
    state.ResumeTiming();
    auto surrogates = core::BuildSurrogates(&dataset, options);
    benchmark::DoNotOptimize(surrogates);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ExpectedPointSurrogates)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_GeometricMedianSurrogates(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto dataset = MakeDataset(n);
    core::SurrogateOptions options;
    options.kind = core::SurrogateKind::kOneCenter;
    state.ResumeTiming();
    auto surrogates = core::BuildSurrogates(&dataset, options);
    benchmark::DoNotOptimize(surrogates);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GeometricMedianSurrogates)->Arg(1000)->Arg(4000);

void BM_Gonzalez(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  auto dataset = MakeDataset(n, 1);
  const auto sites = dataset.LocationSites();
  for (auto _ : state) {
    auto solution = solver::Gonzalez(dataset.space(), sites, k);
    benchmark::DoNotOptimize(solution);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n * k));
}
BENCHMARK(BM_Gonzalez)
    ->Args({1000, 8})
    ->Args({4000, 8})
    ->Args({16000, 8})
    ->Args({4000, 32});

void BM_AssignExpectedDistance(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  auto centers = solver::Gonzalez(dataset.space(), sites, 8);
  for (auto _ : state) {
    auto assignment = cost::AssignExpectedDistance(dataset, centers->centers);
    benchmark::DoNotOptimize(assignment);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AssignExpectedDistance)->Arg(1000)->Arg(4000)->Arg(10000);

void BM_ExactExpectedCost(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  auto centers = solver::Gonzalez(dataset.space(), sites, 8);
  auto assignment = cost::AssignExpectedDistance(dataset, centers->centers);
  for (auto _ : state) {
    auto value = cost::ExactAssignedCost(dataset, *assignment);
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.total_locations()));
}
BENCHMARK(BM_ExactExpectedCost)->Arg(1000)->Arg(4000)->Arg(10000)->Arg(16000);

// The single exact sort-sweep at scale (one UnassignedCost over k = 8
// centers). The name keeps its "Serial" suffix so recorded rows stay
// comparable.
void BM_ExactSweepSerial(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  auto centers = solver::Gonzalez(dataset.space(), sites, 8);
  cost::ExpectedCostEvaluator evaluator;
  for (auto _ : state) {
    auto value = evaluator.UnassignedCost(dataset, centers->centers);
    UKC_CHECK(value.ok()) << value.status();
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.total_locations()));
}
BENCHMARK(BM_ExactSweepSerial)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// The kd-tree cutover study behind cost::kDefaultKdTreeCutover: the
// unassigned cost over k centers with the kd path forced off (linear
// flat scan) and forced on (tree). The default cutover is the k where
// the tree rows start winning.
void BM_UnassignedCostLinear(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  auto centers = solver::Gonzalez(dataset.space(), sites, k);
  cost::ExpectedCostEvaluator::Options options;
  options.kdtree_cutover = std::numeric_limits<size_t>::max();
  cost::ExpectedCostEvaluator evaluator(options);
  for (auto _ : state) {
    auto value = evaluator.UnassignedCost(dataset, centers->centers);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_UnassignedCostLinear)
    ->Args({4000, 8})
    ->Args({4000, 16})
    ->Args({4000, 24})
    ->Args({4000, 32})
    ->Args({4000, 48})
    ->Args({4000, 64});

void BM_UnassignedCostKdTree(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  auto centers = solver::Gonzalez(dataset.space(), sites, k);
  cost::ExpectedCostEvaluator::Options options;
  options.kdtree_cutover = 1;
  cost::ExpectedCostEvaluator evaluator(options);
  for (auto _ : state) {
    auto value = evaluator.UnassignedCost(dataset, centers->centers);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_UnassignedCostKdTree)
    ->Args({4000, 8})
    ->Args({4000, 16})
    ->Args({4000, 24})
    ->Args({4000, 32})
    ->Args({4000, 48})
    ->Args({4000, 64});

// One local-search round (k = 8 positions × 16 pool candidates = 128
// swapped center sets), scored the PR 1 way: a full exact evaluation
// per swap through one serial evaluator.
void BM_SwapSweepSerial(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  auto seed = solver::Gonzalez(dataset.space(), sites, 8);
  std::vector<metric::SiteId> pool;
  for (size_t i = 0; i < 16; ++i) pool.push_back(sites[(i * 977) % sites.size()]);
  cost::ExpectedCostEvaluator evaluator;
  for (auto _ : state) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t p = 0; p < seed->centers.size(); ++p) {
      auto trial = seed->centers;
      for (metric::SiteId candidate : pool) {
        trial[p] = candidate;
        best = std::min(best, *evaluator.UnassignedCost(dataset, trial));
      }
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(8 * pool.size()));
}
BENCHMARK(BM_SwapSweepSerial)->Arg(10000);

// The same round through ParallelCandidateEvaluator::SwapCostMatrix
// with the default (incremental) engine: the centers do not change
// between iterations, so after the first iteration every base table
// rolls over — this measures the steady-state cost of re-scoring a
// round. The from-scratch trajectory costs are in
// BM_SwapSweepRebuildRounds / BM_SwapSweepIncremental below.
void BM_SwapSweepBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  auto seed = solver::Gonzalez(dataset.space(), sites, 8);
  std::vector<metric::SiteId> pool;
  for (size_t i = 0; i < 16; ++i) pool.push_back(sites[(i * 977) % sites.size()]);
  cost::ParallelCandidateEvaluator::Options options;
  options.threads = threads;
  cost::ParallelCandidateEvaluator parallel(options);
  for (auto _ : state) {
    auto values = parallel.SwapCostMatrix(dataset, seed->centers, pool);
    benchmark::DoNotOptimize(values);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(8 * pool.size()));
}
BENCHMARK(BM_SwapSweepBatch)
    ->ArgsProduct({{10000, 100000}, {1, 2, 4}})
    ->UseRealTime();

// A ≥3-round local-search trajectory through SwapCostMatrix: round r's
// accepted argmin swap feeds round r+1 — the access pattern of
// LocalSearchUnassigned. Run once with the incremental engine off (the
// PR 2 batch path: full table rebuild + full O(N) candidate scans every
// round) and once with it on (k−1 distance rows and the untouched base
// tables roll over; candidates scan only kd-surviving locations).
void SwapSweepRounds(benchmark::State& state, bool incremental) {
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr size_t kRounds = 3;
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  auto seed = solver::Gonzalez(dataset.space(), sites, 8);
  std::vector<metric::SiteId> pool;
  for (size_t i = 0; i < 16; ++i) pool.push_back(sites[(i * 977) % sites.size()]);
  cost::ParallelCandidateEvaluator::Options options;
  options.threads = 1;
  options.incremental_rollover = incremental;
  options.kd_prune = incremental;
  cost::ParallelCandidateEvaluator parallel(options);
  for (auto _ : state) {
    auto centers = seed->centers;
    for (size_t round = 0; round < kRounds; ++round) {
      auto values = parallel.SwapCostMatrix(dataset, centers, pool);
      UKC_CHECK(values.ok()) << values.status();
      // Accept the (position, candidate) argmin over non-identity swaps.
      double best = std::numeric_limits<double>::infinity();
      size_t best_position = 0;
      metric::SiteId best_candidate = centers[0];
      for (size_t p = 0; p < centers.size(); ++p) {
        for (size_t c = 0; c < pool.size(); ++c) {
          if (pool[c] == centers[p]) continue;
          const double value = (*values)[p * pool.size() + c];
          if (value < best) {
            best = value;
            best_position = p;
            best_candidate = pool[c];
          }
        }
      }
      centers[best_position] = best_candidate;
    }
    benchmark::DoNotOptimize(centers);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRounds * 8 * pool.size()));
}

void BM_SwapSweepRebuildRounds(benchmark::State& state) {
  SwapSweepRounds(state, /*incremental=*/false);
}
BENCHMARK(BM_SwapSweepRebuildRounds)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_SwapSweepIncremental(benchmark::State& state) {
  SwapSweepRounds(state, /*incremental=*/true);
}
BENCHMARK(BM_SwapSweepIncremental)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Sliding-window ingest: sustained Add + per-point ExpireBefore at a
// fixed window width — the serving write path of a windowed tenant.
// Arg is the window in points; the expiry cost is dominated by bucket
// retirement at the watermark boundary (churn_bucket = window / 16).
void BM_SlidingWindow(benchmark::State& state) {
  const uint64_t window = static_cast<uint64_t>(state.range(0));
  stream::CoresetOptions options;
  options.max_cells = 1024;
  options.base_cell_width = 1e-3;
  options.churn_bucket = std::max<uint64_t>(1, window / 16);
  stream::StreamingCoreset coreset(2, metric::Norm::kL2, options);
  Rng rng(0xF10A7);
  double coords[2];
  uint64_t index = 0;
  for (auto _ : state) {
    coords[0] = rng.UniformDouble(-10.0, 10.0);
    coords[1] = rng.UniformDouble(-10.0, 10.0);
    UKC_CHECK(coreset.Add(index, coords, 0.0).ok());
    ++index;
    if (index > window) {
      auto retired = coreset.ExpireBefore(index - window);
      UKC_CHECK(retired.ok()) << retired.status();
    }
  }
  state.counters["cells"] = static_cast<double>(coreset.num_cells());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlidingWindow)->Arg(1024)->Arg(16384);

// Exhaustive subset optimization with worker-sharded enumeration
// (ranked unranking; C(16, 4) = 1820 exact sweeps per iteration).
void BM_TinyEnumerate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  std::vector<metric::SiteId> candidates;
  for (size_t i = 0; i < 16; ++i) {
    candidates.push_back(sites[(i * 977) % sites.size()]);
  }
  for (auto _ : state) {
    auto solution =
        core::ExactUnassignedTiny(dataset, 4, candidates, 2'000'000, 1);
    UKC_CHECK(solution.ok()) << solution.status();
    benchmark::DoNotOptimize(solution);
  }
  state.SetItemsProcessed(state.iterations() * 1820);
}
BENCHMARK(BM_TinyEnumerate)->Arg(200)->Unit(benchmark::kMillisecond);

// The compacted snapshot ladder on a local-search trajectory at
// n = 10^5, k = 8: wall time plus the resident ladder bytes (snapshot
// CDFs — the storage the compaction shrinks 7n -> 2n doubles per
// table), total swap-base bytes, and the escalation / replayed-event
// counters that price the rare intermediate-rung re-derivations.
void SwapLadderRounds(benchmark::State& state, bool compact) {
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr size_t kRounds = 2;
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  auto seed = solver::Gonzalez(dataset.space(), sites, 8);
  std::vector<metric::SiteId> pool;
  for (size_t i = 0; i < 16; ++i) pool.push_back(sites[(i * 977) % sites.size()]);
  cost::ParallelCandidateEvaluator::Options options;
  options.threads = 1;
  options.evaluator.compact_swap_ladder = compact;
  cost::ParallelCandidateEvaluator parallel(options);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  const obs::RegistrySnapshot before = metrics.Snapshot();
  for (auto _ : state) {
    auto centers = seed->centers;
    for (size_t round = 0; round < kRounds; ++round) {
      auto values = parallel.SwapCostMatrix(dataset, centers, pool);
      UKC_CHECK(values.ok()) << values.status();
      double best = std::numeric_limits<double>::infinity();
      size_t best_position = 0;
      metric::SiteId best_candidate = centers[0];
      for (size_t p = 0; p < centers.size(); ++p) {
        for (size_t c = 0; c < pool.size(); ++c) {
          if (pool[c] == centers[p]) continue;
          const double value = (*values)[p * pool.size() + c];
          if (value < best) {
            best = value;
            best_position = p;
            best_candidate = pool[c];
          }
        }
      }
      centers[best_position] = best_candidate;
    }
    benchmark::DoNotOptimize(centers);
  }
  state.counters["ladder_bytes"] =
      static_cast<double>(parallel.SwapLadderBytes());
  state.counters["swap_base_bytes"] =
      static_cast<double>(parallel.SwapBaseMemoryBytes());
  const obs::RegistrySnapshot after = metrics.Snapshot();
  const auto per_iteration = [&](const char* counter) {
    return static_cast<double>(after.CounterTotal(counter) -
                               before.CounterTotal(counter)) /
           static_cast<double>(state.iterations());
  };
  state.counters["escalations"] = per_iteration("ukc_ladder_escalations_total");
  state.counters["replayed_events"] =
      per_iteration("ukc_ladder_replayed_events_total");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRounds * 8 * pool.size()));
}

void BM_SwapLadderCompact(benchmark::State& state) {
  SwapLadderRounds(state, /*compact=*/true);
}
BENCHMARK(BM_SwapLadderCompact)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SwapLadderFull(benchmark::State& state) {
  SwapLadderRounds(state, /*compact=*/false);
}
BENCHMARK(BM_SwapLadderFull)->Arg(100000)->Unit(benchmark::kMillisecond);

// A deterministic synthetic uncertain-point stream (8 planted cluster
// homes, z = 4 locations per point, each point a pure function of its
// index) that is generated on the fly: nothing of size n is ever
// resident, so the stream benches exercise the true out-of-core path
// at n = 10^6 without an O(n) setup allocation.
stream::BatchSourceFactory SyntheticStreamFactory(size_t n, size_t chunk_size,
                                                  uint64_t seed = 977) {
  return [n, chunk_size, seed]() -> Result<stream::BatchSource> {
    auto index = std::make_shared<size_t>(0);
    return stream::MakeProducerBatchSource(
        2,
        [n, seed, index](std::vector<double>* coords,
                         std::vector<double>* probabilities) {
          if (*index >= n) return false;
          Rng point_rng = Rng(seed).Fork(*index);
          const size_t cluster = *index % 8;
          const double cx = 10.0 * static_cast<double>(cluster % 4);
          const double cy = 10.0 * static_cast<double>(cluster / 4);
          const double hx = cx + point_rng.Gaussian(0.0, 1.0);
          const double hy = cy + point_rng.Gaussian(0.0, 1.0);
          for (int l = 0; l < 4; ++l) {
            coords->push_back(hx + point_rng.Gaussian(0.0, 0.4));
            coords->push_back(hy + point_rng.Gaussian(0.0, 0.4));
            probabilities->push_back(0.25);
          }
          ++*index;
          return true;
        },
        chunk_size);
  };
}

// Pass 1 of the streaming pipeline alone: chunked ingestion into the
// sharded coreset. The coreset_bytes counter demonstrates the
// memory-independence claim — it stays flat as n grows 10x.
void BM_StreamIngest(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto factory =
      stream::AdaptBatchFactory(SyntheticStreamFactory(n, 8192));
  ThreadPool pool(1);
  stream::IngestOptions options;
  options.chunk_size = 8192;
  options.coreset.max_cells = 4096;
  size_t coreset_bytes = 0;
  for (auto _ : state) {
    auto coreset = stream::IngestCoreset(2, factory, options, &pool);
    UKC_CHECK(coreset.ok()) << coreset.status();
    coreset_bytes = coreset->ApproxMemoryBytes();
    benchmark::DoNotOptimize(coreset);
  }
  state.counters["coreset_bytes"] = static_cast<double>(coreset_bytes);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_StreamIngest)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Reducing two shard coresets (the merge-tree edge): built once from
// disjoint halves of a 10^5-point stream, merged per iteration.
void BM_CoresetMerge(benchmark::State& state) {
  const size_t max_cells = static_cast<size_t>(state.range(0));
  const size_t n = 100000;
  ThreadPool pool(1);
  stream::IngestOptions options;
  options.chunk_size = 8192;
  options.coreset.max_cells = max_cells;
  // Each side is a full stream under a different seed, so the merge
  // sees two genuinely distinct cell tables.
  auto build_side = [&](uint64_t seed) {
    auto coreset = stream::IngestCoreset(
        2, stream::AdaptBatchFactory(SyntheticStreamFactory(n, 8192, seed)),
        options, &pool);
    UKC_CHECK(coreset.ok()) << coreset.status();
    return std::move(*coreset);
  };
  const stream::StreamingCoreset left = build_side(977);
  const stream::StreamingCoreset right = build_side(1977);
  for (auto _ : state) {
    stream::StreamingCoreset merged = left;
    auto status = merged.MergeFrom(right);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(left.num_cells()));
}
BENCHMARK(BM_CoresetMerge)->Arg(1024)->Arg(4096);

// The full out-of-core pipeline (ingest + solve on coreset + verified
// full-data pass) at the n = 10^6 scaling point.
void BM_StreamingPipeline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  stream::StreamingOptions options;
  options.k = 8;
  options.threads = 1;
  options.ingest.chunk_size = 8192;
  options.ingest.coreset.max_cells = 4096;
  stream::StreamingUncertainKCenter solver(options);
  double upper = 0.0;
  size_t coreset_bytes = 0;
  for (auto _ : state) {
    auto solution = solver.SolveSource(2, SyntheticStreamFactory(n, 8192));
    UKC_CHECK(solution.ok()) << solution.status();
    upper = solution->verified_upper;
    coreset_bytes = solution->coreset_memory_bytes;
    benchmark::DoNotOptimize(solution);
  }
  state.counters["verified_upper"] = upper;
  state.counters["coreset_bytes"] = static_cast<double>(coreset_bytes);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_StreamingPipeline)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Builds the checkpoint image an n-point ingestion would save: the
// merged coreset of the synthetic stream (cell count capped at
// max_cells, so the sidecar stays ~flat as n grows 10x).
stream::IngestCheckpoint CheckpointOf(size_t n) {
  ThreadPool pool(1);
  stream::IngestOptions options;
  options.chunk_size = 8192;
  options.coreset.max_cells = 4096;
  auto coreset = stream::IngestCoreset(
      2, stream::AdaptBatchFactory(SyntheticStreamFactory(n, 8192)), options,
      &pool);
  UKC_CHECK(coreset.ok()) << coreset.status();
  stream::IngestCheckpoint checkpoint;
  checkpoint.config_fingerprint = 0x1234;
  checkpoint.content_fingerprint = 0x5678;
  checkpoint.batches = n / 8192;
  checkpoint.points = n;
  checkpoint.locations = 4 * n;
  coreset->SerializeTo(&checkpoint.coreset_image);
  return checkpoint;
}

// One checkpoint save: serialize + checksum + write + atomic rename.
// sync=false keeps the number a property of the code, not of the
// filesystem's fsync latency; the checkpoint_bytes counter tracks the
// sidecar size (bounded by max_cells, independent of n).
void BM_CheckpointSave(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const stream::IngestCheckpoint checkpoint = CheckpointOf(n);
  const std::string path = "bench_checkpoint_save.ckpt";
  size_t bytes = 0;
  for (auto _ : state) {
    auto status = stream::SaveCheckpoint(path, checkpoint, /*sync=*/false);
    UKC_CHECK(status.ok()) << status;
    benchmark::DoNotOptimize(status);
  }
  bytes = checkpoint.coreset_image.size();
  std::remove(path.c_str());
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckpointSave)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// One checkpoint restore: read + checksum verify + header validation +
// coreset image deserialization — the fixed cost a resumed run pays
// instead of re-ingesting the prefix.
void BM_CheckpointRestore(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const stream::IngestCheckpoint checkpoint = CheckpointOf(n);
  const std::string path = "bench_checkpoint_restore.ckpt";
  auto status = stream::SaveCheckpoint(path, checkpoint, /*sync=*/false);
  UKC_CHECK(status.ok()) << status;
  for (auto _ : state) {
    auto loaded = stream::LoadCheckpoint(path);
    UKC_CHECK(loaded.ok()) << loaded.status();
    auto coreset = stream::StreamingCoreset::Deserialize(loaded->coreset_image);
    UKC_CHECK(coreset.ok()) << coreset.status();
    benchmark::DoNotOptimize(coreset);
  }
  std::remove(path.c_str());
  state.counters["checkpoint_bytes"] =
      static_cast<double>(checkpoint.coreset_image.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckpointRestore)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// Ingestion under a flaky source: ~5% of batch pulls fail transiently
// and are retried (zero-backoff sleeper, so the number measures the
// retry machinery, not sleeping). Compare against BM_StreamIngest for
// the overhead of a fault-heavy run; the read_retries counter reports
// how many pulls were actually retried per iteration.
void BM_IngestWithFaultRetry(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto factory =
      stream::AdaptBatchFactory(SyntheticStreamFactory(n, 8192));
  ThreadPool pool(1);
  stream::IngestOptions options;
  options.chunk_size = 8192;
  options.coreset.max_cells = 4096;
  options.retry.sleeper = [](std::chrono::nanoseconds) {};
  FaultPlan plan;
  plan.seed = 31;
  plan.rules.push_back(
      FaultRule{"ingest.read", {}, 0.05, StatusCode::kUnavailable, 0});
  uint64_t retries = 0;
  for (auto _ : state) {
    ScopedFaultInjection scope(plan);
    stream::IngestStats stats;
    auto coreset = stream::IngestCoreset(2, factory, options, &pool, &stats);
    UKC_CHECK(coreset.ok()) << coreset.status();
    retries = stats.read_retries;
    benchmark::DoNotOptimize(coreset);
  }
  state.counters["read_retries"] = static_cast<double>(retries);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_IngestWithFaultRetry)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_MonteCarloCost1k(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto dataset = MakeDataset(n);
  const auto sites = dataset.LocationSites();
  auto centers = solver::Gonzalez(dataset.space(), sites, 8);
  auto assignment = cost::AssignExpectedDistance(dataset, centers->centers);
  Rng rng(1);
  for (auto _ : state) {
    auto value = cost::MonteCarloAssignedCost(dataset, *assignment, 1000, rng);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_MonteCarloCost1k)->Arg(1000);

void BM_RealizationSampling(benchmark::State& state) {
  auto dataset = MakeDataset(static_cast<size_t>(state.range(0)));
  uncertain::RealizationSampler sampler(dataset);
  Rng rng(2);
  uncertain::Realization realization;
  for (auto _ : state) {
    sampler.SampleInto(rng, &realization);
    benchmark::DoNotOptimize(realization);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RealizationSampling)->Arg(1000)->Arg(16000);

void BM_WelzlMinBall(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  Rng rng(3);
  std::vector<geometry::Point> points;
  for (size_t i = 0; i < n; ++i) {
    geometry::Point p(dim);
    for (size_t a = 0; a < dim; ++a) p[a] = rng.Gaussian();
    points.push_back(std::move(p));
  }
  for (auto _ : state) {
    Rng welzl_rng(4);
    auto ball = solver::WelzlMinBall(points, welzl_rng);
    benchmark::DoNotOptimize(ball);
  }
}
BENCHMARK(BM_WelzlMinBall)->Args({1000, 2})->Args({1000, 3})->Args({10000, 2});

void BM_BadoiuClarkson(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<geometry::Point> points;
  for (size_t i = 0; i < n; ++i) {
    geometry::Point p(16);
    for (size_t a = 0; a < 16; ++a) p[a] = rng.Gaussian();
    points.push_back(std::move(p));
  }
  for (auto _ : state) {
    auto ball = solver::BadoiuClarkson(points, 0.1);
    benchmark::DoNotOptimize(ball);
  }
}
BENCHMARK(BM_BadoiuClarkson)->Arg(1000)->Arg(10000);

void BM_WeightedGeometricMedian(benchmark::State& state) {
  const size_t z = static_cast<size_t>(state.range(0));
  Rng rng(6);
  std::vector<geometry::Point> points;
  std::vector<double> weights;
  for (size_t i = 0; i < z; ++i) {
    points.push_back(geometry::Point{rng.Gaussian(), rng.Gaussian()});
    weights.push_back(rng.UniformDouble(0.1, 1.0));
  }
  for (auto _ : state) {
    auto median = solver::WeightedGeometricMedian(points, weights);
    benchmark::DoNotOptimize(median);
  }
}
BENCHMARK(BM_WeightedGeometricMedian)->Arg(4)->Arg(16)->Arg(64);

// --- Serving core (serve/) --------------------------------------------------

// A registry with `tenants` resident streams, each warmed with
// `appends` acked batches of 4 points.
serve::TenantRegistry* MakeWarmRegistry(size_t tenants, size_t appends,
                                        const std::string& snapshot_dir = "") {
  serve::RegistryOptions options;
  options.queue_capacity = 256;
  auto* registry = new serve::TenantRegistry(options);
  Rng rng(0xbe7c);
  for (size_t t = 0; t < tenants; ++t) {
    serve::TenantConfig config;
    config.dim = 2;
    config.k = 8;
    config.coreset.max_cells = 1024;
    config.coreset.base_cell_width = 1e-3;
    const std::string id = "tenant-" + std::to_string(t);
    if (!snapshot_dir.empty()) {
      config.snapshot_path = snapshot_dir + "_" + id + ".ckpt";
      config.snapshot_every_appends = 64;
    }
    UKC_CHECK(registry->CreateTenant(id, config).ok());
    for (size_t a = 0; a < appends; ++a) {
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
      UKC_CHECK(registry->SubmitAppend(id, batch).ok());
      if (a % 64 == 63) registry->Drain();
    }
    registry->Drain();
  }
  return registry;
}

// Append-to-ack throughput through the admission queue + Drain, the
// serving core's write path (includes the cadence snapshots).
void BM_ServeAppendDrain(benchmark::State& state) {
  const size_t tenants = static_cast<size_t>(state.range(0));
  std::unique_ptr<serve::TenantRegistry> registry(
      MakeWarmRegistry(tenants, 16));
  Rng rng(0xabba);
  uncertain::UncertainPointBatch batch;
  batch.dim = 2;
  batch.offsets = {0, 1, 2, 3, 4};
  for (size_t l = 0; l < 4; ++l) {
    batch.coords.push_back(rng.UniformDouble(-10.0, 10.0));
    batch.coords.push_back(rng.UniformDouble(-10.0, 10.0));
    batch.probabilities.push_back(1.0);
  }
  size_t t = 0;
  for (auto _ : state) {
    const std::string id = "tenant-" + std::to_string(t++ % tenants);
    UKC_CHECK(registry->SubmitAppend(id, batch).ok());
    registry->Drain();
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_ServeAppendDrain)->Arg(1)->Arg(8);

// The cheap query shape: exact max-over-cells cost of one candidate
// set against a warmed tenant (1024-cell ceiling).
void BM_ServeCandidateCostQuery(benchmark::State& state) {
  std::unique_ptr<serve::TenantRegistry> registry(MakeWarmRegistry(1, 256));
  const std::vector<double> candidates = {0.0, 0.0, 5.0, 5.0, -5.0, 5.0};
  for (auto _ : state) {
    auto answer =
        registry->QueryCandidateCost("tenant-0", candidates, 3, Deadline());
    UKC_CHECK(answer.ok()) << answer.status();
    benchmark::DoNotOptimize(answer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCandidateCostQuery);

// The expensive query shape: full k-center solve on the tenant's
// cells. Arg is the warm-up append count (more cells = bigger solve);
// a one-point append per iteration moves the epoch so the answer
// cache never hits and every query pays the cold solve.
void BM_ServeCentersQueryCold(benchmark::State& state) {
  const size_t appends = static_cast<size_t>(state.range(0));
  std::unique_ptr<serve::TenantRegistry> registry(
      MakeWarmRegistry(1, appends));
  serve::Tenant* tenant = registry->FindTenant("tenant-0");
  for (auto _ : state) {
    // One fresh point per iteration moves the epoch, so every query
    // pays the full solve (the cache never hits).
    uncertain::UncertainPointBatch batch;
    batch.dim = 2;
    batch.offsets = {0, 1};
    batch.coords = {1.0, 1.0};
    batch.probabilities = {1.0};
    UKC_CHECK(tenant->Append(batch).ok());
    auto answer = registry->QueryCenters("tenant-0", Deadline());
    UKC_CHECK(answer.ok()) << answer.status();
    benchmark::DoNotOptimize(answer);
  }
  state.counters["cells"] = static_cast<double>(tenant->num_cells());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCentersQueryCold)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The cached path the serving loop actually rides between appends.
void BM_ServeCentersQueryCached(benchmark::State& state) {
  std::unique_ptr<serve::TenantRegistry> registry(MakeWarmRegistry(1, 256));
  for (auto _ : state) {
    auto answer = registry->QueryCenters("tenant-0", Deadline());
    UKC_CHECK(answer.ok()) << answer.status();
    benchmark::DoNotOptimize(answer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCentersQueryCached);

// Failover: one kill-and-restore of a warmed tenant from its sidecar
// (load + checksum + deserialize + state reset) — the recovery-time
// number the ops runbook quotes.
void BM_ServeFailoverRestore(benchmark::State& state) {
  std::unique_ptr<serve::TenantRegistry> registry(
      MakeWarmRegistry(1, 256, "bench_serve_failover"));
  for (auto _ : state) {
    uint64_t restored_epoch = 0;
    auto status = registry->RestoreTenant("tenant-0", &restored_epoch);
    UKC_CHECK(status.ok()) << status;
    benchmark::DoNotOptimize(restored_epoch);
  }
  std::remove("bench_serve_failover_tenant-0.ckpt");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeFailoverRestore)->Unit(benchmark::kMicrosecond);

// Overload: submissions against a full queue. Measures the shed path
// (reject-newest + marked status), which must stay O(1) — shedding is
// the mechanism that keeps an overloaded core responsive.
void BM_ServeOverloadShed(benchmark::State& state) {
  serve::RegistryOptions options;
  options.queue_capacity = 4;
  serve::TenantRegistry registry(options);
  serve::TenantConfig config;
  config.dim = 2;
  config.coreset.base_cell_width = 1e-3;
  UKC_CHECK(registry.CreateTenant("tenant-0", config).ok());
  uncertain::UncertainPointBatch batch;
  batch.dim = 2;
  batch.offsets = {0, 1};
  batch.coords = {1.0, 1.0};
  batch.probabilities = {1.0};
  for (size_t i = 0; i < 4; ++i) {
    UKC_CHECK(registry.SubmitAppend("tenant-0", batch).ok());
  }
  uint64_t sheds = 0;
  for (auto _ : state) {
    const Status status = registry.SubmitAppend("tenant-0", batch);
    UKC_CHECK(serve::IsShed(status)) << status;
    ++sheds;
    benchmark::DoNotOptimize(status);
  }
  state.counters["sheds"] = static_cast<double>(sheds);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeOverloadShed);

// --- Observability (obs/) ---------------------------------------------------

// The hot-path overhead budget: one metered event is one relaxed
// atomic add on a per-thread shard (plus bucket search + fixed-point
// sum for histograms). These two numbers price every obs metering
// site in serve/stream/cost; BM_Serve* and BM_StreamIngest above must
// stay within noise of their pre-observability values.
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

}  // namespace
}  // namespace ukc

int main(int argc, char** argv) {
  // Provenance context for BENCH_micro.json (see file comment).
  const char* git_sha = std::getenv("UKC_GIT_SHA");
  benchmark::AddCustomContext("git_sha", git_sha != nullptr ? git_sha : "unknown");
  benchmark::AddCustomContext(
      "hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("dataset_sizes",
                              "1000,4000,10000,16000,100000,1000000");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
