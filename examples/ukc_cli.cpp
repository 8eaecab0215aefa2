// Command-line front end: run any pipeline configuration on a dataset
// file (or a generated instance) and print a report.
//
//   build/examples/ukc_cli --input=data.ukc --k=4 --rule=ED
//   build/examples/ukc_cli --generate=clustered --n=200 --k=5 --rule=EP
//
// Flags:
//   --input      path to a dataset in the ukc text format (see
//                uncertain/io.h); mutually exclusive with --generate
//   --generate   instance family: uniform|clustered|outlier|line
//   --n, --z, --dim, --spread, --seed   generator parameters
//   --k          number of centers
//   --rule       ED | EP | OC
//   --surrogate  auto | expected-point | one-center | modal
//   --solver     gonzalez | hochbaum-shmoys | gonzalez-refined | exact
//   --unassigned also evaluate the unassigned objective
//   --mc         Monte-Carlo cross-check samples (0 = off)
//   --threads    size of the one worker pool every parallel stage
//                borrows (<= 0 = hardware threads); answers do not
//                depend on it
//   --metrics-out  write the run's metrics registry (src/obs/) to this
//                  file on exit: Prometheus text, or JSON when the
//                  path ends in .json
//
// Streaming (out-of-core) mode:
//   --stream         run the chunked coreset pipeline (stream/) instead
//                    of materializing the instance; with --input the
//                    file is read twice and never loaded whole
//   --chunk-size     points per ingested chunk
//   --shards         shard coresets built concurrently (0 = threads)
//   --max-cells      coreset size target
//   --base-cell-width level-0 grid width (raise for large coordinates)
//   --verify-buckets resolution of the verified-cost bracket
//   --checkpoint     crash-recovery sidecar path (docs/operations.md);
//                    re-running the same command after an interruption
//                    resumes the ingest from the last saved state
//   --checkpoint-every  batches between checkpoint saves
//   --retry-attempts    total tries per batch read (1 = no retry)
//
//   build/examples/ukc_cli --input=data.ukc --k=8 --stream --chunk-size=8192
//
// Serving mode (resident multi-tenant core, serve/):
//   --serve            drive a simulated serving session: tenants
//                      absorb generated appends through the bounded
//                      admission queue while queries (centers /
//                      candidate cost / bracket) interleave
//   --serve-tenants    resident tenant streams
//   --serve-ops        mixed operations to drive
//   --serve-queue-cap  per-tenant admission queue bound (overload
//                      beyond it sheds the newest submission)
//   --serve-snapshot-dir   directory for per-tenant failover sidecars,
//                          each write fsynced (empty = snapshots off);
//                          the session ends with a kill-and-restore of
//                          tenant 0
//   --serve-snapshot-every acked appends between cadence snapshots
//   --deadline-us      per-query wall-clock budget (0 = unbounded)
//   --deadline-checks  per-query deterministic check budget (0 = off;
//                      overrides --deadline-us — the reproducible form)
//
//   build/examples/ukc_cli --serve --serve-tenants=4 --serve-ops=2000 \
//       --serve-snapshot-dir=/tmp/ukc --deadline-us=5000

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/deadline.h"
#include "common/flags.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/uncertain_kcenter.h"
#include "cost/expected_cost.h"
#include "exper/instances.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "stream/pipeline.h"
#include "uncertain/io.h"

namespace {

int Fail(const ukc::Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

// Shared flag parsers, so the stream and direct paths cannot drift.
ukc::Result<ukc::exper::Family> ParseFamily(const std::string& name) {
  if (name == "uniform") return ukc::exper::Family::kUniform;
  if (name == "clustered") return ukc::exper::Family::kClustered;
  if (name == "outlier") return ukc::exper::Family::kOutlier;
  if (name == "line") return ukc::exper::Family::kLine;
  return ukc::Status::InvalidArgument("unknown family " + name);
}

ukc::Result<ukc::exper::InstanceSpec> BuildSpec(const std::string& family,
                                                int64_t n, int64_t z,
                                                int64_t dim, int64_t k,
                                                double spread, int64_t seed) {
  ukc::exper::InstanceSpec spec;
  UKC_ASSIGN_OR_RETURN(spec.family, ParseFamily(family));
  spec.n = static_cast<size_t>(n);
  spec.z = static_cast<size_t>(z);
  spec.dim = static_cast<size_t>(dim);
  spec.k = static_cast<size_t>(k);
  spec.spread = spread;
  spec.seed = static_cast<uint64_t>(seed);
  return spec;
}

ukc::Result<ukc::solver::CertainSolverKind> ParseSolver(const std::string& name,
                                                        bool allow_exact) {
  if (name == "gonzalez") return ukc::solver::CertainSolverKind::kGonzalez;
  if (name == "hochbaum-shmoys") {
    return ukc::solver::CertainSolverKind::kHochbaumShmoys;
  }
  if (name == "gonzalez-refined") {
    return ukc::solver::CertainSolverKind::kGonzalezRefined;
  }
  if (name == "exact") {
    if (allow_exact) return ukc::solver::CertainSolverKind::kExact;
    return ukc::Status::InvalidArgument(
        "the exact solver is not supported in --stream mode (the coreset can "
        "hold thousands of cells)");
  }
  return ukc::Status::InvalidArgument("unknown solver " + name);
}

// A deterministic serving-mode batch: n uncertain points in
// [-10, 10]^dim with 1..3 locations each, a scaled-down cousin of the
// generator instances.
ukc::uncertain::UncertainPointBatch MakeServeBatch(ukc::Rng& rng, size_t n,
                                                  size_t dim) {
  ukc::uncertain::UncertainPointBatch batch;
  batch.dim = dim;
  batch.norm = ukc::metric::Norm::kL2;
  batch.offsets.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    const size_t locations = 1 + rng.Next() % 3;
    double total = 0.0;
    std::vector<double> weights(locations);
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

// Dumps the process-wide metrics registry to `path`: JSON when the
// path ends in ".json", Prometheus text exposition otherwise. Returns
// 0 / 1 as a process exit code contribution.
int WriteMetricsFile(const std::string& path) {
  if (path.empty()) return 0;
  const ukc::obs::MetricsRegistry& registry =
      ukc::obs::MetricsRegistry::Default();
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  // Open (and check) before exporting: a bad path fails fast with the
  // OS error instead of formatting an export nobody will receive.
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::cerr << "error: cannot open metrics file " << path << ": "
              << std::strerror(errno) << "\n";
    return 1;
  }
  out << (json ? registry.ExportJson() : registry.ExportPrometheus());
  out.flush();
  if (!out) {
    std::cerr << "error: cannot write metrics to " << path << ": "
              << std::strerror(errno) << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string generate = "clustered";
  int64_t n = 100;
  int64_t z = 4;
  int64_t dim = 2;
  double spread = 1.0;
  int64_t seed = 1;
  int64_t k = 3;
  std::string rule = "ED";
  std::string surrogate = "auto";
  std::string solver_name = "gonzalez";
  bool unassigned = false;
  int64_t mc = 0;
  int64_t threads = 1;
  bool serve_mode = false;
  int64_t serve_tenants = 4;
  int64_t serve_ops = 1000;
  int64_t serve_queue_cap = 64;
  std::string serve_snapshot_dir;
  int64_t serve_snapshot_every = 16;
  int64_t deadline_us = 0;
  int64_t deadline_checks = 0;
  int64_t window = 0;
  bool stream = false;
  int64_t chunk_size = 4096;
  int64_t shards = 0;
  int64_t max_cells = 4096;
  double base_cell_width = 1e-9;
  int64_t verify_buckets = 4096;
  std::string checkpoint;
  int64_t checkpoint_every = 64;
  int64_t retry_attempts = 3;
  std::string metrics_out;

  ukc::FlagParser flags;
  flags.AddString("input", &input, "dataset file (ukc text format)");
  flags.AddString("generate", &generate,
                  "instance family when no --input is given");
  flags.AddInt("n", &n, "generated points");
  flags.AddInt("z", &z, "locations per point");
  flags.AddInt("dim", &dim, "dimension");
  flags.AddDouble("spread", &spread, "support spread");
  flags.AddInt("seed", &seed, "generator seed");
  flags.AddInt("k", &k, "number of centers");
  flags.AddString("rule", &rule, "assignment rule: ED|EP|OC");
  flags.AddString("surrogate", &surrogate,
                  "auto|expected-point|one-center|modal");
  flags.AddString("solver", &solver_name,
                  "gonzalez|hochbaum-shmoys|gonzalez-refined|exact");
  flags.AddBool("unassigned", &unassigned, "also evaluate unassigned cost");
  flags.AddInt("mc", &mc, "Monte-Carlo cross-check samples (0 = off)");
  flags.AddInt("threads", &threads, "worker threads (<= 0 = hardware)");
  flags.AddBool("serve", &serve_mode,
                "drive a simulated multi-tenant serving session");
  flags.AddInt("serve-tenants", &serve_tenants, "serving: resident tenants");
  flags.AddInt("serve-ops", &serve_ops, "serving: mixed operations to drive");
  flags.AddInt("serve-queue-cap", &serve_queue_cap,
               "serving: per-tenant admission queue bound");
  flags.AddString("serve-snapshot-dir", &serve_snapshot_dir,
                  "serving: directory for failover sidecars (empty = off)");
  flags.AddInt("serve-snapshot-every", &serve_snapshot_every,
               "serving: acked appends between cadence snapshots");
  flags.AddInt("deadline-us", &deadline_us,
               "serving: per-query wall-clock budget in microseconds (0 = "
               "unbounded)");
  flags.AddInt("deadline-checks", &deadline_checks,
               "serving: deterministic per-query check budget (0 = off; "
               "overrides --deadline-us)");
  flags.AddInt("window", &window,
               "serving: sliding window in points per tenant — points older "
               "than the last N acked are retired deterministically (0 = "
               "keep everything)");
  flags.AddBool("stream", &stream, "run the chunked streaming pipeline");
  flags.AddInt("chunk-size", &chunk_size, "streaming: points per chunk");
  flags.AddInt("shards", &shards, "streaming: shard coresets (0 = threads)");
  flags.AddInt("max-cells", &max_cells, "streaming: coreset size target");
  flags.AddDouble("base-cell-width", &base_cell_width,
                  "streaming: level-0 grid cell width (supports coordinate "
                  "magnitudes up to ~1.76e13 x this)");
  flags.AddInt("verify-buckets", &verify_buckets,
               "streaming: verified-cost bracket resolution");
  flags.AddString("checkpoint", &checkpoint,
                  "streaming: crash-recovery sidecar path (empty = off); an "
                  "interrupted run re-launched with the same flags resumes "
                  "from the last checkpoint");
  flags.AddInt("checkpoint-every", &checkpoint_every,
               "streaming: batches between checkpoint saves");
  flags.AddInt("retry-attempts", &retry_attempts,
               "streaming: total tries per batch read (1 = no retry)");
  flags.AddString("metrics-out", &metrics_out,
                  "write the run's metrics registry to this file on exit "
                  "(Prometheus text; *.json = JSON export)");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    std::cerr << status << "\n" << flags.Usage("ukc_cli");
    return 1;
  }

  // Serving mode: a resident multi-tenant session driven by generated
  // appends and queries, reporting throughput, shed/degrade behavior,
  // query latency percentiles, and a closing kill-and-restore.
  if (serve_mode) {
    if (serve_tenants < 1 || serve_ops < 1 || serve_queue_cap < 1 ||
        serve_snapshot_every < 1 || k < 1 || dim < 1 || deadline_us < 0 ||
        deadline_checks < 0) {
      return Fail(ukc::Status::InvalidArgument(
          "--serve needs serve-tenants, serve-ops, serve-queue-cap, "
          "serve-snapshot-every, k, dim >= 1 and non-negative deadlines"));
    }
    if (window < 0) {
      return Fail(ukc::Status::InvalidArgument("--window must be >= 0"));
    }
    ukc::serve::RegistryOptions registry_options;
    registry_options.queue_capacity = static_cast<size_t>(serve_queue_cap);
    ukc::serve::TenantRegistry registry(registry_options);

    std::vector<std::string> ids;
    for (int64_t t = 0; t < serve_tenants; ++t) {
      ukc::serve::TenantConfig config;
      config.dim = static_cast<size_t>(dim);
      config.k = static_cast<size_t>(k);
      config.coreset.max_cells = static_cast<size_t>(max_cells);
      config.coreset.base_cell_width =
          base_cell_width > 1e-9 ? base_cell_width : 1e-3;
      config.snapshot_every_appends =
          static_cast<uint64_t>(serve_snapshot_every);
      config.window_points = static_cast<uint64_t>(window);
      const std::string id = "tenant-" + std::to_string(t);
      if (!serve_snapshot_dir.empty()) {
        config.snapshot_path = serve_snapshot_dir + "/" + id + ".ckpt";
        config.snapshot_sync = true;
      }
      if (auto created = registry.CreateTenant(id, config); !created.ok()) {
        return Fail(created.status());
      }
      ids.push_back(id);
    }

    const auto make_deadline = [&]() {
      if (deadline_checks > 0) return ukc::Deadline::AfterChecks(deadline_checks);
      if (deadline_us > 0) {
        return ukc::Deadline::After(std::chrono::microseconds(deadline_us));
      }
      return ukc::Deadline();
    };

    using Clock = std::chrono::steady_clock;
    ukc::Rng rng(static_cast<uint64_t>(seed));
    const auto session_start = Clock::now();
    for (int64_t op = 0; op < serve_ops; ++op) {
      const std::string& id = ids[rng.Next() % ids.size()];
      const uint64_t dice = rng.Next() % 100;
      if (dice < 55) {
        (void)registry.SubmitAppend(
            id, MakeServeBatch(rng, 1 + rng.Next() % 4,
                               static_cast<size_t>(dim)));
      } else if (dice < 70) {
        registry.Drain();
      } else if (dice < 85) {
        (void)registry.QueryCenters(id, make_deadline());
      } else if (dice < 95) {
        std::vector<double> candidates(static_cast<size_t>(dim));
        for (double& c : candidates) c = rng.UniformDouble(-10.0, 10.0);
        (void)registry.QueryCandidateCost(id, candidates, 1, make_deadline());
      } else {
        std::vector<double> candidates(static_cast<size_t>(dim));
        for (double& c : candidates) c = rng.UniformDouble(-10.0, 10.0);
        (void)registry.QueryBracket(id, candidates, 1, make_deadline());
      }
    }
    registry.Drain();
    const double session_ms = std::chrono::duration<double, std::milli>(
                                  Clock::now() - session_start)
                                  .count();

    // Closing failover drill: kill-and-restore tenant 0 from its
    // sidecar (the bitwise-replay guarantee itself is asserted by
    // tests/serve_test.cc; here we report the restore cost).
    double restore_ms = -1.0;
    uint64_t restored_epoch = 0;
    if (!serve_snapshot_dir.empty()) {
      const auto restore_start = Clock::now();
      const ukc::Status restored =
          registry.RestoreTenant(ids[0], &restored_epoch);
      if (restored.ok()) {
        restore_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                               restore_start)
                         .count();
      } else {
        std::cerr << "failover drill: " << restored << "\n";
      }
    }

    // The latency report comes off the per-tenant serving histograms
    // (the registry's telemetry, not an ad-hoc side vector): per-shape
    // series merged across tenants into one distribution.
    const ukc::serve::ServeStats& stats = registry.stats();
    const ukc::obs::RegistrySnapshot metrics_snapshot =
        registry.metrics_registry().Snapshot();
    const ukc::obs::HistogramSnapshot query_seconds =
        metrics_snapshot.HistogramTotal("ukc_serve_query_seconds");
    ukc::TablePrinter report({"metric", "value"});
    report.AddRowValues("tenants", static_cast<double>(serve_tenants));
    report.AddRowValues("ops driven", static_cast<double>(serve_ops));
    report.AddRowValues("session ms", session_ms);
    report.AddRowValues("appends applied",
                        static_cast<double>(stats.appends_applied));
    report.AddRowValues("appends shed (overload)",
                        static_cast<double>(stats.appends_shed));
    report.AddRowValues("appends refused (degraded)",
                        static_cast<double>(stats.appends_refused));
    report.AddRowValues("shed rate",
                        stats.appends_submitted == 0
                            ? 0.0
                            : static_cast<double>(stats.appends_shed) /
                                  static_cast<double>(stats.appends_submitted));
    if (window > 0) {
      report.AddRowValues("window points", static_cast<double>(window));
      report.AddRowValues("points expired",
                          static_cast<double>(stats.points_expired));
    }
    report.AddRowValues("snapshots saved",
                        static_cast<double>(stats.snapshots_saved));
    report.AddRowValues("tenants degraded",
                        static_cast<double>(stats.degrade_events));
    report.AddRowValues("tenants recovered",
                        static_cast<double>(stats.recover_events));
    report.AddRowValues("queries answered",
                        static_cast<double>(stats.queries_answered));
    report.AddRowValues("queries deadline-exceeded",
                        static_cast<double>(stats.queries_deadline_exceeded));
    // A quantile landing in the overflow bucket is a lower bound,
    // not an estimate; say so instead of understating the tail.
    const auto quantile_row = [&](const char* name, double q) {
      bool overflow = false;
      const double ms = query_seconds.Quantile(q, &overflow) * 1e3;
      std::ostringstream cell;
      cell << (overflow ? ">= " : "") << ms;
      report.AddRow({name, cell.str()});
    };
    quantile_row("query p50 ms", 0.50);
    quantile_row("query p95 ms", 0.95);
    quantile_row("query p99 ms", 0.99);
    report.AddRowValues("query mean ms", query_seconds.Mean() * 1e3);
    if (restore_ms >= 0.0) {
      report.AddRowValues("failover restore ms", restore_ms);
      report.AddRowValues("failover restored epoch",
                          static_cast<double>(restored_epoch));
    }
    report.Print(std::cout);
    return WriteMetricsFile(metrics_out);
  }

  // One worker pool for the run, lent to every stage that parallelizes.
  ukc::ThreadPool pool(static_cast<int>(threads));

  // Streaming mode: the file path never materializes the dataset; the
  // generated path materializes it once and streams it through the same
  // chunked pipeline (which then also reports the exact cost).
  if (stream) {
    // Reject configurations the streaming pipeline does not honor —
    // silently falling back would misreport what was computed.
    if (rule != "ED") {
      return Fail(ukc::Status::InvalidArgument(
          "--stream supports only --rule=ED (points are re-assigned by "
          "expected distance during the verification pass)"));
    }
    if (surrogate != "auto" && surrogate != "expected-point") {
      return Fail(ukc::Status::InvalidArgument(
          "--stream summarizes points by their expected-point surrogate; "
          "--surrogate=" + surrogate + " is not supported"));
    }
    if (unassigned || mc > 0) {
      return Fail(ukc::Status::InvalidArgument(
          "--unassigned and --mc are not supported in --stream mode"));
    }
    if (k <= 0 || chunk_size <= 0 || max_cells <= 0 || verify_buckets <= 0 ||
        shards < 0 || shards > 65536 || !(base_cell_width > 0.0)) {
      return Fail(ukc::Status::InvalidArgument(
          "--stream needs k, chunk-size, max-cells, verify-buckets >= 1, "
          "shards in [0, 65536] and base-cell-width > 0"));
    }
    if (checkpoint_every <= 0 || retry_attempts <= 0) {
      return Fail(ukc::Status::InvalidArgument(
          "--checkpoint-every and --retry-attempts must be >= 1"));
    }
    ukc::stream::StreamingOptions options;
    options.k = static_cast<size_t>(k);
    options.pool = &pool;
    options.ingest.chunk_size = static_cast<size_t>(chunk_size);
    options.ingest.shards = static_cast<int>(shards);
    options.ingest.coreset.max_cells = static_cast<size_t>(max_cells);
    options.ingest.coreset.base_cell_width = base_cell_width;
    options.ingest.checkpoint.path = checkpoint;
    options.ingest.checkpoint.every_n_batches =
        static_cast<uint64_t>(checkpoint_every);
    options.ingest.retry.max_attempts = static_cast<int>(retry_attempts);
    options.verify_buckets = static_cast<size_t>(verify_buckets);
    auto solver_kind = ParseSolver(solver_name, /*allow_exact=*/false);
    if (!solver_kind.ok()) return Fail(solver_kind.status());
    options.certain.kind = *solver_kind;
    ukc::stream::StreamingUncertainKCenter solver(options);
    ukc::Result<ukc::stream::StreamingSolution> solution =
        ukc::Status::Internal("unset");
    ukc::Result<ukc::uncertain::UncertainDataset> materialized =
        ukc::Status::Internal("unset");
    if (!input.empty()) {
      solution = solver.SolveFile(input);
    } else {
      auto spec = BuildSpec(generate, n, z, dim, k, spread, seed);
      if (!spec.ok()) return Fail(spec.status());
      materialized = ukc::exper::MakeInstance(*spec);
      if (!materialized.ok()) return Fail(materialized.status());
      solution = solver.SolveDataset(&materialized.value());
    }
    if (!solution.ok()) return Fail(solution.status());

    ukc::TablePrinter report({"metric", "value"});
    // The pipeline clamps k to the coreset size; surface it when fewer
    // centers were solved than requested.
    report.AddRowValues("k (effective)", static_cast<double>(solution->k));
    report.AddRowValues("points ingested",
                        static_cast<double>(solution->ingest_stats.points));
    report.AddRowValues("chunks", static_cast<double>(
                                      solution->ingest_stats.batches));
    if (!checkpoint.empty()) {
      report.AddRowValues("checkpoint saves",
                          static_cast<double>(
                              solution->ingest_stats.checkpoint_saves));
      report.AddRowValues("chunks restored from checkpoint",
                          static_cast<double>(
                              solution->ingest_stats.restored_batches));
    }
    report.AddRowValues("coreset cells",
                        static_cast<double>(solution->coreset_cells));
    report.AddRowValues("coreset level",
                        static_cast<double>(solution->coreset_level));
    report.AddRowValues("coreset error bound", solution->coreset_error_bound);
    report.AddRowValues("coreset memory (KiB)",
                        static_cast<double>(solution->coreset_memory_bytes) /
                            1024.0);
    report.AddRowValues("solve cost (on coreset)", solution->coreset_cost);
    report.AddRowValues("verified cost lower", solution->verified_lower);
    report.AddRowValues("verified cost upper", solution->verified_upper);
    report.AddRowValues("max expected distance",
                        solution->max_expected_distance);
    if (!std::isnan(solution->verified_exact)) {
      report.AddRowValues("verified cost (exact evaluator)",
                          solution->verified_exact);
    }
    report.AddRowValues("ingest ms", solution->timings.ingest_seconds * 1e3);
    report.AddRowValues("solve ms", solution->timings.solve_seconds * 1e3);
    report.AddRowValues("verify ms", solution->timings.verify_seconds * 1e3);
    report.Print(std::cout);
    return WriteMetricsFile(metrics_out);
  }

  // Materialize the dataset.
  ukc::Result<ukc::uncertain::UncertainDataset> dataset =
      ukc::Status::Internal("unset");
  if (!input.empty()) {
    dataset = ukc::uncertain::LoadDatasetFromFile(input);
  } else {
    auto spec = BuildSpec(generate, n, z, dim, k, spread, seed);
    if (!spec.ok()) return Fail(spec.status());
    dataset = ukc::exper::MakeInstance(*spec);
  }
  if (!dataset.ok()) return Fail(dataset.status());
  std::cout << "Instance: " << dataset->ToString() << "\n";

  // Configure the pipeline.
  ukc::core::UncertainKCenterOptions options;
  options.k = static_cast<size_t>(k);
  options.evaluate_unassigned = unassigned;
  options.pool = &pool;
  if (rule == "ED") {
    options.rule = ukc::cost::AssignmentRule::kExpectedDistance;
  } else if (rule == "EP") {
    options.rule = ukc::cost::AssignmentRule::kExpectedPoint;
  } else if (rule == "OC") {
    options.rule = ukc::cost::AssignmentRule::kOneCenter;
  } else {
    return Fail(ukc::Status::InvalidArgument("unknown rule " + rule));
  }
  if (surrogate == "expected-point") {
    options.surrogate = ukc::core::SurrogateKind::kExpectedPoint;
  } else if (surrogate == "one-center") {
    options.surrogate = ukc::core::SurrogateKind::kOneCenter;
  } else if (surrogate == "modal") {
    options.surrogate = ukc::core::SurrogateKind::kModal;
  } else if (surrogate != "auto") {
    return Fail(ukc::Status::InvalidArgument("unknown surrogate " + surrogate));
  }
  auto solver_kind = ParseSolver(solver_name, /*allow_exact=*/true);
  if (!solver_kind.ok()) return Fail(solver_kind.status());
  options.certain.kind = *solver_kind;

  auto solution = ukc::core::SolveUncertainKCenter(&dataset.value(), options);
  if (!solution.ok()) return Fail(solution.status());

  ukc::TablePrinter report({"metric", "value"});
  report.AddRowValues("expected cost (assigned, exact)",
                      solution->expected_cost);
  if (unassigned) {
    report.AddRowValues("expected cost (unassigned, exact)",
                        solution->unassigned_cost);
  }
  report.AddRowValues("certain radius on surrogates", solution->certain_radius);
  report.AddRow({"certain solver", solution->certain_algorithm});
  report.AddRowValues("certain factor f", solution->certain_factor);
  report.AddRowValues("surrogate ms",
                      solution->timings.surrogate_seconds * 1e3);
  report.AddRowValues("clustering ms",
                      solution->timings.clustering_seconds * 1e3);
  report.AddRowValues("assignment ms",
                      solution->timings.assignment_seconds * 1e3);
  report.AddRowValues("evaluation ms",
                      solution->timings.evaluation_seconds * 1e3);
  report.Print(std::cout);

  for (const auto& bound : solution->bounds) {
    std::cout << "guarantee: cost <= " << bound.factor << " x "
              << ukc::core::BoundReferenceToString(bound.reference) << "  ["
              << bound.theorem << "]\n";
  }

  if (mc > 0) {
    ukc::Rng rng(static_cast<uint64_t>(seed) + 1);
    auto estimate = ukc::cost::MonteCarloAssignedCost(
        *dataset, solution->assignment, mc, rng);
    if (!estimate.ok()) return Fail(estimate.status());
    std::cout << "Monte-Carlo cross-check: " << estimate->mean << " +/- "
              << estimate->std_error << " (" << mc << " samples)\n";
  }
  return WriteMetricsFile(metrics_out);
}
