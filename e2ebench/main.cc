// e2e_bench: runs one workload of the end-to-end benchmark.
//
//   e2e_bench --workload solve|stream|serve --seed N --seconds S
//             --trace 0|1 --tmp-root DIR
//
// Prints a provenance line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 when the
// run completed (check failures are reported in the JSON), 2 on bad
// arguments or when the run could not start. run.py builds this binary
// and completes the metric set against BENCHMARK.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "workloads.h"

#ifndef UKC_BENCH_BUILD_TYPE
#define UKC_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

// The benchmark's worker count: one shared pool, never more threads
// than cores.
constexpr int kMaxThreads = 4;

// Per-run scratch directory under the tmp root, removed on scope exit
// (including the early returns of a failed run).
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& root) {
    std::filesystem::create_directories(root);
    std::string pattern = (root / "run-XXXXXX").string();
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// JSON string literal (the inputs here are plain ASCII).
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// Keeps every pool thread busy for about a second before anything is
// timed: on the virtualized hosts this runs on, a process's first
// second runs measurably slower than the rest, which would otherwise
// land in the set-up timings.
void WarmUp(ukc::ThreadPool& pool) {
  const e2e::Clock::time_point start = e2e::Clock::now();
  std::vector<double> sinks(pool.num_threads());
  pool.ParallelFor(pool.num_threads(), [&](int, size_t task) {
    double x = 1.0;
    while (e2e::SecondsSince(start) < 1.0) {
      for (int i = 0; i < 1000; ++i) x = x * 1.0000001 + 1e-9;
    }
    sinks[task] = x;
  });
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload solve|stream|serve "
               "--seed N --seconds S --trace 0|1 --tmp-root DIR\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string tmp_root;
  e2e::RunContext ctx;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(ctx.seconds > 0.0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      ctx.trace = value == "1";
    } else if (flag == "--tmp-root") {
      tmp_root = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_seed) return Usage("--seed takes a whole number");
  if (tmp_root.empty()) return Usage("--tmp-root is required");
  e2e::RunResult (*run)(const e2e::RunContext&) = nullptr;
  if (workload == "solve") run = e2e::RunSolve;
  if (workload == "stream") run = e2e::RunStream;
  if (workload == "serve") run = e2e::RunServe;
  if (run == nullptr) return Usage("unknown --workload");

  TempDir temp(tmp_root);
  if (temp.path().empty()) return Usage("cannot create the run directory");
  ctx.temp_dir = temp.path();

  const int threads = std::min(ukc::ThreadPool::HardwareThreads(), kMaxThreads);
  ukc::ThreadPool pool(threads);
  ctx.pool = &pool;

  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"threads\": %d, \"nproc\": %u, \"cpu_model\": %s, "
      "\"build_type\": %s, \"ukc_obs\": %d, \"ukc_fault_injection\": %d}}\n",
      Quote(workload).c_str(), static_cast<unsigned long long>(ctx.seed),
      Number(ctx.seconds).c_str(), ctx.trace ? 1 : 0, pool.num_threads(),
      std::thread::hardware_concurrency(), Quote(CpuModel()).c_str(),
      Quote(UKC_BENCH_BUILD_TYPE).c_str(), ukc::obs::kEnabled ? 1 : 0,
      UKC_FAULT_INJECTION ? 1 : 0);
  std::fflush(stdout);

  WarmUp(pool);
  e2e::RunResult result = run(ctx);
  for (const e2e::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.Fail(workload + ": metric " + metric.name + " is not finite");
    }
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  result.attempted =
      std::max<uint64_t>(result.attempted, std::max<uint64_t>(result.failed, 1));

  std::string metrics;
  for (const e2e::Metric& metric : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(metric.name) + ": {\"value\": " +
               Number(std::isfinite(metric.value) ? metric.value : 0.0) +
               ", \"unit\": " + Quote(metric.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
