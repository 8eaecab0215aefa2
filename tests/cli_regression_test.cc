// End-to-end regressions against the built ukc_cli binary (path baked
// in by CMake as UKC_CLI_BIN). These pin the CLI's *process contract* —
// exit codes, stderr wording, file side effects — which unit tests on
// the library can't see:
//   - --metrics-out to an unopenable path fails FAST with the OS error
//     on stderr and a non-zero exit, instead of running the whole
//     workload and then silently dropping the export (the bug: the
//     file was opened only after the run finished).
//   - The happy path writes a non-empty export in the format the
//     extension picks (.json = JSON, else Prometheus text).
//   - --serve --window drives the sliding-window serving path and
//     reports the expiry counters.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#ifndef UKC_CLI_BIN
#error "UKC_CLI_BIN must be defined to the built ukc_cli path"
#endif

namespace ukc {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved.
};

RunResult RunCli(const std::string& arguments) {
  const std::string command = std::string(UKC_CLI_BIN) + " " + arguments + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t read = 0;
  while ((read = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Tiny but real workloads. The serve session meters into the default
// registry (query latency histograms, churn counters), so its export
// has content; the plain solve run is the cheapest way to reach the
// exit path.
const char kTinyRun[] = "--generate clustered --n 30 --z 2 --dim 2 --k 2";
const char kTinyServeRun[] =
    "--serve --serve-tenants 2 --serve-ops 200 --k 2 --dim 2 --seed 7 "
    "--threads 1";

TEST(CliRegressionTest, UnopenableMetricsPathFailsFastWithOsError) {
  const std::string bad = "/nonexistent-ukc-dir/metrics.json";
  const auto result = RunCli(std::string(kTinyRun) + " --metrics-out " + bad);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("cannot open metrics file"), std::string::npos)
      << result.output;
  // The OS error is part of the message (ENOENT here).
  EXPECT_NE(result.output.find("No such file or directory"), std::string::npos)
      << result.output;
  std::ifstream check(bad);
  EXPECT_FALSE(check.good()) << "a partial metrics file was left behind";
}

TEST(CliRegressionTest, MetricsOutWritesJsonOrPrometheusByExtension) {
  const std::string json_path = TempPath("cli_metrics.json");
  const std::string prom_path = TempPath("cli_metrics.prom");
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());

  const auto json_run =
      RunCli(std::string(kTinyServeRun) + " --metrics-out " + json_path);
  EXPECT_EQ(json_run.exit_code, 0) << json_run.output;
  std::ifstream json_file(json_path);
  ASSERT_TRUE(json_file.good());
  std::stringstream json_text;
  json_text << json_file.rdbuf();
  EXPECT_EQ(json_text.str().rfind("{\"metrics\":", 0), 0u) << json_text.str();
  EXPECT_NE(json_text.str().find("ukc_serve"), std::string::npos);

  const auto prom_run =
      RunCli(std::string(kTinyServeRun) + " --metrics-out " + prom_path);
  EXPECT_EQ(prom_run.exit_code, 0) << prom_run.output;
  std::ifstream prom_file(prom_path);
  ASSERT_TRUE(prom_file.good());
  std::stringstream prom_text;
  prom_text << prom_file.rdbuf();
  EXPECT_NE(prom_text.str().find("# TYPE"), std::string::npos)
      << prom_text.str();

  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
}

TEST(CliRegressionTest, ServeWindowDrivesExpiryAndReportsIt) {
  const auto result = RunCli(
      "--serve --serve-tenants 2 --serve-ops 400 --k 2 --dim 2 "
      "--window 16 --seed 7 --threads 1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("window points"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("points expired"), std::string::npos)
      << result.output;
  // A negative window is rejected up front.
  const auto bad = RunCli("--serve --window -1");
  EXPECT_NE(bad.exit_code, 0);
}

// A coordinate of 1e200 squares past DBL_MAX: --unassigned used to exit
// 0 with "expected cost ... inf" and still print the guarantee lines,
// while --stream refused the same file with a different error. Both
// must now fail with the one INVALID_ARGUMENT of the shared coordinate
// domain check.
TEST(CliRegressionTest, OverflowingCoordinateIsRefusedOnEveryPath) {
  const std::string path = TempPath("cli_overflow.ukc");
  {
    std::ofstream file(path);
    file << "ukc-dataset 1\ndim 2\nn 3\n"
         << "point 1\n1 0 0\n"
         << "point 1\n1 1 1\n"
         << "point 1\n1 1e200 0\n";
  }
  const char kCore[] =
      "INVALID_ARGUMENT: ReadChunk: point 2: location 0 coordinate 0 is "
      "1e+200; coordinates must be finite";
  const auto unassigned = RunCli("--input " + path + " --k 1 --unassigned");
  EXPECT_NE(unassigned.exit_code, 0) << unassigned.output;
  EXPECT_NE(unassigned.output.find(kCore), std::string::npos)
      << unassigned.output;
  EXPECT_EQ(unassigned.output.find("expected cost"), std::string::npos)
      << unassigned.output;
  EXPECT_EQ(unassigned.output.find("Theorem"), std::string::npos)
      << unassigned.output;

  const auto streamed = RunCli("--input " + path + " --k 1 --stream");
  EXPECT_NE(streamed.exit_code, 0) << streamed.output;
  EXPECT_NE(streamed.output.find(kCore), std::string::npos) << streamed.output;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ukc
