// Shared glue for the table1_row* reproduction binaries: standard
// header printing and the ratio-measurement loops they share.

#ifndef UKC_BENCH_BENCH_COMMON_H_
#define UKC_BENCH_BENCH_COMMON_H_

#include <iostream>
#include <string>

#include "common/check.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "core/exact_tiny.h"
#include "core/uncertain_kcenter.h"
#include "exper/instances.h"
#include "exper/reference.h"

namespace ukc {
namespace bench {

/// Prints the standard bench banner.
inline void PrintBanner(const std::string& title, const std::string& claim) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "Paper claim: " << claim << "\n"
            << "==============================================================\n";
}

/// Result of one ratio measurement.
struct RatioSample {
  double algorithm_cost = 0.0;
  double reference = 0.0;
  double ratio = 0.0;
  double seconds = 0.0;
};

/// Runs the pipeline on a fresh instance and measures the ratio against
/// the exact unrestricted optimum over the dense candidate set (tiny
/// instances only).
inline Result<RatioSample> MeasureAgainstTinyUnrestricted(
    const exper::InstanceSpec& spec, const core::UncertainKCenterOptions& options) {
  UKC_ASSIGN_OR_RETURN(uncertain::UncertainDataset dataset,
                       exper::MakeInstance(spec));
  Stopwatch stopwatch;
  UKC_ASSIGN_OR_RETURN(core::UncertainKCenterSolution solution,
                       core::SolveUncertainKCenter(&dataset, options));
  RatioSample sample;
  sample.seconds = stopwatch.ElapsedSeconds();
  sample.algorithm_cost = solution.expected_cost;
  UKC_ASSIGN_OR_RETURN(std::vector<metric::SiteId> candidates,
                       core::DefaultCandidateSites(&dataset));
  UKC_ASSIGN_OR_RETURN(
      core::ExactUncertainSolution reference,
      core::ExactUnrestrictedAssigned(&dataset, options.k, candidates));
  sample.reference = reference.expected_cost;
  sample.ratio = sample.reference > 0.0
                     ? sample.algorithm_cost / sample.reference
                     : 1.0;
  return sample;
}

/// Same, but against the exact *restricted* optimum under the pipeline's
/// own rule.
inline Result<RatioSample> MeasureAgainstTinyRestricted(
    const exper::InstanceSpec& spec, const core::UncertainKCenterOptions& options) {
  UKC_ASSIGN_OR_RETURN(uncertain::UncertainDataset dataset,
                       exper::MakeInstance(spec));
  Stopwatch stopwatch;
  UKC_ASSIGN_OR_RETURN(core::UncertainKCenterSolution solution,
                       core::SolveUncertainKCenter(&dataset, options));
  RatioSample sample;
  sample.seconds = stopwatch.ElapsedSeconds();
  sample.algorithm_cost = solution.expected_cost;
  UKC_ASSIGN_OR_RETURN(std::vector<metric::SiteId> candidates,
                       core::DefaultCandidateSites(&dataset));
  UKC_ASSIGN_OR_RETURN(core::ExactUncertainSolution reference,
                       core::ExactRestrictedAssigned(&dataset, options.k,
                                                     options.rule, candidates));
  sample.reference = reference.expected_cost;
  sample.ratio = sample.reference > 0.0
                     ? sample.algorithm_cost / sample.reference
                     : 1.0;
  return sample;
}

/// Ratio against the certified instance lower bound (any size).
inline Result<RatioSample> MeasureAgainstLowerBound(
    const exper::InstanceSpec& spec, const core::UncertainKCenterOptions& options) {
  UKC_ASSIGN_OR_RETURN(uncertain::UncertainDataset dataset,
                       exper::MakeInstance(spec));
  Stopwatch stopwatch;
  UKC_ASSIGN_OR_RETURN(core::UncertainKCenterSolution solution,
                       core::SolveUncertainKCenter(&dataset, options));
  RatioSample sample;
  sample.seconds = stopwatch.ElapsedSeconds();
  sample.algorithm_cost = solution.expected_cost;
  UKC_ASSIGN_OR_RETURN(exper::LowerBoundReport bound,
                       exper::UnrestrictedLowerBound(&dataset, options.k));
  sample.reference = bound.combined;
  sample.ratio = sample.reference > 0.0
                     ? sample.algorithm_cost / sample.reference
                     : 1.0;
  return sample;
}

}  // namespace bench
}  // namespace ukc

#endif  // UKC_BENCH_BENCH_COMMON_H_
