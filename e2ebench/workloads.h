// The three end-to-end workloads. Each builds its inputs from
// ctx.seed, measures for about ctx.seconds of timed sections, checks
// every output, and reports either the end-to-end metrics (untraced) or
// the per-layer split (traced). Metric names and meanings are listed
// in e2ebench/metrics.json.

#ifndef UKC_E2EBENCH_WORKLOADS_H_
#define UKC_E2EBENCH_WORKLOADS_H_

#include "bench_util.h"

namespace e2e {

/// Seeded local search on a uniform instance: the cost layer.
RunResult RunSolve(const RunContext& ctx);

/// Three-k streaming solve over one generated file: io, ingest,
/// checkpointing and the verification pass.
RunResult RunStream(const RunContext& ctx);

/// A closed-loop multi-tenant serving script: coreset writes, queries,
/// snapshots and failover.
RunResult RunServe(const RunContext& ctx);

}  // namespace e2e

#endif  // UKC_E2EBENCH_WORKLOADS_H_
