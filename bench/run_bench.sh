#!/usr/bin/env bash
# Runs the google-benchmark micro-benchmarks and writes BENCH_micro.json
# at the repo root: the recorded evidence for the options, constants and
# fast paths the rows' comments name. Extra arguments are forwarded to
# micro_bench (e.g. --benchmark_filter=BM_UnassignedCost).
#
#   bench/run_bench.sh [micro_bench args...]
#
# Set BUILD_DIR to reuse an existing build tree (defaults to ./build).
# Refuses to run on a dirty tree (the recorded SHA must name the code
# that was measured) and on a tree that is not a plain Release build.
# `ctest -L bench` in the build tree runs every row once first.

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$root/build}"

if ! status="$(git -C "$root" status --porcelain)"; then
  echo "run_bench.sh: $root is not a git checkout" >&2
  exit 1
fi
if [[ -n "$status" ]]; then
  echo "run_bench.sh: the working tree has uncommitted changes; commit or" \
       "stash them first" >&2
  exit 1
fi
sha="$(git -C "$root" rev-parse HEAD)"

# Always (re)build so the recorded numbers match the working tree; the
# incremental build is a no-op when nothing changed.
if [[ ! -d "$build" ]]; then
  cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release
fi
cache_value() {
  sed -n "s/^$1:[A-Z]*=//p" "$build/CMakeCache.txt"
}
if [[ "$(cache_value CMAKE_BUILD_TYPE)" != Release ||
      -n "$(cache_value UKC_SANITIZE)" ]]; then
  echo "run_bench.sh: $build is not a plain Release tree" \
       "(CMAKE_BUILD_TYPE=$(cache_value CMAKE_BUILD_TYPE)," \
       "UKC_SANITIZE=$(cache_value UKC_SANITIZE)); reconfigure it with" \
       "-DCMAKE_BUILD_TYPE=Release -DUKC_SANITIZE=" >&2
  exit 1
fi
cmake --build "$build" -j "$(nproc)" --target micro_bench

# Provenance recorded into the JSON context (micro_bench main): the
# commit the numbers were measured at, plus build type, thread count
# and sizes. Each row records the median (and mean, stddev) of 5
# repetitions, so one slow stretch of a shared box moves no verdict.
UKC_GIT_SHA="$sha" \
"$build/micro_bench" \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="$root/BENCH_micro.json" \
  --benchmark_out_format=json \
  "$@"

echo "Wrote $root/BENCH_micro.json"
