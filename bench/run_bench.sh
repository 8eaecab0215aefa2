#!/usr/bin/env bash
# Runs the google-benchmark micro-benchmarks and writes BENCH_micro.json
# at the repo root, so the performance trajectory of the hot paths is
# tracked in-tree PR over PR. Extra arguments are forwarded to
# micro_bench (e.g. --benchmark_filter=BM_ExactExpectedCost).
#
#   bench/run_bench.sh [micro_bench args...]
#
# Set BUILD_DIR to reuse an existing build tree (defaults to ./build).
# Refuses to run on a dirty tree: the recorded SHA must name the code
# that was measured.

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
  cmake -B "$build" -S "$root"
fi
cmake --build "$build" -j --target micro_bench

# Provenance recorded into the JSON context (micro_bench main): the
# commit the numbers were measured at, plus thread count / sizes.
UKC_GIT_SHA="$sha" \
"$build/micro_bench" \
  --benchmark_out="$root/BENCH_micro.json" \
  --benchmark_out_format=json \
  "$@"

echo "Wrote $root/BENCH_micro.json"
