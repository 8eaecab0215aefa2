#!/usr/bin/env python3
"""End-to-end benchmark runner: builds e2e_bench and runs one workload.

    python3 e2ebench/run.py --workload solve|stream|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (and the library sources under src/) into $CARGO_TARGET_DIR,
default .bench_build; later runs only rebuild what changed. Build output
goes to stderr.

Standard output: one provenance line, then as the last line the result
{"correct", "attempted", "failed", "metrics"}. The metric set and units
are checked against BENCHMARK.json (end_to_end untraced, per_layer
traced), whose names must match those e2ebench/metrics.json describes;
a per-layer metric a workload does not reach is
reported as 0. Exits non-zero, printing no result, when the build, the
run or that check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "unassigned.h")):
        fail("library sources not found under src/; run from a full checkout")
    build_dir = os.path.join(build_root, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_bench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    return os.path.join(build_dir, "e2e_bench")


def git(*args):
    """Output of a git command on this checkout; None when the checkout
    is not itself a git work tree."""
    def run(*command):
        try:
            done = subprocess.run(["git", "-C", ROOT, *command],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = run("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return run(*args)


def source_digest():
    """sha256 over the library and benchmark sources, so a record names
    the code it measured even where there is no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def load_inventory():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    with open(os.path.join(BENCH_DIR, "metrics.json")) as handle:
        inventory = json.load(handle)
    for kind in ("end_to_end", "per_layer"):
        declared = sorted(m["name"] for m in benchmark[kind])
        described = sorted(inventory[kind])
        if declared != described:
            fail(f"BENCHMARK.json and e2ebench/metrics.json list different "
                 f"{kind} metrics")
    return benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    benchmark = load_inventory()
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        fail(f"unknown workload {args.workload}")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--tmp-root", os.path.join(build_root, "tmp")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail(f"e2e_bench exited {done.returncode}")
    try:
        provenance = json.loads(lines[0])["provenance"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as error:
        fail(f"unreadable e2e_bench output: {error}")

    dirty = git("status", "--porcelain")
    provenance.update({
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if dirty is None else bool(dirty),
        "source_sha256": source_digest(),
    })
    print(json.dumps({"provenance": provenance}))

    declared = benchmark["per_layer" if args.trace == "1" else "end_to_end"]
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        fail(f"e2e_bench reported undeclared metrics {sorted(unknown)}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in measured:
            if args.trace == "0":
                fail(f"{args.workload} did not report {name}")
            measured[name] = {"value": 0, "unit": unit}
        if measured[name]["unit"] != unit:
            fail(f"{name} reported in {measured[name]['unit']}, declared {unit}")
        metrics[name] = measured[name]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
