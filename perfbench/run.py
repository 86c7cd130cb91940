#!/usr/bin/env python3
"""Builds qdlp_perfbench from this checkout and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {replay-grid|cache-churn|serve-churn} \
        --seed N --seconds S --trace {0|1}

The first run configures and builds the benchmark (CMake, Release) into
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr. The benchmark's stdout is passed through; its last line is
the JSON result. The metric names in that line are checked against
BENCHMARK.json: every end-to-end metric with --trace 0, every per-layer
metric with --trace 1. The exit status is the benchmark's, or 1 when the
build fails, the run times out or the metric set is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "qdlp_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "qdlp_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, check=False)
        except OSError as error:
            print(f"perfbench: cannot run {step[0]}: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay-grid", "cache-churn", "serve-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", default="",
                        help="falsify one output check (self-test only)")
    args = parser.parse_args()

    if not build():
        return 1
    out_dir = os.path.join(ROOT, ".bench_build", "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(done.stdout)
        print(f"perfbench: no JSON result (exit {done.returncode})",
              file=sys.stderr)
        return done.returncode or 1
    status = done.returncode
    names = list(result.get("metrics", {}))
    expected = expected_metrics(args.trace)
    if sorted(names) != sorted(expected):
        print("perfbench: metrics differ from BENCHMARK.json; missing "
              f"{sorted(set(expected) - set(names))}, unexpected "
              f"{sorted(set(names) - set(expected))}", file=sys.stderr)
        result["correct"] = False
        lines[-1] = json.dumps(result)
        status = status or 1
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
