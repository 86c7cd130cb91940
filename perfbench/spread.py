#!/usr/bin/env python3
"""Runs a workload on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload cache-churn [--runs 10]
        [--first-seed 1] [--seconds S]

For every end-to-end metric it prints the median and the interquartile
range (statistics.quantiles(values, n=4)) as a share of the median, next to
a third of the metric's bound from BENCHMARK.json: a steady benchmark keeps
every spread, setup_s's too, below that.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + ["--workload", args.workload, "--seed",
                                     str(seed), "--seconds", str(seconds),
                                     "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False)
        result = json.loads(done.stdout.strip().split("\n")[-1])
        if done.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {done.returncode})")
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)
    worst = 0.0
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        limit = metric["bound"] / 3
        flag = "" if spread < limit else "  WIDE"
        worst = max(worst, spread / limit)
        print(f"{metric['name']:>12}: median {median:.6g}  spread "
              f"{spread:.4f}  limit {limit:.4f}{flag}")
    return 0 if worst < 1.0 else 2


if __name__ == "__main__":
    sys.exit(main())
