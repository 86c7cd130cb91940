#!/usr/bin/env python3
"""Compare two BENCH_*.json files and fail on throughput regression.

Usage:
    tools/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.15]
        [--require NAME:MIN ...] [--ceiling NAME.PATH:MAX ...]
        [--check-stats] [--max-threads N]

Both files must be schema_version 1 outputs of the bench binaries (see
bench/bench_json.h). Results are keyed by the full benchmark name (which
encodes policy, args, and thread count). For every benchmark present in
BOTH files, the candidate's ops_per_sec must not fall more than
--threshold (default 15%) below the baseline's. Benchmarks present in only
one file are reported but never fail the run — adding or retiring a
benchmark family is not a regression.

--require NAME:MIN (repeatable) additionally asserts an absolute floor:
the candidate's ops_per_sec for NAME must be >= MIN. Intended for
machine-independent rows such as sweep_throughput's "sweep/speedup" ratio,
where a hard floor is meaningful on any runner; a required name missing
from the candidate is a failure.

--ceiling NAME.PATH:MAX (repeatable) asserts an absolute ceiling on a
dotted path inside a candidate row — built for the serving bench's latency
block, e.g. --ceiling "server/qps.latency_us.p99:50000". The benchmark
name is everything before the first dot that resolves to a row; the rest
is looked up field by field. A missing row or path is a failure.

--check-stats validates the candidate's telemetry: every result row must
carry a "stats" block (the cache's own Stats() counters, see
docs/OBSERVABILITY.md) with all integer counter fields present,
hits + misses == requests, and a nonzero request count. Rows carrying a
"latency_us" block (serving benches, see bench/server_qps.cc) must have
numeric non-negative p50/p99/p999/max with p50 <= p99 <= p999 <= max.
This is the CI bench-smoke guard against a bench binary silently losing
its stats or latency wiring.

--max-threads N (default: this machine's core count) excludes rows with a
"threads" value above N from the regression comparison: thread counts
beyond the runner's cores measure scheduler noise, not the cache, so a
baseline recorded on a bigger machine must not fail CI on a smaller one.
Skipped rows are listed, and --check-stats still validates them. Pass 0 to
disable the filter and compare every common row.

Exit status: 0 = no regression, 1 = at least one regression or unmet
--require floor, 2 = bad input.
"""

import argparse
import json
import os
import sys

# Keep in sync with kCacheStatsFields in src/obs/cache_stats.h.
STATS_FIELDS = (
    "requests", "hits", "misses", "inserts", "evictions", "promotions",
    "demotions", "ghost_hits", "lock_acquisitions", "lock_failures",
    "buffer_drops", "drain_batch_le8", "drain_batch_le64",
    "drain_batch_gt64", "size", "probation_size", "main_size", "ghost_size",
)


def check_stats_block(name, row):
    """Returns a list of problems with the row's "stats" block."""
    stats = row.get("stats")
    if not isinstance(stats, dict):
        return [f"{name}: missing stats block"]
    problems = []
    for field in STATS_FIELDS:
        value = stats.get(field)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(
                f"{name}: stats.{field} is {value!r}, expected a"
                " non-negative integer")
    if problems:
        return problems
    if stats["requests"] == 0:
        problems.append(f"{name}: stats.requests is 0 (nothing measured)")
    if stats["hits"] + stats["misses"] != stats["requests"]:
        problems.append(
            f"{name}: stats.hits + stats.misses != stats.requests "
            f"({stats['hits']} + {stats['misses']} != {stats['requests']})")
    return problems


# Keep in sync with the latency_us block in bench/bench_json.h.
LATENCY_FIELDS = ("p50", "p99", "p999", "max")


def check_latency_block(name, row):
    """Returns a list of problems with the row's "latency_us" block.

    The block is optional (only serving benches emit it); when present it
    must be complete and ordered.
    """
    latency = row.get("latency_us")
    if latency is None:
        return []
    if not isinstance(latency, dict):
        return [f"{name}: latency_us is {latency!r}, expected an object"]
    problems = []
    for field in LATENCY_FIELDS:
        value = latency.get(field)
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or value < 0):
            problems.append(
                f"{name}: latency_us.{field} is {value!r}, expected a"
                " non-negative number")
    if problems:
        return problems
    ordered = [latency[field] for field in LATENCY_FIELDS]
    if ordered != sorted(ordered):
        problems.append(
            f"{name}: latency_us percentiles not monotone: "
            f"p50={ordered[0]:g} p99={ordered[1]:g} p999={ordered[2]:g} "
            f"max={ordered[3]:g}")
    return problems


def resolve_ceiling_path(candidate, spec_path):
    """Splits "NAME.PATH" into (row, value) for a --ceiling spec.

    Benchmark names may themselves contain dots, so try the longest row
    name first. Returns (row_name, value) or (None, reason).
    """
    for split in range(len(spec_path), 0, -1):
        if spec_path[split:split + 1] not in ("", "."):
            continue
        name, rest = spec_path[:split], spec_path[split + 1:]
        if name not in candidate:
            continue
        value = candidate[name]
        for field in rest.split(".") if rest else []:
            if not isinstance(value, dict) or field not in value:
                return None, f"no field {rest!r} in row {name!r}"
            value = value[field]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None, f"{spec_path}: value {value!r} is not numeric"
        return name, value
    return None, f"no candidate row matches {spec_path!r}"


def load_results(path):
    """Returns {benchmark_name: result_dict} from a bench JSON file."""
    def bad_input(message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        bad_input(f"cannot read {path}: {err}")
    if doc.get("schema_version") != 1:
        bad_input(f"{path}: unsupported schema_version "
                  f"{doc.get('schema_version')!r} (expected 1)")
    results = {}
    for row in doc.get("results", []):
        name = row.get("benchmark")
        if not name or not isinstance(row.get("ops_per_sec"), (int, float)):
            bad_input(f"{path}: malformed result row: {row!r}")
        results[name] = row
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json files; fail on ops/s regression.")
    parser.add_argument("baseline", help="baseline BENCH JSON")
    parser.add_argument("candidate", help="candidate BENCH JSON")
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="max tolerated fractional ops/s drop (default 0.15 = 15%%)")
    parser.add_argument(
        "--require", action="append", default=[], metavar="NAME:MIN",
        help="absolute ops_per_sec floor for one benchmark in the candidate"
             " (repeatable)")
    parser.add_argument(
        "--ceiling", action="append", default=[], metavar="NAME.PATH:MAX",
        help="absolute ceiling on a dotted path inside one candidate row,"
             " e.g. 'server/qps.latency_us.p99:50000' (repeatable)")
    parser.add_argument(
        "--check-stats", action="store_true",
        help="require a well-formed stats block on every candidate row")
    parser.add_argument(
        "--max-threads", type=int, default=None, metavar="N",
        help="skip regression comparison for rows with threads > N"
             " (default: this machine's core count; 0 disables the filter)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.threshold < 1.0:
        parser.error("--threshold must be in [0, 1)")
    floors = {}
    for spec in args.require:
        name, sep, minimum = spec.rpartition(":")
        try:
            floors[name] = float(minimum)
        except ValueError:
            sep = ""
        if not sep or not name:
            parser.error(f"--require expects NAME:MIN, got {spec!r}")
    ceilings = {}
    for spec in args.ceiling:
        path, sep, maximum = spec.rpartition(":")
        try:
            ceilings[path] = float(maximum)
        except ValueError:
            sep = ""
        if not sep or not path:
            parser.error(f"--ceiling expects NAME.PATH:MAX, got {spec!r}")

    max_threads = args.max_threads
    if max_threads is None:
        max_threads = os.cpu_count() or 0

    baseline = load_results(args.baseline)
    candidate = load_results(args.candidate)

    common = sorted(set(baseline) & set(candidate))
    only_base = sorted(set(baseline) - set(candidate))
    only_cand = sorted(set(candidate) - set(baseline))
    if not common:
        print("error: no benchmarks in common between "
              f"{args.baseline} and {args.candidate}", file=sys.stderr)
        return 2
    oversubscribed = []
    if max_threads > 0:
        oversubscribed = [
            name for name in common
            if int(candidate[name].get("threads", 1)) > max_threads]
        common = [name for name in common if name not in set(oversubscribed)]
    if not common and not (floors or ceilings or args.check_stats):
        print("error: every common benchmark exceeds --max-threads "
              f"{max_threads}; nothing to compare", file=sys.stderr)
        return 2
    if not common:
        # Nothing survives the thread filter, but absolute gates
        # (--require/--ceiling/--check-stats) are machine-independent and
        # still meaningful — e.g. gating server/qps (threads=2) on a
        # single-core CI runner.
        print(f"note: every common benchmark exceeds --max-threads "
              f"{max_threads}; relative comparison skipped")

    regressions = []
    width = max((len(name) for name in common), default=0)
    if common:
        print(f"{'benchmark':<{width}}  {'baseline':>14}  {'candidate':>14}  "
              f"{'delta':>8}")
    for name in common:
        base_ops = float(baseline[name]["ops_per_sec"])
        cand_ops = float(candidate[name]["ops_per_sec"])
        if base_ops <= 0.0:
            delta_str, regressed = "n/a", False
        else:
            delta = cand_ops / base_ops - 1.0
            delta_str = f"{delta:+8.1%}"
            regressed = delta < -args.threshold
        flag = "  << REGRESSION" if regressed else ""
        print(f"{name:<{width}}  {base_ops:>14,.0f}  {cand_ops:>14,.0f}  "
              f"{delta_str}{flag}")
        if regressed:
            regressions.append(name)

    for name in oversubscribed:
        print(f"note: {name} skipped "
              f"(threads > --max-threads {max_threads}; informational only)")
    for name in only_base:
        print(f"note: {name} only in baseline (removed?)")
    for name in only_cand:
        print(f"note: {name} only in candidate (new)")

    stats_problems = []
    if args.check_stats:
        for name in sorted(candidate):
            stats_problems.extend(check_stats_block(name, candidate[name]))
            stats_problems.extend(check_latency_block(name, candidate[name]))
        if not stats_problems:
            with_latency = sum(
                1 for row in candidate.values() if "latency_us" in row)
            print(f"stats: {len(candidate)} candidate row(s) carry a "
                  "consistent stats block"
                  + (f" ({with_latency} with latency_us)"
                     if with_latency else ""))

    unmet = []
    for name, minimum in sorted(floors.items()):
        if name not in candidate:
            unmet.append(f"{name}: missing from candidate (floor {minimum:g})")
            continue
        ops = float(candidate[name]["ops_per_sec"])
        status = "ok" if ops >= minimum else "UNMET"
        print(f"floor: {name} >= {minimum:g}: {ops:g} ({status})")
        if ops < minimum:
            unmet.append(f"{name}: {ops:g} < floor {minimum:g}")
    for path, maximum in sorted(ceilings.items()):
        row_name, value = resolve_ceiling_path(candidate, path)
        if row_name is None:
            unmet.append(f"{path}: {value} (ceiling {maximum:g})")
            continue
        status = "ok" if value <= maximum else "UNMET"
        print(f"ceiling: {path} <= {maximum:g}: {value:g} ({status})")
        if value > maximum:
            unmet.append(f"{path}: {value:g} > ceiling {maximum:g}")

    if regressions or unmet or stats_problems:
        if regressions:
            print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more "
                  f"than {args.threshold:.0%}:", file=sys.stderr)
            for name in regressions:
                print(f"  {name}", file=sys.stderr)
        if unmet:
            print(f"\nFAIL: {len(unmet)} floor/ceiling constraint(s) unmet:",
                  file=sys.stderr)
            for line in unmet:
                print(f"  {line}", file=sys.stderr)
        if stats_problems:
            print(f"\nFAIL: {len(stats_problems)} stats block problem(s):",
                  file=sys.stderr)
            for line in stats_problems:
                print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(common)} benchmark(s) within {args.threshold:.0%} of "
          "baseline"
          + (f", {len(floors)} floor(s) met" if floors else "")
          + (f", {len(ceilings)} ceiling(s) met" if ceilings else "")
          + "."
          + (" Stats blocks consistent." if args.check_stats else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
