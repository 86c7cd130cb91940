// qdlp_sim — command-line cache simulator.
//
// Replays a trace (file or synthetic workload) through any set of policies
// at a ladder of cache sizes and prints a miss-ratio grid.
//
//   qdlp_sim --workload zipf,objects=50000,skew=1.0,requests=500000
//            --policies lru,arc,qd-lp-fifo,s3fifo --sizes 0.001,0.01,0.1
//   qdlp_sim --trace prod.oracleGeneral --policies lru,sieve --sizes 0.05
//
// Options:
//   --trace FILE          .bin (qdlp), .csv, or .oracleGeneral by extension
//   --workload SPEC       zipf | web | block | kv | phase, with key=value
//                         parameters (see --help output for keys)
//   --policies LIST       comma-separated policy names (see --list-policies)
//   --sizes LIST          cache sizes as fractions of unique objects
//   --objects LIST        cache sizes as absolute object counts
//   --threads N           sweep threads (default: hardware concurrency)
//   --csv FILE            also write the result grid as CSV
//   --stats               print trace statistics and exit
//   --mrc                 one-pass exact LRU miss-ratio curve (Mattson)
//   --mrc-sample R        SHARDS-sampled MRC at rate R instead of exact
//   --sized-web SPEC      variable-object-size mode: key=value params
//                         (requests, objects, skew, wonders, seed); sizes
//                         are byte fractions and policies come from the
//                         sized registry (sized-lru, gdsf, ...)
//   --stream              out-of-core mode: replay --trace chunk by chunk
//                         (src/sim/stream_replay.h) instead of loading it;
//                         accepts .zst-compressed traces, combines with
//                         --mrc-sample to emit a SHARDS MRC in the same
//                         pass, and ends with a peak-RSS summary line
//   --mem-budget-mb N     cap the stream id-mapper's resident memory at
//                         N MiB, spilling the id table to disk (implies
//                         --stream)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/sim/mrc.h"
#include "src/sim/simulator.h"
#include "src/sim/stack_distance.h"
#include "src/sim/stream_replay.h"
#include "src/sim/sweep.h"
#include "src/sized/sized_factory.h"
#include "src/sized/sized_trace.h"
#include "src/trace/generators.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/trace/workload_spec.h"
#include "src/util/rss.h"
#include "src/util/table.h"

namespace qdlp {
namespace {

using ParamMap = std::unordered_map<std::string, std::string>;

std::vector<std::string> SplitCommas(const std::string& value) {
  std::vector<std::string> parts;
  std::stringstream stream(value);
  std::string part;
  while (std::getline(stream, part, ',')) {
    if (!part.empty()) {
      parts.push_back(part);
    }
  }
  return parts;
}

double ParamDouble(const ParamMap& params, const std::string& key,
                   double fallback) {
  const auto it = params.find(key);
  return it == params.end() ? fallback : std::atof(it->second.c_str());
}

uint64_t ParamInt(const ParamMap& params, const std::string& key,
                  uint64_t fallback) {
  const auto it = params.find(key);
  return it == params.end()
             ? fallback
             : static_cast<uint64_t>(std::strtoull(it->second.c_str(), nullptr, 10));
}

std::optional<Trace> LoadTrace(const std::string& path) {
  const auto ends_with = [&](const char* suffix) {
    const size_t len = std::strlen(suffix);
    return path.size() >= len && path.compare(path.size() - len, len, suffix) == 0;
  };
  if (ends_with(".bin")) {
    return ReadTraceBinary(path);
  }
  if (ends_with(".oracleGeneral")) {
    return ReadTraceOracleGeneral(path);
  }
  return ReadTraceCsv(path);
}

// Variable-size mode: its own generator, factory, and (object + byte) grid.
int RunSized(const std::string& spec, std::vector<std::string> policies,
             std::vector<double> fractions, const std::string& csv_path) {
  const auto parts = SplitCommas(spec);
  ParamMap params;
  for (const auto& part : parts) {
    const size_t eq = part.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "error: sized-web parameter '%s' is not key=value\n",
                   part.c_str());
      return 2;
    }
    params[part.substr(0, eq)] = part.substr(eq + 1);
  }
  SizedWebConfig config;
  config.num_requests = ParamInt(params, "requests", 200000);
  config.num_objects = ParamInt(params, "objects", 20000);
  config.skew = ParamDouble(params, "skew", 0.9);
  config.one_hit_wonder_fraction = ParamDouble(params, "wonders", 0.15);
  config.seed = ParamInt(params, "seed", 1);
  const SizedTrace trace = GenerateSizedWeb(config);
  std::printf("sized trace: %zu requests, %llu objects, %llu MiB distinct\n",
              trace.requests.size(),
              static_cast<unsigned long long>(trace.num_objects),
              static_cast<unsigned long long>(trace.total_object_bytes >> 20));
  if (policies.empty()) {
    policies = KnownSizedPolicyNames();
  }
  if (fractions.empty()) {
    fractions = {0.01, 0.05, 0.20};
  }
  TablePrinter table({"policy", "byte budget", "object miss ratio",
                      "byte miss ratio"});
  for (const double fraction : fractions) {
    const uint64_t capacity = static_cast<uint64_t>(
        static_cast<double>(trace.total_object_bytes) * fraction);
    for (const auto& name : policies) {
      auto policy = MakeSizedPolicy(name, std::max<uint64_t>(1, capacity));
      if (policy == nullptr) {
        std::fprintf(stderr, "error: unknown sized policy '%s'; known:",
                     name.c_str());
        for (const auto& known : KnownSizedPolicyNames()) {
          std::fprintf(stderr, " %s", known.c_str());
        }
        std::fprintf(stderr, "\n");
        return 2;
      }
      const SizedSimResult result = ReplaySizedTrace(*policy, trace);
      table.AddRow({name, TablePrinter::FmtPercent(fraction, 1),
                    TablePrinter::Fmt(result.object_miss_ratio(), 4),
                    TablePrinter::Fmt(result.byte_miss_ratio(), 4)});
    }
  }
  std::ostringstream rendered;
  table.Print(rendered);
  std::fputs(rendered.str().c_str(), stdout);
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (out) {
      table.WriteCsv(out);
    }
  }
  return 0;
}

// Out-of-core mode: a counting pre-pass sizes the fractional caches, then
// one streamed pass drives every (policy x size) cell — and, with
// mrc_sample_rate set, a SHARDS LRU curve — without ever materializing the
// trace. Ends with the mapper/RSS accounting so "bounded memory" is
// observable from the command line.
int RunStreamed(const std::string& trace_path,
                const std::vector<std::string>& policies,
                std::vector<double> fractions,
                const std::vector<uint64_t>& object_counts,
                size_t mem_budget_mb, double mrc_sample_rate,
                const std::string& csv_path) {
  for (const auto& policy : policies) {
    // Belady needs the materialized future, so it is rejected here rather
    // than deep in the replay.
    if (MakePolicy(policy, 16) == nullptr) {
      std::fprintf(stderr,
                   "error: policy '%s' is unknown or cannot run on a stream "
                   "(see --list-policies; belady needs --trace without "
                   "--stream)\n",
                   policy.c_str());
      return 2;
    }
  }

  StreamReplayOptions options;
  options.mem_budget_bytes = mem_budget_mb << 20;

  std::string error;
  auto counting = OpenTraceSource(trace_path, &error);
  if (counting == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const StreamReplayResult counted =
      StreamReplayTrace(*counting, trace_path, {}, options);
  if (!counted.ok || counted.num_requests == 0) {
    std::fprintf(stderr, "error: %s\n",
                 counted.ok ? "trace is empty" : counted.error.c_str());
    return 1;
  }
  std::printf("stream: %llu requests, %llu objects (counting pre-pass)\n",
              static_cast<unsigned long long>(counted.num_requests),
              static_cast<unsigned long long>(counted.num_objects));

  if (fractions.empty() && object_counts.empty()) {
    fractions = {0.001, 0.01, 0.10};
  }
  for (const uint64_t count : object_counts) {
    fractions.push_back(static_cast<double>(count) /
                        static_cast<double>(counted.num_objects));
  }
  options.dense_universe = counted.num_objects;
  options.shards_sample_rate = mrc_sample_rate;
  std::vector<BatchCellSpec> cells;
  for (const double fraction : fractions) {
    const size_t cache_size = CacheSizeForCount(counted.num_objects, fraction);
    options.mrc_sizes.push_back(cache_size);
    for (const auto& policy : policies) {
      cells.push_back(BatchCellSpec{policy, cache_size});
    }
  }

  auto source = OpenTraceSource(trace_path, &error);
  if (source == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const StreamReplayResult replay =
      StreamReplayTrace(*source, trace_path, cells, options);
  if (!replay.ok) {
    std::fprintf(stderr, "error: %s\n", replay.error.c_str());
    return 1;
  }

  std::vector<std::string> header = {"cache size", "objects"};
  for (const auto& policy : policies) {
    header.push_back(policy);
  }
  if (mrc_sample_rate > 0.0) {
    header.push_back("lru mrc (shards)");
  }
  TablePrinter table(header);
  size_t cell = 0;
  for (size_t f = 0; f < fractions.size(); ++f) {
    std::vector<std::string> row = {
        TablePrinter::FmtPercent(fractions[f], 2),
        std::to_string(options.mrc_sizes[f])};
    for (size_t p = 0; p < policies.size(); ++p) {
      row.push_back(TablePrinter::Fmt(replay.cells[cell++].miss_ratio(), 4));
    }
    if (mrc_sample_rate > 0.0) {
      row.push_back(TablePrinter::Fmt(replay.lru_mrc[f].second, 4));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (out) {
      table.WriteCsv(out);
      std::printf("wrote %s\n", csv_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
      return 1;
    }
  }

  if (mem_budget_mb > 0) {
    std::printf("mapper: budget %zu MiB, peak %.1f MiB, %zu spilled epochs\n",
                mem_budget_mb,
                static_cast<double>(replay.mapper_peak_bytes) / (1 << 20),
                replay.mapper_spilled_epochs);
  }
  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(PeakRssBytes()) / (1 << 20));
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--trace FILE | --workload SPEC) --policies LIST\n"
      "          [--sizes FRACTIONS] [--objects COUNTS] [--threads N]\n"
      "          [--csv FILE] [--stats] [--mrc | --mrc-sample R]\n"
      "          [--stream] [--mem-budget-mb N] [--list-policies]\n"
      "workload SPECs: zipf|web|block|kv|phase with key=value params, e.g.\n"
      "  --workload zipf,objects=50000,skew=1.0,requests=500000,seed=7\n"
      "  --workload web,wonders=0.25    --workload block,scan=0.004\n"
      "  --workload phase,phase=8000\n",
      argv0);
  return 2;
}

int Run(int argc, char** argv) {
  std::string trace_path;
  std::string workload_spec;
  std::vector<std::string> policies;
  std::vector<double> fractions;
  std::vector<uint64_t> object_counts;
  std::string csv_path;
  size_t threads = 0;
  bool stats_only = false;
  bool mrc_mode = false;
  double mrc_sample_rate = 1.0;
  std::string sized_spec;
  bool sized_mode = false;
  bool stream_mode = false;
  size_t mem_budget_mb = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      trace_path = v;
    } else if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      workload_spec = v;
    } else if (arg == "--policies") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      policies = SplitCommas(v);
    } else if (arg == "--sizes") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      for (const auto& s : SplitCommas(v)) {
        fractions.push_back(std::atof(s.c_str()));
      }
    } else if (arg == "--objects") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      for (const auto& s : SplitCommas(v)) {
        object_counts.push_back(std::strtoull(s.c_str(), nullptr, 10));
      }
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      threads = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--csv") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      csv_path = v;
    } else if (arg == "--stats") {
      stats_only = true;
    } else if (arg == "--mrc") {
      mrc_mode = true;
    } else if (arg == "--mrc-sample") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      mrc_mode = true;
      mrc_sample_rate = std::atof(v);
      if (mrc_sample_rate <= 0.0 || mrc_sample_rate > 1.0) {
        std::fprintf(stderr, "error: --mrc-sample must be in (0, 1]\n");
        return 2;
      }
    } else if (arg == "--sized-web") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      sized_spec = v;
      sized_mode = true;
    } else if (arg == "--stream") {
      stream_mode = true;
    } else if (arg == "--mem-budget-mb") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      mem_budget_mb = static_cast<size_t>(std::strtoull(v, nullptr, 10));
      if (mem_budget_mb == 0) {
        std::fprintf(stderr, "error: --mem-budget-mb must be >= 1\n");
        return 2;
      }
      stream_mode = true;  // a budget only means anything to the stream path
    } else if (arg == "--list-policies") {
      for (const auto& name : KnownPolicyNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  if (sized_mode) {
    return RunSized(sized_spec, policies, fractions, csv_path);
  }
  if (stream_mode) {
    if (trace_path.empty() || !workload_spec.empty()) {
      std::fprintf(stderr, "error: --stream needs --trace (not --workload)\n");
      return Usage(argv[0]);
    }
    if (policies.empty()) {
      std::fprintf(stderr, "error: --policies is required\n");
      return Usage(argv[0]);
    }
    // --mrc/--mrc-sample piggyback on the same pass: rate 1.0 profiles
    // every request (exact Mattson), a sampled rate runs SHARDS.
    return RunStreamed(trace_path, policies, fractions, object_counts,
                       mem_budget_mb, mrc_mode ? mrc_sample_rate : 0.0,
                       csv_path);
  }
  if (trace_path.empty() == workload_spec.empty()) {
    std::fprintf(stderr, "error: give exactly one of --trace / --workload\n");
    return Usage(argv[0]);
  }

  std::string workload_error;
  std::optional<Trace> trace =
      trace_path.empty() ? BuildWorkload(workload_spec, &workload_error)
                         : LoadTrace(trace_path);
  if (!trace.has_value() || trace->requests.empty()) {
    if (!workload_error.empty()) {
      std::fprintf(stderr, "error: %s\n", workload_error.c_str());
    }
    std::fprintf(stderr, "error: could not obtain a non-empty trace\n");
    return 1;
  }

  const TraceStats stats = ComputeTraceStats(*trace);
  std::printf("trace: %llu requests, %llu objects, mean freq %.2f, one-hit "
              "%.1f%%, zipf alpha %.2f\n",
              static_cast<unsigned long long>(stats.num_requests),
              static_cast<unsigned long long>(stats.num_objects),
              stats.mean_frequency, stats.one_hit_wonder_ratio * 100.0,
              stats.zipf_alpha);
  if (stats_only) {
    return 0;
  }
  if (mrc_mode) {
    // One profiling pass instead of one simulation per size.
    if (fractions.empty() && object_counts.empty()) {
      fractions = DefaultMrcFractions();
    }
    for (const uint64_t count : object_counts) {
      fractions.push_back(static_cast<double>(count) /
                          static_cast<double>(trace->num_objects));
    }
    ShardsProfiler profiler(mrc_sample_rate);
    for (const ObjectId id : trace->requests) {
      profiler.Record(id);
    }
    TablePrinter table({"cache size", "objects", "lru miss ratio"});
    for (const double fraction : fractions) {
      const uint64_t cache_size = CacheSizeForFraction(*trace, fraction);
      table.AddRow({TablePrinter::FmtPercent(fraction, 2),
                    std::to_string(cache_size),
                    TablePrinter::Fmt(profiler.MissRatioAt(cache_size), 4)});
    }
    std::printf("LRU miss-ratio curve (%s, one pass)\n",
                mrc_sample_rate >= 1.0
                    ? "exact Mattson"
                    : "SHARDS-sampled");
    std::ostringstream rendered;
    table.Print(rendered);
    std::fputs(rendered.str().c_str(), stdout);
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      if (out) {
        table.WriteCsv(out);
      }
    }
    return 0;
  }
  if (policies.empty()) {
    std::fprintf(stderr, "error: --policies is required\n");
    return Usage(argv[0]);
  }
  for (const auto& policy : policies) {
    // Validate early so typos fail before a long run.
    if (MakePolicy(policy, 16, &trace->requests) == nullptr) {
      std::fprintf(stderr, "error: unknown policy '%s' (see --list-policies)\n",
                   policy.c_str());
      return 2;
    }
  }
  if (fractions.empty() && object_counts.empty()) {
    fractions = {0.001, 0.01, 0.10};
  }
  for (const uint64_t count : object_counts) {
    fractions.push_back(static_cast<double>(count) /
                        static_cast<double>(trace->num_objects));
  }

  SweepConfig config;
  config.policies = policies;
  config.size_fractions = fractions;
  config.num_threads = threads;
  std::vector<Trace> traces;
  traces.push_back(std::move(*trace));
  const auto points = RunSweep(traces, config);

  std::vector<std::string> header = {"cache size", "objects"};
  for (const auto& policy : policies) {
    header.push_back(policy);
  }
  TablePrinter table(header);
  for (const double fraction : fractions) {
    std::vector<std::string> row = {TablePrinter::FmtPercent(fraction, 2), ""};
    for (const auto& point : points) {
      if (point.size_fraction == fraction) {
        row[1] = std::to_string(point.cache_size);
        break;
      }
    }
    for (const auto& policy : policies) {
      for (const auto& point : points) {
        if (point.size_fraction == fraction && point.policy == policy) {
          row.push_back(TablePrinter::Fmt(point.miss_ratio, 4));
          break;
        }
      }
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (out) {
      table.WriteCsv(out);
      std::printf("wrote %s\n", csv_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace qdlp

int main(int argc, char** argv) { return qdlp::Run(argc, argv); }
