// Machine-readable throughput results: BENCH_throughput.json.
//
// Every throughput bench (micro_policies, throughput_scalability) appends
// its measurements here so the perf trajectory is tracked PR over PR; CI
// runs a short Release pass, validates the file parses, and archives it.
// Schema (see docs/PERFORMANCE.md):
//
//   {
//     "schema_version": 1,
//     "binary": "micro_policies",
//     "results": [
//       { "benchmark": "BM_Access/lru",   // full google-benchmark name
//         "policy": "lru",                // policy/cache under test
//         "threads": 1,                   // concurrent client threads
//         "ops_per_sec": 37664700.0,      // Access()/Get() calls per second
//         "bytes_per_object": 38.2,       // metadata bytes per cached
//                                         //   object (0 = uninstrumented)
//         "hit_ratio": 0.87,              // hits/requests (0 = unmeasured)
//         "scaling_efficiency": 0.93,     // ops(T) / (T * ops(1 thread));
//                                         //   1.0 for 1-thread baseline
//                                         //   rows, 0 for unpaired rows
//         "stats": {                      // the cache's own Stats() counters
//           "requests": 200000,           //   (integers; omitted entirely
//           "hits": 174000, ... },        //   when the bench didn't capture)
//         "latency_us": {                 // client-observed request latency
//           "p50": 12.4, "p99": 86.0,     //   percentiles (serving benches
//           "p999": 240.1, "max": 900.0 } //   only; omitted elsewhere)
//       },
//       ...
//     ]
//   }
//
// The output path defaults to BENCH_throughput.json in the working
// directory; QDLP_BENCH_JSON overrides it. This header has no
// google-benchmark dependency so tests can exercise the writer directly;
// the reporter glue lives in bench_json_reporter.h.

#ifndef QDLP_BENCH_BENCH_JSON_H_
#define QDLP_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/obs/cache_stats.h"
#include "src/util/env.h"

namespace qdlp {

struct BenchJsonResult {
  std::string benchmark;
  std::string policy;
  int64_t threads = 1;
  double ops_per_sec = 0.0;
  double bytes_per_object = 0.0;
  double hit_ratio = 0.0;
  double scaling_efficiency = 0.0;
  // The cache's own telemetry (CacheObservable::Stats()), captured by the
  // bench at teardown. Emitted as the "stats" block when has_stats is set.
  CacheStats stats;
  bool has_stats = false;
  // Client-observed request latency percentiles in microseconds, emitted
  // as the "latency_us" block when has_latency is set (serving benches —
  // bench/server_qps — measure these; replay benches don't).
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
  double latency_max_us = 0.0;
  bool has_latency = false;
};

inline std::string BenchJsonOutputPath() {
  return GetEnvString("QDLP_BENCH_JSON", "BENCH_throughput.json");
}

// Extracts "lru" from "BM_Access/lru" or "BM_Access/lru/threads:4": the
// last path segment that is not a "key:value" config segment. Falls back to
// the family name itself. Note that google-benchmark's UseRealTime() suffix
// ("/real_time") is an ordinary segment and wins here — binaries that use
// it pass their own namer to JsonCaptureReporter instead.
inline std::string PolicyFromBenchmarkName(const std::string& name) {
  std::string policy;
  size_t start = 0;
  bool first = true;
  while (start <= name.size()) {
    const size_t slash = name.find('/', start);
    const size_t end = slash == std::string::npos ? name.size() : slash;
    const std::string segment = name.substr(start, end - start);
    if (first) {
      policy = segment;  // family name fallback
      first = false;
    } else if (!segment.empty() && segment.find(':') == std::string::npos) {
      policy = segment;
      break;
    }
    if (slash == std::string::npos) {
      break;
    }
    start = slash + 1;
  }
  return policy;
}

inline std::string BenchJsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string BenchJsonNumber(double value) {
  char buf[64];
  // %.17g round-trips doubles; JSON has no NaN/Inf, clamp those to 0.
  if (!(value == value) || value > 1e308 || value < -1e308) {
    value = 0.0;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  std::string out = buf;
  // Bare integers are valid JSON numbers, but keep a decimal point so
  // consumers that sniff types see a float consistently.
  if (out.find('.') == std::string::npos &&
      out.find('e') == std::string::npos &&
      out.find("inf") == std::string::npos) {
    out += ".0";
  }
  return out;
}

inline std::string BenchJsonToString(
    const std::string& binary, const std::vector<BenchJsonResult>& results) {
  std::string out;
  out += "{\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"binary\": \"" + BenchJsonEscape(binary) + "\",\n";
  out += "  \"results\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchJsonResult& r = results[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    { \"benchmark\": \"" + BenchJsonEscape(r.benchmark) + "\",\n";
    out += "      \"policy\": \"" + BenchJsonEscape(r.policy) + "\",\n";
    out += "      \"threads\": " + std::to_string(r.threads) + ",\n";
    out += "      \"ops_per_sec\": " + BenchJsonNumber(r.ops_per_sec) + ",\n";
    out += "      \"bytes_per_object\": " + BenchJsonNumber(r.bytes_per_object) +
           ",\n";
    out += "      \"hit_ratio\": " + BenchJsonNumber(r.hit_ratio) + ",\n";
    out += "      \"scaling_efficiency\": " +
           BenchJsonNumber(r.scaling_efficiency);
    if (r.has_stats) {
      // Counters are exact integers; no BenchJsonNumber float formatting.
      out += ",\n      \"stats\": { ";
      const char* separator = "";
      for (const CacheStatsField& field : kCacheStatsFields) {
        out.append(separator).append("\"").append(field.key).append("\": ");
        out += std::to_string(r.stats.*field.member);
        separator = ", ";
      }
      out += " }";
    }
    if (r.has_latency) {
      out += ",\n      \"latency_us\": { ";
      out += "\"p50\": " + BenchJsonNumber(r.latency_p50_us) + ", ";
      out += "\"p99\": " + BenchJsonNumber(r.latency_p99_us) + ", ";
      out += "\"p999\": " + BenchJsonNumber(r.latency_p999_us) + ", ";
      out += "\"max\": " + BenchJsonNumber(r.latency_max_us);
      out += " }";
    }
    out += " }";
  }
  out += "\n  ]\n}\n";
  return out;
}

// Fills scaling_efficiency = ops(T) / (T * ops(1 thread)) for every
// multi-thread result whose single-thread sibling (same benchmark name with
// the "/threads:N" segment removed) is present. 1-thread rows are their own
// baseline and report exactly 1.0 (so ratio consumers never special-case a
// zero); multi-thread rows with no measured sibling keep 0.
inline void FillScalingEfficiency(std::vector<BenchJsonResult>* results) {
  const auto base_name = [](const BenchJsonResult& r) {
    std::string base = r.benchmark;
    const size_t pos = base.find("/threads:");
    if (pos != std::string::npos) {
      const size_t end = base.find('/', pos + 1);
      base.erase(pos, end == std::string::npos ? std::string::npos
                                               : end - pos);
    }
    return base;
  };
  for (BenchJsonResult& row : *results) {
    if (row.ops_per_sec <= 0.0) {
      continue;
    }
    if (row.threads <= 1) {
      row.scaling_efficiency = 1.0;
      continue;
    }
    const std::string base = base_name(row);
    for (const BenchJsonResult& other : *results) {
      if (other.threads == 1 && other.ops_per_sec > 0.0 &&
          base_name(other) == base) {
        row.scaling_efficiency =
            row.ops_per_sec /
            (static_cast<double>(row.threads) * other.ops_per_sec);
        break;
      }
    }
  }
}

// Writes the report to `path`; returns false (and prints to stderr) on I/O
// failure.
inline bool WriteBenchJson(const std::string& path, const std::string& binary,
                           const std::vector<BenchJsonResult>& results) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "[qdlp] cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string payload = BenchJsonToString(binary, results);
  const size_t written = std::fwrite(payload.data(), 1, payload.size(), file);
  const bool closed = std::fclose(file) == 0;
  const bool ok = written == payload.size() && closed;
  if (!ok) {
    std::fprintf(stderr, "[qdlp] short write to %s\n", path.c_str());
  }
  return ok;
}

}  // namespace qdlp

#endif  // QDLP_BENCH_BENCH_JSON_H_
