// qdlp_perfbench — one benchmark over the qdlp stack.
//
//   qdlp_perfbench --workload {replay-grid|cache-churn|serve-churn}
//                  --seed N --seconds S --trace {0|1} [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload in short untraced and traced runs that alternate, to
// measure the tracing overhead, then the per-layer ledger, and prints the
// per-layer metrics. The last line of stdout is always the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output check passed, 1 on a divergence, 2 on a
// usage error, 3 when the build is not one whose numbers may be reported.

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench.h"
#include "src/util/rss.h"

namespace perfbench {

size_t Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

void PinToCpu(size_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % Nproc(), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void UnpinThread() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t cpu = 0; cpu < Nproc(); ++cpu) {
    CPU_SET(cpu, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::vector<Span> Tracer::AllSpans() const {
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans().begin(), log->spans().end());
  }
  return all;
}

void Report::Diverged(const std::string& what) {
  correct = false;
  if (errors.size() < 8) {
    errors.push_back(what);
  }
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

// The machine and build the numbers come from, printed with every result.
std::string Fingerprint() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %zu, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}",
                Nproc(), JsonEscape(CpuModel()).c_str(),
                JsonEscape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE);
  return buf;
}

// Numbers from an invariant-checking, sanitized or unoptimized build
// describe a different program; refuse to report them.
const char* RefusalReason() {
#if defined(QDLP_CHECK_INVARIANTS)
  return "built with QDLP_CHECK_INVARIANTS";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "not an optimized build (CMAKE_BUILD_TYPE must be Release or "
           "RelWithDebInfo)";
  }
  return nullptr;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: qdlp_perfbench --workload "
               "{replay-grid|cache-churn|serve-churn} --seed N --seconds S "
               "--trace {0|1} [--out-dir DIR] "
               "[--corrupt CHECK]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else if (flag == "--corrupt") {
      options->corrupt = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

bool RunWorkload(const Options& options, double seconds, int setup_reps,
                 Tracer& tracer, Report& report, EndToEnd* out) {
  if (options.workload == "replay-grid") {
    return RunReplayGrid(options, seconds, setup_reps, tracer, report, out);
  }
  if (options.workload == "cache-churn") {
    return RunCacheChurn(options, seconds, setup_reps, tracer, report, out);
  }
  if (options.workload == "serve-churn") {
    return RunServeChurn(options, seconds, setup_reps, tracer, report, out);
  }
  return false;
}

// Self time per span name: a span's duration minus the part of its
// interval that its direct children cover (children on several threads
// overlap, so coverage is the union of their intervals). Printed as the
// traced run's layer breakdown.
void PrintSpanSummary(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  struct Row {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Span& span : spans) {
    uint64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::sort(it->second.begin(), it->second.end());
      uint64_t reach = span.start_ns;
      for (const auto& [start, end] : it->second) {
        const uint64_t from = std::max(start, reach);
        const uint64_t to = std::min(end, span.end_ns);
        if (to > from) {
          covered += to - from;
          reach = to;
        }
      }
    }
    Row& row = rows[span.name];
    ++row.count;
    row.total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    row.self_ms +=
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
  }
  std::printf("spans: %zu recorded\n", spans.size());
  for (const auto& [name, row] : rows) {
    std::printf("  span %-28s count %8llu  total %10.3f ms  self %10.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(row.count),
                row.total_ms, row.self_ms);
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::string& fingerprint) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"fingerprint\": %s,\n\"spans\": [\n", fingerprint.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"start_ns\": %llu, \"end_ns\": %llu, \"ops\": %llu}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.ops),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("spans written to %s\n", path.c_str());
}

void PrintResult(const Report& report) {
  for (const Metric& m : report.metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_frac %.6g (%llu failed of %llu attempted)\n",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& error : report.errors) {
    std::printf("divergence: %s\n", error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  if (const char* reason = RefusalReason()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                 reason);
    return 3;
  }
  const std::string fingerprint = Fingerprint();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("fingerprint %s\n", fingerprint.c_str());

  Report report;
  if (!options.trace) {
    Tracer off(false);
    EndToEnd e2e;
    if (!RunWorkload(options, options.seconds, /*setup_reps=*/8, off, report,
                     &e2e)) {
      PrintUsage();
      return 2;
    }
    report.Add("setup_s", e2e.setup_s, "s");
    report.Add("peak_rss_mb",
               static_cast<double>(qdlp::PeakRssBytes()) / (1024.0 * 1024.0),
               "MiB");
    report.Add("mops", e2e.mops, "Mops/s");
    report.Add("mops_1t", e2e.mops_1t, "Mops/s");
    report.Add("hit_ratio", e2e.hit_ratio, "ratio");
    report.Add("p50_us", e2e.p50_us, "us");
    report.Add("p99_us", e2e.p99_us, "us");
    for (const Metric& m : report.metrics) {
      if (!(m.value > 0.0) || !std::isfinite(m.value)) {
        report.Diverged("metric " + m.name + " is not a positive number");
      }
    }
  } else {
    // Short untraced and traced runs alternate in ABBA order, so both see
    // the same machine drift; the overhead compares their median mops.
    constexpr int kPairs = 3;
    Tracer off(false);
    Tracer on(true);
    std::vector<double> plain_mops;
    std::vector<double> traced_mops;
    for (int i = 0; i < 2 * kPairs; ++i) {
      const bool traced = i % 4 == 1 || i % 4 == 2;
      EndToEnd e2e;
      if (!RunWorkload(options, options.seconds / (2 * kPairs), 1,
                       traced ? on : off, report, &e2e)) {
        PrintUsage();
        return 2;
      }
      (traced ? traced_mops : plain_mops).push_back(e2e.mops);
    }
    const double plain = Median(plain_mops);
    const double traced = Median(traced_mops);
    std::printf("median mops over %d runs each: untraced %.6g, traced %.6g\n",
                kPairs, plain, traced);
    RunLedger(options, on, report);
    report.Add("tracing.overhead_frac",
               plain > 0.0 ? (plain - traced) / plain : 0.0, "ratio");
    const std::vector<Span> spans = on.AllSpans();
    PrintSpanSummary(spans);
    if (!options.out_dir.empty()) {
      WriteSpans(options.out_dir + "/spans-" + options.workload + "-seed" +
                     std::to_string(options.seed) + ".json",
                 spans, fingerprint);
    }
  }
  PrintResult(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
