// qdlpd — localhost cache server over the QD-LP-FIFO core.
//
//   qdlpd --port=7070 --capacity=1048576 --arena-mb=256
//         --workers=2 --shards=2
//
// Runs until SIGINT/SIGTERM, then prints a final stats line. A flag value
// that is not a decimal count in its range, or an arena that leaves an
// eviction domain too small for one maximum-size value, prints the usage
// and exits 2 before anything is allocated. See docs/SERVER.md for the
// protocol and bench/server_qps for the matching load generator.

#include <signal.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/obs/cache_stats.h"
#include "src/server/server.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = strlen(name);
  if (strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  *out = arg + len + 1;
  return true;
}

// A decimal count in [min, max]: no sign, no trailing text, no overflow.
bool ParseCount(const std::string& text, uint64_t min, uint64_t max,
                uint64_t* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

int Usage() {
  fprintf(stderr,
          "usage: qdlpd [--port=N] [--capacity=N] [--arena-mb=N]\n"
          "             [--workers=N] [--shards=N] [--stripes=N]\n"
          "  each N a decimal count of at least 1, except --port "
          "(0 = any free port,\n"
          "  at most 65535); --capacity is at most 2^30 - 1, "
          "--workers at most 256\n"
          "  and --arena-mb (the total, split across shards) at most "
          "32768 and at\n"
          "  least 8 MiB per shard (--shards rounds up to a power of two)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qdlp::QdlpdOptions options;
  options.port = 7070;
  options.cache.capacity = 1 << 20;
  options.cache.value_arena_bytes = 256u << 20;
  constexpr uint64_t kMaxSize = SIZE_MAX;
  // Each worker is a thread with three fds (listener, epoll, eventfd): 256,
  // the shard and stripe cap, stays under the default 1,024-fd soft limit.
  constexpr uint64_t kMaxWorkers = 256;
  // A domain's arena is addressed by 32-bit word offsets, so it holds at
  // most 32 GiB (SlabStore checks this). The arena is split across the
  // domains, so the cap applies to the total.
  constexpr uint64_t kMaxArenaMb = 32768;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    uint64_t n = 0;
    bool ok = false;
    if (ParseFlag(argv[i], "--port", &value)) {
      ok = ParseCount(value, 0, 65535, &n);
      options.port = static_cast<uint16_t>(n);
    } else if (ParseFlag(argv[i], "--capacity", &value)) {
      ok = ParseCount(value, 1, qdlp::DomainCore::kMaxCapacity, &n);
      options.cache.capacity = n;
    } else if (ParseFlag(argv[i], "--arena-mb", &value)) {
      ok = ParseCount(value, 1, kMaxArenaMb, &n);
      options.cache.value_arena_bytes = n << 20;
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      ok = ParseCount(value, 1, kMaxWorkers, &n);
      options.num_workers = n;
    } else if (ParseFlag(argv[i], "--shards", &value)) {
      ok = ParseCount(value, 1, kMaxSize, &n);
      options.cache.num_shards = n;
    } else if (ParseFlag(argv[i], "--stripes", &value)) {
      ok = ParseCount(value, 1, kMaxSize, &n);
      options.cache.num_stripes = n;
    }
    if (!ok) {
      return Usage();
    }
  }
  // The arena is split evenly across the eviction domains the cache will
  // build, and SlabStore raises a domain's share to two maximum-size
  // chunks, so a smaller share would allocate more than --arena-mb says.
  const size_t domains = qdlp::DomainCore::ShardCount(
      options.cache.capacity, options.cache.num_shards,
      qdlp::ConcurrentQdLpFifo::kMinCapacityPerShard);
  if (options.cache.value_arena_bytes / domains <
      2 * options.cache.max_value_len) {
    return Usage();
  }

  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);

  qdlp::QdlpdServer server(options);
  std::string error;
  if (!server.Start(&error)) {
    fprintf(stderr, "qdlpd: start failed: %s\n", error.c_str());
    return 1;
  }
  printf("qdlpd: serving 127.0.0.1:%u (capacity=%zu objects, arena=%zu MiB, "
         "workers=%zu, shards=%zu)\n",
         server.port(), options.cache.capacity,
         options.cache.value_arena_bytes >> 20, options.num_workers,
         options.cache.num_shards);
  fflush(stdout);

  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();

  const qdlp::CacheStats stats = server.cache().Stats();
  printf("qdlpd: done. requests=%llu hits=%llu misses=%llu inserts=%llu "
         "evictions=%llu size=%llu\n",
         static_cast<unsigned long long>(stats.requests),
         static_cast<unsigned long long>(stats.hits),
         static_cast<unsigned long long>(stats.misses),
         static_cast<unsigned long long>(stats.inserts),
         static_cast<unsigned long long>(stats.evictions),
         static_cast<unsigned long long>(stats.size));
  return 0;
}
