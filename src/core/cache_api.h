// The unified cache-facing API — one interface over both hierarchies,
// values included.
//
// The repo grew three cache-shaped surfaces: EvictionPolicy::Access (the
// sequential replay face), ConcurrentCache::Get (the thread-safe
// get-or-admit face), and — with qdlpd — GetValue/SetValue byte serving.
// Every consumer that doesn't care which engine it drives (the server,
// the replay harness, oracle tests) programs against this one interface
// instead:
//
//   Get(key, &value)   serving read. Value-storing engines copy the bytes
//                      and NEVER admit on miss (a GET carries nothing to
//                      store); metadata engines model the classic
//                      get-or-admit access and leave *value empty.
//   Set(key, value, ttl)  serving write: admit if absent, store bytes
//                      (value engines) or just ensure residency (metadata
//                      engines, which ignore bytes and ttl).
//   Delete(key)        user-controlled removal (§2's fourth operation).
//   GetOrAdmit(key)    the replay face, exactly EvictionPolicy::Access /
//                      ConcurrentCache::Get semantics on every engine.
//
// plus the whole CacheObservable surface (name/capacity/Stats/
// ApproxMetadataBytes/CheckInvariants), so benches and reports keep
// consuming one type.
//
// MakeCache() is the single factory: one config struct routes to a
// sequential policy adapter (any MakePolicy name), a concurrent cache
// adapter (the five concurrent engines), or the value-storing engine (a
// lock-free design — concurrent-qdlp-fifo, concurrent-clock or
// concurrent-s3fifo — with its SlabStore) — selected by `policy` and
// `value_arena_bytes` alone, no per-engine construction code at call
// sites.

#ifndef QDLP_SRC_CORE_CACHE_API_H_
#define QDLP_SRC_CORE_CACHE_API_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/obs/cache_observable.h"
#include "src/trace/trace.h"

namespace qdlp {

class Cache : public CacheObservable {
 public:
  using SetStatus = qdlp::SetStatus;

  // Serving read. True = hit; value engines fill *value (may be empty for
  // an empty stored value), metadata engines always leave it empty.
  // `value` may be null when the caller only wants the outcome.
  virtual bool Get(ObjectId key, std::string* value) = 0;

  // Serving write. `ttl_seconds` is relative (0 = no expiry); metadata
  // engines ignore bytes and ttl and only ensure residency.
  virtual SetStatus Set(ObjectId key, std::string_view value,
                        uint32_t ttl_seconds) = 0;

  // Removal. True if the key was resident. Every concurrent engine
  // implements this; sequential policies without removal support return
  // false (see EvictionPolicy::SupportsRemoval).
  virtual bool Delete(ObjectId key) = 0;

  // The replay face: returns true on hit, admits on miss — identical to
  // EvictionPolicy::Access / ConcurrentCache::Get on every engine. Sweep
  // and replay paths use this so miss ratios are engine-comparable.
  virtual bool GetOrAdmit(ObjectId key) = 0;

  // True when all operations are safe from multiple threads.
  virtual bool thread_safe() const = 0;

  // True when Get/Set move real bytes (the value engine).
  virtual bool stores_values() const { return false; }
};

struct CacheConfig {
  std::string policy = "qd-lp-fifo";  // MakePolicy name or a concurrent name
  size_t capacity = 0;                // objects; required

  // Concurrent engines only.
  size_t num_stripes = 16;  // striped-index width
  size_t num_shards = 1;    // eviction domains
  int clock_bits = 2;       // concurrent-clock reference-counter width

  // Value serving (requires a lock-free policy: concurrent-qdlp-fifo,
  // concurrent-clock or concurrent-s3fifo): nonzero routes to the value
  // engine with a SlabStore of this many bytes.
  size_t value_arena_bytes = 0;
  size_t max_value_len = 4u << 20;

  // TTL clock, in absolute seconds. Null = wall clock. Tests inject a fake
  // to step time deterministically.
  uint64_t (*now_fn)() = nullptr;

  // Future-request stream for "belady" only.
  const std::vector<ObjectId>* trace = nullptr;
};

// The one factory. Returns nullptr for unknown policy names, for
// value_arena_bytes on a serial policy or an LRU, or when MakePolicy
// itself declines (e.g. "belady" without a trace).
std::unique_ptr<Cache> MakeCache(const CacheConfig& config);

// Replays ids through the unified replay face; returns the hit count.
uint64_t ReplayTrace(Cache& cache, const std::vector<ObjectId>& ids);

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_CACHE_API_H_
