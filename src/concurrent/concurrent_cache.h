// Cache — the one cache-facing interface, values included, and the
// thread-safe engines that implement it directly.
//
// The paper's motivation (§1, §2): each LRU hit updates six pointers under a
// lock, while FIFO/CLOCK hits touch at most one small counter and need no
// exclusive lock, so FIFO-family caches are faster and scale with cores.
// These engines make that concrete:
//
//  * ShardedLruCache      — N shards, each the serial LruPolicy behind its
//                           own mutex (the common mitigation); with one
//                           shard it is the global-lock LRU, the naive
//                           memcached-style design the paper argues against
//  * ConcurrentClockCache — lock-free hit path (striped atomic index + one
//                           relaxed RMW on a reference counter); misses
//                           batch behind hash-selected eviction-domain
//                           mutexes
//  * ConcurrentS3FifoCache— same hit path over S3-FIFO's two queues + ghost
//  * ConcurrentQdLpFifo   — QD-LP-FIFO (probationary FIFO + ghost + 2-bit
//                           CLOCK main) as a concurrent cache
//
// The last three are one skeleton, DomainCache<Regions>
// (eviction_domains.h), each supplying only its queues; with a value arena
// they also serve bytes (qdlpd). A sequential EvictionPolicy reaches Cache
// through MakeCache's one adapter (src/core/cache_api.h), so the server,
// the replay harness, the oracle tests and the benches program against
// this one type whichever engine they drive.
//
// Cache shares the CacheObservable surface (name/capacity/Stats/
// ApproxMetadataBytes/CheckInvariants) with the sequential EvictionPolicy
// hierarchy, so the bench JSON writer and the stats report consume one
// type. Telemetry in the lock-free caches is kept in striped,
// cache-line-exclusive relaxed atomics (src/obs/concurrent_counters.h); the
// LRU caches count in each shard's LruPolicy, under the shard lock. There
// is deliberately NO AccessEventSink on this hierarchy: a virtual call per
// event would poison the lock-free hit path the paper's throughput
// argument rests on — Stats() snapshots are the concurrent observability
// surface.

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_CACHE_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/obs/cache_observable.h"
#include "src/trace/trace.h"

namespace qdlp {

// The outcome of a value write.
enum class SetStatus {
  kOk,
  kNoSpace,   // value arena cannot hold the bytes even after eviction
  kTooLarge,  // value exceeds the engine's max value length
};

class Cache : public CacheObservable {
 public:
  using SetStatus = qdlp::SetStatus;

  // The replay face: returns true on hit, admits on miss — identical to
  // EvictionPolicy::Access on every engine. Sweep and replay paths use this
  // so miss ratios are engine-comparable. On the lock-free engines a
  // contended miss never blocks: the admission is buffered for the next
  // holder of the domain lock, or dropped when the buffer is full.
  virtual bool GetOrAdmit(ObjectId key) = 0;

  // Serving read. True = hit; value engines fill *value (may be empty for
  // an empty stored value) and NEVER admit on a miss (a GET carries
  // nothing to store); metadata engines model the classic get-or-admit
  // access and leave *value empty. `value` may be null when the caller
  // only wants the outcome.
  virtual bool Get(ObjectId key, std::string* value) = 0;

  // Serving write: admit if absent and store the bytes, or, on a metadata
  // engine, only ensure residency. `ttl_seconds` is relative (0 = no
  // expiry). The key is resident when Set returns kOk: on the lock-free
  // engines a miss blocks on the home-domain lock instead of deferring to
  // the best-effort insert buffers, so a SET never silently admits nothing
  // under contention.
  virtual SetStatus Set(ObjectId key, std::string_view value,
                        uint32_t ttl_seconds) = 0;

  // User-controlled removal (§2, Fig 1). True if the key was resident and
  // has been removed; counts as an eviction in Stats(). Every thread-safe
  // engine implements it; sequential policies without removal support
  // return false (see EvictionPolicy::SupportsRemoval).
  virtual bool Delete(ObjectId key) = 0;

  // True when all operations are safe from multiple threads.
  virtual bool thread_safe() const = 0;

  // True when Get/Set move real bytes (a value arena was configured).
  virtual bool stores_values() const { return false; }

  // CacheObservable reminders for thread-safe engines (see
  // src/obs/cache_observable.h):
  //  * Stats() must be safe to call concurrently with the other
  //    operations — sum striped atomics, take only cold locks for
  //    occupancy fields.
  //  * CheckInvariants() takes the cache's locks, so it is safe to call
  //    concurrently, but it is O(size) and intended for tests — call it at
  //    quiescent points (e.g. after joining worker threads).
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_CACHE_H_
