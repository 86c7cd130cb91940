// Sharded eviction domains: the miss-path backbone that lets the
// concurrent caches scale past the single eviction mutex, and
// DomainCache, the one implementation of the protocol over them and of
// the Cache interface (concurrent_cache.h), values included, that every
// lock-free design serves.
//
// Each cache partitions its queue storage into S independent domains
// selected by id hash; a domain owns a slab region, one mutex and one bank
// of per-thread-ordinal insert buffers (BP-Wrapper, mpsc_ring.h). Misses
// to different domains admit/evict fully in parallel; the lock-free
// striped_index hit path stays global and untouched. DomainCore holds the
// domains next to the index and the counters they share.
//
// Shard selection is deliberately the same bit extraction the striped
// index uses for stripe selection — (FlatMapHash(id) >> 32) masked by a
// power of two. With S <= num_stripes (both powers of two), shard s owns
// exactly the stripes {t : t & (S-1) == s}: the stripe sets of different
// shards are disjoint, so per-shard mutexes preserve the index's
// "externally serialized writers per stripe" contract (striped_index.h)
// without any extra synchronization.
//
// Capacity shares use ShardedLru's remainder distribution: base = cap/S
// and the first cap%S shards get one extra slot, so shares always sum to
// the exact configured capacity. The shard count is rounded up to a power
// of two and then halved until every share is at least
// `min_capacity_per_shard` (each cache knows the smallest share it can
// split into regions), so tiny caches degrade to fewer shards instead of
// failing.
//
// Drain protocol (implemented by DomainCache below), BP-Wrapper's: a
// domain's buffered misses are admitted by the next thread that takes its
// lock, and by nothing else.
//   * A missing thread try-locks its id's home domain; on success it
//     drains that domain's buffers and admits inline.
//   * On failure it buffers the id in the home domain's rings and returns
//     — GetOrAdmit() never blocks. A full ring drops the admission
//     (counted as a buffer_drop).
//   * Every other holder of the lock (a blocking Set or Delete, and
//     CheckInvariants) drains the buffers first too, so no buffered miss
//     lands after the holder's operation. When a domain's misses stop,
//     its buffered ids wait for that next holder.
//
// With S == 1 (the default everywhere) there is exactly one domain, and a
// single-threaded caller's try_lock always succeeds — behavior is
// bit-identical to the pre-sharded single-mutex caches.

#ifndef QDLP_SRC_CONCURRENT_EVICTION_DOMAINS_H_
#define QDLP_SRC_CONCURRENT_EVICTION_DOMAINS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/mpsc_ring.h"
#include "src/concurrent/striped_index.h"
#include "src/obs/concurrent_counters.h"
#include "src/store/slab_store.h"
#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/flat_map.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

// Opt-in value storage (the qdlpd serving layer, docs/SERVER.md): with
// arena_bytes > 0 a lock-free cache serves bytes through Get/Set.
struct QdlpValueOptions {
  size_t arena_bytes = 0;  // total value arena, split across the domains
  size_t max_value_len = 4u << 20;
  // TTL clock, in absolute seconds. Null = wall clock. Tests inject a fake
  // to step time deterministically.
  uint64_t (*now_fn)() = nullptr;
};

// One eviction domain. The mutex guards the owning cache's per-shard queue
// state and is the only consumer of `buffers`.
struct EvictionDomain {
  // Mutable so const observers (Stats) can lock for a coherent snapshot.
  alignas(64) mutable std::mutex mu;
  // This shard's capacity share and the first slot of its slab region.
  size_t capacity = 0;
  size_t base = 0;
  InsertBuffers buffers;

  explicit EvictionDomain(size_t num_rings, size_t ring_capacity)
      : buffers(num_rings, ring_capacity) {}
};

// DomainCore's id index: the striped index plus, in a cache that stores
// values, the upkeep of each resident's value cell. A resident's index
// value is its location, which is its SlabStore cell, so each of the
// Regions' own index writes moves an id's cell with its entry (Follow).
// The entry changes first, so a reader that finds it before the cell
// catches up reads a stale cell and re-probes. A metadata-only cache pays
// one predictable branch per write.
class CellIndex : public StripedAtomicIndex {
 public:
  CellIndex(size_t max_entries, size_t num_stripes, SlabStore* store)
      : StripedAtomicIndex(max_entries, num_stripes), store_(store) {}

  void Insert(ObjectId id, uint32_t value) {
    StripedAtomicIndex::Insert(id, value);
    if (store_ != nullptr) {
      Follow(id, kNoEntry, value);
    }
  }

  uint32_t Update(ObjectId id, uint32_t value) {
    const uint32_t old = StripedAtomicIndex::Update(id, value);
    if (store_ != nullptr) {
      Follow(id, old, value);
    }
    return old;
  }

  bool Erase(ObjectId id) {
    uint32_t old;
    const bool erased = StripedAtomicIndex::Erase(id, &old);
    if (erased && store_ != nullptr) {
      Follow(id, old, kNoEntry);
    }
    return erased;
  }

 private:
  // `id`'s entry went from `from` to `to`, where a ghost record or kNoEntry
  // (which carries the ghost tag) has no cell. Entering a location stamps
  // its cell with the id and no bytes (a Get before the first Set reads
  // kNoValue, not a previous occupant); a lazy promotion moves the cell;
  // leaving every location vacates it and frees its bytes.
  void Follow(ObjectId id, uint32_t from, uint32_t to) {
    if (IsGhost(to)) {
      if (!IsGhost(from)) {
        store_->FreeChunk(store_->ClearCell(from));
      }
    } else if (IsGhost(from)) {
      store_->FreeChunk(store_->Commit(to, id, SlabStore::kNullChunk, 0));
    } else {
      store_->MoveCell(from, to);
    }
  }

  SlabStore* const store_;
};

// What DomainCache shares with its Regions: the eviction domains, the id
// index (whose values are the Regions' locations, plus the ghost records
// of those that keep a ghost), the optional value store and the flow
// counters.
//
// A Regions type is a template over its core and reaches shared state only
// through this interface, which the serial core of the single-threaded
// lane (src/core/regions_policy.h) implements too:
//
//   index.Find / Entry / Insert / Update / Erase / Contains / ForEach
//   num_shards(), capacity(), shard_capacity(s), shard_base(s), ShardOf(id)
//   Count(kind, id)
//   Lap(id)    a CLOCK lap no counter counts (QD-LP-FIFO's main region)
//
// The ids on Count and Lap are for the serial core's per-object events;
// this core ignores them, and its Lap is empty.
class DomainCore {
 public:
  // Index values are locations in [0, capacity) and ghost positions, both
  // below the index's ghost tag (bit 30).
  static constexpr size_t kMaxCapacity = StripedAtomicIndex::kGhostTag - 1;

  // Aborts on a capacity the index values cannot address. The cores run it
  // before they size anything for that capacity.
  static size_t CheckedCapacity(size_t capacity) {
    QDLP_CHECK_MSG(capacity <= kMaxCapacity,
                   "capacity must be below 2^30: index values carry tags");
    return capacity;
  }

  // The cache gets ShardCount(capacity, num_shards,
  // min_capacity_per_shard) domains.
  // `ghost_capacity(share)` is the Regions' ghost size for one capacity
  // share; the index is sized for every resident and ghost at once, so it
  // never grows (and retires arrays) while the cache fills. Its
  // max(num_stripes, shard count) stripes give every eviction domain a
  // disjoint stripe set, so the index's per-stripe writer serialization
  // holds under the per-shard mutexes. `values` may add a SlabStore: a cell
  // per location, an arena per domain (freed under that domain's mutex).
  DomainCore(size_t capacity, size_t num_stripes, size_t num_shards,
             size_t min_capacity_per_shard,
             size_t (*ghost_capacity)(size_t share),
             const QdlpValueOptions& values)
      : capacity_(CheckedCapacity(capacity)),
        shards_(MakeShards(capacity, num_shards, min_capacity_per_shard)),
        mask_(shards_.size() - 1),
        store_(values.arena_bytes == 0
                   ? nullptr
                   : std::make_unique<SlabStore>(
                         capacity, shards_.size(),
                         values.arena_bytes / shards_.size(),
                         values.max_value_len)),
        index(IndexEntries(capacity, shards_, ghost_capacity),
              std::max(num_stripes, shards_.size()), store_.get()) {
    QDLP_CHECK(index.num_stripes() >= shards_.size());
  }

  // The number of domains a cache of `capacity` gets when asked for
  // `num_shards`: rounded up to a power of two (capped at kMaxShards,
  // matching the striped index's stripe cap) and halved until every
  // shard's capacity share is >= min_capacity_per_shard.
  static size_t ShardCount(size_t capacity, size_t num_shards,
                           size_t min_capacity_per_shard) {
    size_t shards = 1;
    while (shards < num_shards && shards < kMaxShards) {
      shards *= 2;
    }
    while (shards > 1 && capacity / shards < min_capacity_per_shard) {
      shards /= 2;
    }
    return shards;
  }

  size_t num_shards() const { return shards_.size(); }
  size_t capacity() const { return capacity_; }
  size_t shard_capacity(size_t s) const { return shards_[s]->capacity; }
  size_t shard_base(size_t s) const { return shards_[s]->base; }

  // Same bit extraction as the striped index's stripe choice: shard s owns
  // the disjoint stripe set {t : t & mask_ == s} whenever the index has at
  // least num_shards() stripes.
  size_t ShardOf(ObjectId id) const {
    return (FlatMapHash(id) >> 32) & mask_;
  }

  EvictionDomain& shard(size_t s) { return *shards_[s]; }
  const EvictionDomain& shard(size_t s) const { return *shards_[s]; }
  // The value store, or nullptr when the cache is metadata-only.
  SlabStore* store() const { return store_.get(); }

  void Count(ConcurrentStatsCounters::Counter kind, ObjectId) {
    counters.Add(kind);
  }
  void Lap(ObjectId) {}

  size_t MemoryBytes() const {
    size_t bytes = index.MemoryBytes() + counters.MemoryBytes();
    for (const auto& domain : shards_) {
      bytes += sizeof(EvictionDomain) + domain->buffers.MemoryBytes();
    }
    if (store_ != nullptr) {
      bytes += store_->ApproxMetadataBytes();
    }
    return bytes;
  }

 private:
  // Matches the striped index's 256-stripe cap so shard selection can
  // always align with a stripe set.
  static constexpr size_t kMaxShards = 256;

  static std::vector<std::unique_ptr<EvictionDomain>> MakeShards(
      size_t capacity, size_t num_shards, size_t min_capacity_per_shard) {
    QDLP_CHECK(num_shards >= 1);
    QDLP_CHECK(min_capacity_per_shard >= 1);
    QDLP_CHECK(capacity >= min_capacity_per_shard);
    const size_t shards =
        ShardCount(capacity, num_shards, min_capacity_per_shard);
    // One domain keeps the historical 8x256 buffer bank; with many domains
    // each keeps its own (smaller) bank so aggregate buffer space grows
    // sub-linearly with the shard count.
    const size_t rings = shards == 1 ? 8 : 4;
    const size_t ring_capacity = shards == 1 ? 256 : 128;
    std::vector<std::unique_ptr<EvictionDomain>> domains;
    domains.reserve(shards);
    size_t next_base = 0;
    for (size_t i = 0; i < shards; ++i) {
      auto domain = std::make_unique<EvictionDomain>(rings, ring_capacity);
      domain->capacity = capacity / shards + (i < capacity % shards ? 1 : 0);
      domain->base = next_base;
      next_base += domain->capacity;
      domains.push_back(std::move(domain));
    }
    return domains;
  }

  static size_t IndexEntries(
      size_t capacity,
      const std::vector<std::unique_ptr<EvictionDomain>>& shards,
      size_t (*ghost_capacity)(size_t share)) {
    size_t entries = capacity;
    for (const auto& domain : shards) {
      entries += ghost_capacity(domain->capacity);
    }
    return entries;
  }

  // Declared before the index, which is sized from them and keeps cells.
  const size_t capacity_;
  std::vector<std::unique_ptr<EvictionDomain>> shards_;
  const size_t mask_;
  std::unique_ptr<SlabStore> store_;

 public:
  CellIndex index;
  ConcurrentStatsCounters counters;
};

// A ghost kept in the index (§4's ghost FIFO): the ids a Regions
// quick-demoted, oldest first, whose index entries stay behind as ghost
// records. The id in list slot i is indexed as kGhostTag | (base + i), so
// one probe tells a resident, a ghost and a cold id apart, and a demotion
// or a resurrection is one in-place index Update. Exact: it remembers the
// last `capacity` demotions that have not come back, forgetting the oldest
// first. Runs under the owning shard's mutex.
class IndexedGhost {
 public:
  IndexedGhost(size_t base, size_t capacity)
      : base_(base), capacity_(capacity) {
    QDLP_CHECK(capacity >= 1);
    list_.Reserve(capacity);
  }

  // Turns resident `id`'s entry into its ghost record, first forgetting
  // the oldest ghost (from the list and the index) when full.
  template <typename Core>
  void Push(Core& core, ObjectId id) {
    if (list_.size() >= capacity_) {
      const uint32_t oldest = list_.front();
      core.index.Erase(list_[oldest]);
      // Holds() compares a slot's id, and a freed slot keeps its last one.
      list_[oldest] = StripedAtomicIndex::kEmptyKey;
      list_.Erase(oldest);
    }
    const uint32_t slot = list_.PushBack(id);
    core.index.Update(id, StripedAtomicIndex::kGhostTag |
                              static_cast<uint32_t>(base_ + slot));
  }

  // Whether the ghost record `entry` of `id`, read before some Push()es,
  // is still live: a Push may have forgotten it, and may even have handed
  // its list slot to another id.
  bool Holds(uint32_t entry, ObjectId id) const {
    return list_[SlotOf(entry)] == id;
  }

  // Drops `entry`'s id from the list; its caller Updates the id's entry to
  // the location it resurrects into.
  void Consume(uint32_t entry) { list_.Erase(SlotOf(entry)); }

  size_t size() const { return list_.size(); }
  size_t MemoryBytes() const { return list_.MemoryBytes(); }

  // Every listed id belongs to shard s and is indexed as a ghost record at
  // its own slot (the cores check that the index holds no other ghosts).
  template <typename Core>
  void CheckLocked(const Core& core, size_t s) const {
    QDLP_CHECK(list_.size() <= capacity_);
    list_.CheckInvariants();
    list_.ForEach([&](uint32_t slot, ObjectId id) {
      QDLP_CHECK(core.ShardOf(id) == s);
      QDLP_CHECK(core.index.Entry(id) ==
                 (StripedAtomicIndex::kGhostTag |
                  static_cast<uint32_t>(base_ + slot)));
    });
  }

 private:
  uint32_t SlotOf(uint32_t entry) const {
    return static_cast<uint32_t>((entry & ~StripedAtomicIndex::kGhostTag) -
                                 base_);
  }

  size_t base_;
  size_t capacity_;
  IntrusiveList<ObjectId> list_;  // front = oldest
};

// The eviction-domain protocol of the lock-free caches, written once, as
// their Cache: the lock-free hit path, the miss path's try-lock / buffer /
// drain sequence, the blocking Set and Delete, the value path, Stats and
// the invariant sweep. Each design (concurrent_clock.h,
// concurrent_s3fifo.h, concurrent_qdlp_fifo.h) is a Regions type that
// supplies only its shard-local queue logic, composed at compile time so a
// hit stays one index probe plus one relaxed store or RMW. The same
// Regions, over a serial core, are the designs' single-threaded policies
// (src/core/regions_policy.h):
//
//   Regions(Core& core, ...)           extra arguments come from the cache
//   static size_t GhostCapacity(size_t share)
//       ghost records a shard of that capacity share keeps (0: no ghost)
//   void Touch(uint32_t value)         lock-free hit at an index value
//   void AdmitLocked(size_t s, ObjectId id, uint32_t entry)
//       admits a non-resident id into shard s and indexes it; `entry` is
//       its ghost record or kNoEntry (the core's one probe of the miss).
//       Any victim is unindexed or turned into a ghost record before its
//       location is reused, and counted with
//       core.Count(ConcurrentStatsCounters::kEvictions, victim)
//   bool EvictOneLocked(size_t s)
//       makes room in shard s without admitting: evicts one object, or
//       takes a step (a promotion) that later calls complete into an
//       eviction; false once the shard holds nothing
//   void UnlinkLocked(size_t s, uint32_t value)
//       drops the queue state of an object Delete() just unindexed
//   void FillOccupancy(size_t s, CacheStats* stats) const
//   size_t CheckShardLocked(size_t s) const
//       checks shard s's queues, ghost and their index entries; returns
//       the shard's resident count
//   size_t MemoryBytes() const
//
// A resident's index value is its location in [0, capacity), which is
// also its value cell: CellIndex moves the cell with each index write.
// Shard s indexes objects only at its own locations, so its mutex
// serializes those cells' writers.
// "Locked" methods run under shard s's mutex; CheckShardLocked runs under
// every shard's.
template <typename Regions>
class DomainCache : public Cache {
 public:
  bool GetOrAdmit(ObjectId id) override {
    if (TouchIfResident(id)) {
      return true;
    }
    // Miss path. Uncontended (and always, single-threaded): take the home
    // domain's lock, drain its buffered misses, admit. Contended: buffer the
    // id for the next holder of the lock to admit and return without
    // blocking.
    // Hit/miss is counted where the outcome is known: the locked re-probe
    // can discover the object was admitted by another thread (or an earlier
    // buffered copy of this miss) after the lock-free probe above failed,
    // and that call is a hit to its caller. The same re-probe absorbs the
    // index's false misses (a probe that raced a backward shift,
    // striped_index.h): under the home-domain lock no shift of the id's
    // stripe can run. If the try-lock fails instead, the miss is counted
    // and the buffered admission finds the id resident and admits nothing.
    const size_t s = ShardOf(id);
    EvictionDomain& domain = core_.shard(s);
    if (domain.mu.try_lock()) {
      std::lock_guard<std::mutex> lock(domain.mu, std::adopt_lock);
      core_.counters.Add(ConcurrentStatsCounters::kLockAcquisitions);
      DrainShardLocked(s);
      const bool hit = MissLocked(s, id);
      CountAccess(hit);
      return hit;
    }
    core_.counters.Add(ConcurrentStatsCounters::kLockFailures);
    core_.counters.Add(ConcurrentStatsCounters::kMisses);
    if (!domain.buffers.TryPush(id)) {
      // Buffers full while the lock is held elsewhere — on an
      // oversubscribed machine that usually means the lock holder was
      // preempted mid-drain. Blocking here would convoy every missing
      // thread behind the sleeping holder, so admission is best-effort
      // instead: drop this one (the object is buffered or admitted on its
      // next miss) and keep GetOrAdmit() non-blocking.
      core_.counters.Add(ConcurrentStatsCounters::kBufferDrops);
    }
    return false;
  }

  // Unlinks `id` under its home-domain mutex. Blocking, unlike the miss
  // path's try_lock: removal is rare (invalidation, TTL reap, a DELETE
  // request) and must not be best-effort. Safe to block — lock holders
  // never wait on other locks. Counts as an eviction; leaves no ghost
  // trace (the object was invalidated, it did not age out).
  bool Delete(ObjectId id) override {
    const size_t s = ShardOf(id);
    const std::unique_lock<std::mutex> lock = LockShard(s);
    uint32_t value;
    if (!core_.index.Find(id, &value)) {
      return false;
    }
    // Erase before the location can be recycled: readers stop finding the
    // id first.
    core_.index.Erase(id);
    regions_.UnlinkLocked(s, value);
    core_.counters.Add(ConcurrentStatsCounters::kEvictions);
    return true;
  }

  // Flow counters from striped thread-exclusive cells (lock-free to read);
  // per-region occupancy summed under the shard mutexes one at a time; the
  // resident count from the index. Safe concurrently with every operation.
  CacheStats Stats() const override {
    CacheStats stats = core_.counters.Snapshot();
    for (size_t s = 0; s < num_shards(); ++s) {
      std::lock_guard<std::mutex> lock(core_.shard(s).mu);
      regions_.FillOccupancy(s, &stats);
    }
    stats.size = core_.index.size();
    return stats;
  }

  // Region structure and index agreement under all shard mutexes, buffered
  // misses drained first. Blocking is safe: the miss path only ever
  // try-locks, so no lock-order cycle exists. Not counted as acquisitions.
  void CheckInvariants() override {
    std::vector<std::unique_lock<std::mutex>> locks;
    for (size_t s = 0; s < num_shards(); ++s) {
      locks.emplace_back(core_.shard(s).mu);
      DrainShardLocked(s);
    }
    size_t resident = 0;
    CacheStats occupancy;
    for (size_t s = 0; s < num_shards(); ++s) {
      resident += regions_.CheckShardLocked(s);
      regions_.FillOccupancy(s, &occupancy);
    }
    // Every resident is indexed at its location and every ghost-list id at
    // its ghost record (checked per shard), so equal counts mean the index
    // holds nothing else.
    QDLP_CHECK(core_.index.size() == resident);
    QDLP_CHECK(core_.index.ghosts() == occupancy.ghost_size);
    QDLP_CHECK(resident <= capacity());
    core_.index.CheckInvariants();
    if (SlabStore* store = core_.store(); store != nullptr) {
      // Every resident owns the cell its entry names (CellIndex keeps them
      // in step), so no read of it is stale.
      std::string scratch;
      core_.index.ForEach([&](ObjectId id, uint32_t cell) {
        QDLP_CHECK(store->Read(cell, id, /*now_s=*/0, &scratch) !=
                   SlabStore::ReadResult::kStale);
      });
      store->CheckInvariants();
    }
  }

  // ---- Value path (QdlpValueOptions::arena_bytes > 0). ----
  //
  // Get is the serving read: a lock-free index probe, the same lazy-
  // promotion touch as GetOrAdmit() on a hit, and a seqlock copy of the
  // bytes. It NEVER admits — a GET carries no bytes to store, so a miss
  // stays a miss (counted) until the client SETs. A resident without bytes
  // yet (admitted by GetOrAdmit()) is a serving miss, and so is an expired
  // value, which lazily removes the object. A metadata-only cache has no
  // bytes to serve: its Get is GetOrAdmit() with *value left empty.
  bool Get(ObjectId id, std::string* value) override {
    SlabStore* store = core_.store();
    if (store == nullptr) {
      if (value != nullptr) {
        value->clear();
      }
      return GetOrAdmit(id);
    }
    std::string scratch;
    if (value == nullptr) {
      value = &scratch;
    }
    const uint64_t now_s = now_fn_();
    // kStale: the object moved (a promotion) or was replaced between the
    // probe and the cell read, which is transient, so the id is probed
    // again; the cap is a guard. An id no longer indexed ends as kStale.
    SlabStore::ReadResult read = SlabStore::ReadResult::kStale;
    uint32_t cell = 0;
    for (int probe = 0; probe < 8 && read == SlabStore::ReadResult::kStale;
         ++probe) {
      if (!core_.index.Find(id, &cell)) {
        break;
      }
      read = store->Read(cell, id, now_s, value);
    }
    if (read == SlabStore::ReadResult::kHit) {
      regions_.Touch(cell);
    } else if (read == SlabStore::ReadResult::kExpired) {
      Delete(id);
    }
    CountAccess(read == SlabStore::ReadResult::kHit);
    return read == SlabStore::ReadResult::kHit;
  }

  // Set is the serving write: under the home-domain mutex (blocking) it
  // allocates a chunk — evicting from this shard until the arena can
  // satisfy the request — admits the id if not resident (ghost
  // resurrection rules apply, counted as an insert but never as a miss:
  // the GET that preceded it already counted), and commits the bytes.
  // `ttl_seconds` is relative (0 = never expires). A metadata-only cache
  // ignores bytes and ttl: its Set is GetOrAdmit() with a miss that blocks
  // on the home-domain mutex instead of deferring to the insert buffers,
  // so the id is resident on return. Uncontended that is byte-identical to
  // GetOrAdmit().
  SetStatus Set(ObjectId id, std::string_view value,
                uint32_t ttl_seconds) override {
    SlabStore* store = core_.store();
    if (store == nullptr) {
      if (!TouchIfResident(id)) {
        const size_t s = ShardOf(id);
        const std::unique_lock<std::mutex> lock = LockShard(s);
        CountAccess(MissLocked(s, id));
      }
      return SetStatus::kOk;
    }
    if (value.size() > store->max_value_len()) {
      return SetStatus::kTooLarge;
    }
    const uint64_t expiry_s = ttl_seconds == 0 ? 0 : now_fn_() + ttl_seconds;
    const size_t s = ShardOf(id);
    const std::unique_lock<std::mutex> lock = LockShard(s);
    // Allocate before touching residency: arena-pressure evictions free
    // other objects' chunks, never this uncommitted one — but they may
    // evict this very id's metadata, so residency is (re)established after.
    SlabStore::ChunkRef chunk;
    while ((chunk = store->Allocate(s, value.size())) ==
           SlabStore::kNullChunk) {
      if (!regions_.EvictOneLocked(s)) {
        return SetStatus::kNoSpace;  // arena can't hold it even when empty
      }
    }
    uint32_t cell;
    if (!core_.index.Find(id, &cell)) {
      MissLocked(s, id);
      QDLP_CHECK(core_.index.Find(id, &cell));
    }
    store->WriteChunk(chunk, value.data(), value.size());
    store->FreeChunk(store->Commit(cell, id, chunk, expiry_s));
    return SetStatus::kOk;
  }

  bool thread_safe() const override { return true; }
  bool stores_values() const override { return core_.store() != nullptr; }

  // The value store, or nullptr when metadata-only.
  SlabStore* value_store() { return core_.store(); }

  size_t ApproxMetadataBytes() const override {
    return core_.MemoryBytes() + regions_.MemoryBytes();
  }

  size_t capacity() const override { return core_.capacity(); }

  // Resident object count (approximate under concurrency).
  size_t size() const { return core_.index.size(); }

  size_t num_shards() const { return core_.num_shards(); }
  size_t ShardOf(ObjectId id) const { return core_.ShardOf(id); }
  // The shard's capacity share.
  size_t shard_capacity(size_t s) const { return core_.shard_capacity(s); }

 protected:
  // `num_shards` eviction domains (rounded/clamped by DomainCore, so
  // every share is >= min_capacity_per_shard), with `values`' store and
  // TTL clock; the index gets max(num_stripes, shard count) stripes.
  template <typename... RegionsArgs>
  DomainCache(size_t capacity, size_t num_stripes, size_t num_shards,
              size_t min_capacity_per_shard, const QdlpValueOptions& values,
              RegionsArgs&&... regions_args)
      : core_(capacity, num_stripes, num_shards, min_capacity_per_shard,
              &Regions::GhostCapacity, values),
        regions_(core_, std::forward<RegionsArgs>(regions_args)...),
        now_fn_(values.now_fn != nullptr ? values.now_fn : &WallClockSeconds) {
  }

  // The lock-free hit path: one probe, one Touch, one counter bump. A
  // ghost record reads as a miss.
  bool TouchIfResident(ObjectId id) {
    uint32_t value;
    if (!core_.index.Find(id, &value)) {
      return false;
    }
    regions_.Touch(value);
    core_.counters.Add(ConcurrentStatsCounters::kHits);
    return true;
  }

  // Blocking acquisition of shard s for a write or control operation:
  // counted, with the domain's buffered misses settled first so none of
  // them lands after the caller's operation.
  std::unique_lock<std::mutex> LockShard(size_t s) {
    std::unique_lock<std::mutex> lock(core_.shard(s).mu);
    core_.counters.Add(ConcurrentStatsCounters::kLockAcquisitions);
    DrainShardLocked(s);
    return lock;
  }

  // Under shard s's mutex: admits `id` unless it is already resident;
  // returns true on that raced hit. Counts the insert, not the access. The
  // one probe tells a resident from a ghost record (handed to the Regions)
  // and from an unindexed id; kNoEntry carries the ghost tag too.
  bool MissLocked(size_t s, ObjectId id) {
    const uint32_t entry = core_.index.Entry(id);
    if (!StripedAtomicIndex::IsGhost(entry)) {
      return true;  // another thread (or an earlier buffered copy) admitted it
    }
    regions_.AdmitLocked(s, id, entry);
    core_.counters.Add(ConcurrentStatsCounters::kInserts);
    return false;
  }

  void CountAccess(bool hit) {
    core_.counters.Add(hit ? ConcurrentStatsCounters::kHits
                           : ConcurrentStatsCounters::kMisses);
  }

  DomainCore core_;
  Regions regions_;

 private:
  static uint64_t WallClockSeconds() {
    return static_cast<uint64_t>(std::time(nullptr));
  }

  // Admits shard s's buffered misses.
  void DrainShardLocked(size_t s) {
    core_.counters.AddDrainBatch(core_.shard(s).buffers.Drain(
        [&](uint64_t id) { MissLocked(s, id); }));
  }

  uint64_t (*const now_fn_)();  // the TTL clock, in absolute seconds
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_EVICTION_DOMAINS_H_
