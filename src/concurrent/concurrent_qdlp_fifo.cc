#include "src/concurrent/concurrent_qdlp_fifo.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "src/util/check.h"

namespace qdlp {

namespace {

// MakePolicy("qd-lp-fifo")'s split: probation 10% (rounded, at least 1,
// at most capacity - 1), main the remainder. Applied per shard to its
// capacity share so a one-shard cache reproduces the sequential split.
size_t ProbationCapacity(size_t capacity) {
  size_t probation = std::max<size_t>(
      1,
      static_cast<size_t>(std::llround(static_cast<double>(capacity) * 0.10)));
  return std::min(probation, capacity - 1);
}

std::vector<size_t> MainCapacities(const EvictionDomains& domains) {
  std::vector<size_t> capacities(domains.num_shards());
  for (size_t s = 0; s < capacities.size(); ++s) {
    const size_t share = domains.shard(s).capacity;
    capacities[s] = share - ProbationCapacity(share);
  }
  return capacities;
}

}  // namespace

QdLpRegions::QdLpRegions(DomainCore& core,
                         const QdlpValueOptions& value_options)
    : core_(core), main_(MainCapacities(core.domains), kMaxCounter) {
  const size_t shards = core.domains.num_shards();
  size_t probation_total = 0;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    const size_t share = core.domains.shard(s).capacity;
    const size_t probation = ProbationCapacity(share);
    // The ghost is as large as the main region (factor 1.0).
    shards_.emplace_back(probation_total, probation, share - probation);
    probation_total += probation;
    main_capacity_ += share - probation;
  }
  probation_ = std::vector<ProbationSlot>(probation_total);
  if (value_options.arena_bytes > 0) {
    // One cell per metadata location (probation positions then main
    // slots), one arena per eviction domain so eviction frees value bytes
    // under the mutex it already holds.
    store_ = std::make_unique<SlabStore>(core.domains.capacity(), shards,
                                         value_options.arena_bytes / shards,
                                         value_options.max_value_len);
  }
}

void QdLpRegions::FillOccupancy(size_t s, CacheStats* stats) const {
  const Shard& shard = shards_[s];
  stats->probation_size += shard.probation_count;
  stats->main_size += main_.count(s);
  stats->ghost_size += shard.ghost.size();
}

size_t QdLpRegions::CheckShardLocked(size_t s) const {
  const Shard& shard = shards_[s];
  QDLP_CHECK(shard.probation_count <= shard.probation_capacity);
  QDLP_CHECK(shard.probation_head < shard.probation_capacity);
  // Probation ring entries are indexed at their global position.
  for (size_t i = 0; i < shard.probation_count; ++i) {
    const size_t pos = shard.probation_base +
                       (shard.probation_head + i) % shard.probation_capacity;
    uint32_t value;
    QDLP_CHECK(core_.domains.ShardOf(probation_[pos].id) == s);
    QDLP_CHECK(core_.index.Find(probation_[pos].id, &value));
    QDLP_CHECK(value == static_cast<uint32_t>(pos));
  }
  // Main ring entries are indexed at their tagged slot.
  const size_t main = main_.CheckRegion(s, [&](ObjectId id, uint32_t slot) {
    uint32_t value;
    QDLP_CHECK(core_.domains.ShardOf(id) == s);
    QDLP_CHECK(core_.index.Find(id, &value));
    QDLP_CHECK(value == (kMainBit | slot));
  });
  // An object holds space in exactly one region; the tags above prove
  // probation/main disjointness (one index entry per id). Ghost entries
  // are history, never resident.
  shard.ghost.ForEachLive(
      [&](ObjectId id) { QDLP_CHECK(!core_.index.Contains(id)); });
  shard.ghost.CheckInvariants();
  return shard.probation_count + main;
}

void QdLpRegions::CheckSharedLocked() const {
  if (!store_) {
    return;
  }
  // Every resident id owns its paired value cell (stamped at admission,
  // moved with every metadata move), so a read is never stale here.
  std::string scratch;
  core_.index.ForEach([&](ObjectId id, uint32_t value) {
    QDLP_CHECK(store_->Read(CellOf(value), id, /*now_s=*/0, &scratch) !=
               SlabStore::ReadResult::kStale);
  });
  store_->CheckInvariants();
}

size_t QdLpRegions::MemoryBytes() const {
  size_t bytes =
      probation_.capacity() * sizeof(ProbationSlot) + main_.MemoryBytes();
  for (const Shard& shard : shards_) {
    bytes += sizeof(Shard) + shard.ghost.ApproxMetadataBytes();
  }
  if (store_) {
    bytes += store_->ApproxMetadataBytes();
  }
  return bytes;
}

void QdLpRegions::ClearCell(uint32_t cell) {
  if (store_) {
    store_->FreeChunk(store_->ClearCell(cell));
  }
}

void QdLpRegions::AdmitLocked(size_t s, ObjectId id) {
  if (shards_[s].ghost.Consume(id)) {
    // Quick-demoted once already: admit straight into the main cache.
    core_.counters.Add(ConcurrentStatsCounters::kGhostHits);
    MainInsert(s, id, kNoCell);
  } else {
    AdmitToProbation(s, id);
  }
}

void QdLpRegions::AdmitToProbation(size_t s, ObjectId id) {
  Shard& shard = shards_[s];
  while (shard.probation_count >= shard.probation_capacity) {
    EvictFromProbation(s);
  }
  const size_t pos = shard.probation_base +
                     (shard.probation_head + shard.probation_count) %
                         shard.probation_capacity;
  ProbationSlot& slot = probation_[pos];
  slot.id = id;
  slot.accessed.store(0, std::memory_order_relaxed);
  ++shard.probation_count;
  core_.index.Insert(id, static_cast<uint32_t>(pos));
  if (store_) {
    // Stamp cell ownership (no bytes yet): a GetValue between this
    // metadata-only admission and the first SetValue reads a clean
    // kNoValue instead of spinning on a stale previous occupant.
    store_->FreeChunk(store_->Commit(static_cast<uint32_t>(pos), id,
                                     SlabStore::kNullChunk, 0));
  }
}

void QdLpRegions::EvictFromProbation(size_t s) {
  Shard& shard = shards_[s];
  QDLP_DCHECK(shard.probation_count > 0);
  const uint32_t pos =
      static_cast<uint32_t>(shard.probation_base + shard.probation_head);
  ProbationSlot& slot = probation_[pos];
  shard.probation_head = (shard.probation_head + 1) % shard.probation_capacity;
  --shard.probation_count;
  const ObjectId victim = slot.id;
  const bool accessed = slot.accessed.load(std::memory_order_relaxed) != 0;
  // Erase before the slot can be recycled: readers stop finding the victim
  // first (a racing reader at worst sets the next occupant's accessed bit).
  core_.index.Erase(victim);
  if (accessed) {
    // Lazy promotion: re-accessed while on probation -> main cache. The
    // value cell moves with the metadata.
    core_.counters.Add(ConcurrentStatsCounters::kPromotions);
    MainInsert(s, victim, store_ ? pos : kNoCell);
    return;
  }
  // Quick demotion: one lap through the small FIFO was its only chance.
  ClearCell(pos);
  shard.ghost.Insert(victim);
  core_.counters.Add(ConcurrentStatsCounters::kDemotions);
  core_.CountEviction(s);
}

void QdLpRegions::MainInsert(size_t s, ObjectId id, uint32_t from_cell) {
  if (main_.full(s)) {
    EvictMain(s);
  }
  const uint32_t slot = main_.Take(s, id);
  core_.index.Insert(id, kMainBit | slot);
  if (store_) {
    // Every vacant main slot's cell is empty (eviction and removal clear
    // it), so a promotion moves the value with the metadata; a fresh
    // admission (ghost resurrection) stamps ownership with no bytes.
    const uint32_t cell = CellOf(kMainBit | slot);
    if (from_cell != kNoCell) {
      store_->MoveCell(from_cell, cell);
    } else {
      store_->FreeChunk(store_->Commit(cell, id, SlabStore::kNullChunk, 0));
    }
  }
}

void QdLpRegions::EvictMain(size_t s) {
  // Main CLOCK laps are internal, as in the sequential QdCache: not
  // counted as promotions.
  const uint32_t slot = main_.NextVictim(s, [] {});
  core_.index.Erase(main_.id(slot));
  ClearCell(CellOf(kMainBit | slot));
  main_.Free(s, slot);
  core_.CountEviction(s);
}

bool QdLpRegions::EvictForSpaceLocked(size_t s) {
  if (shards_[s].probation_count > 0) {
    // Quick demotion frees the victim's chunk directly; a lazy promotion
    // frees nothing itself but can cascade into a main eviction, and
    // probation strictly shrinks, so repeated calls make progress.
    EvictFromProbation(s);
    return true;
  }
  if (main_.count(s) == 0) {
    return false;
  }
  // The freed slot goes on the main free list, so the next admission
  // reuses it instead of evicting another object.
  EvictMain(s);
  return true;
}

void QdLpRegions::UnlinkLocked(size_t s, uint32_t value) {
  ClearCell(CellOf(value));
  if (value & kMainBit) {
    main_.Free(s, value & ~kMainBit);
    return;
  }
  // Probation is a dense circular FIFO, so removal compacts from the head
  // side: every entry between the head and the hole shifts one position
  // toward the tail (preserving FIFO order), then the head advances over
  // the vacated slot. At most one probation share of moves, each a slot
  // copy + index update (+ cell move).
  Shard& shard = shards_[s];
  const size_t local = value - shard.probation_base;
  const size_t dist =
      (local + shard.probation_capacity - shard.probation_head) %
      shard.probation_capacity;
  for (size_t i = dist; i > 0; --i) {
    const size_t to = shard.probation_base +
                      (shard.probation_head + i) % shard.probation_capacity;
    const size_t from =
        shard.probation_base +
        (shard.probation_head + i - 1) % shard.probation_capacity;
    probation_[to].id = probation_[from].id;
    // A concurrent hit racing this move can drop its accessed bit or
    // land it on the vacated slot — a lost reference bit, benign.
    probation_[to].accessed.store(
        probation_[from].accessed.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    core_.index.Update(probation_[to].id, static_cast<uint32_t>(to));
    if (store_) {
      store_->MoveCell(static_cast<uint32_t>(from), static_cast<uint32_t>(to));
    }
  }
  shard.probation_head = (shard.probation_head + 1) % shard.probation_capacity;
  --shard.probation_count;
}

template class DomainCache<QdLpRegions>;

ConcurrentQdLpFifo::ConcurrentQdLpFifo(size_t capacity, size_t num_stripes,
                                       size_t num_shards,
                                       QdlpValueOptions value_options)
    // Every shard needs a probation slot and a main slot, so shares must
    // be at least 2; EvictionDomains halves the shard count until so.
    : DomainCache(capacity, num_stripes, num_shards,
                  /*min_capacity_per_shard=*/2, value_options) {}

bool ConcurrentQdLpFifo::GetValue(ObjectId id, uint64_t now_s,
                                  std::string* value) {
  SlabStore* store = regions_.store();
  QDLP_CHECK(store != nullptr);
  // Bounded re-probe loop: kStale means the object moved (promotion,
  // compaction) or was replaced between the index probe and the cell read.
  // Every resident id's cell is ownership-stamped at admission, so
  // staleness is transient; the cap is belt and braces.
  for (int attempt = 0; attempt < 8; ++attempt) {
    uint32_t pos;
    if (!core_.index.Find(id, &pos)) {
      break;
    }
    switch (store->Read(regions_.CellOf(pos), id, now_s, value)) {
      case SlabStore::ReadResult::kHit:
        regions_.Touch(pos);
        CountAccess(/*hit=*/true);
        return true;
      case SlabStore::ReadResult::kNoValue:
        // Metadata-resident but no bytes committed yet (admitted via the
        // metadata-only Get() path): a serving miss.
        CountAccess(/*hit=*/false);
        return false;
      case SlabStore::ReadResult::kExpired:
        // Lazy TTL: first touch past expiry reaps the object.
        Remove(id);
        CountAccess(/*hit=*/false);
        return false;
      case SlabStore::ReadResult::kStale:
        continue;
    }
  }
  // A GET carries no bytes to store, so a miss never admits and never
  // touches the ghost — the client's SET does the admission.
  CountAccess(/*hit=*/false);
  return false;
}

ConcurrentQdLpFifo::SetResult ConcurrentQdLpFifo::SetValue(
    ObjectId id, std::string_view value, uint64_t expiry_s) {
  SlabStore* store = regions_.store();
  QDLP_CHECK(store != nullptr);
  if (value.size() > store->max_value_len()) {
    return SetResult::kTooLarge;
  }
  const size_t s = ShardOf(id);
  const std::unique_lock<std::mutex> lock = LockShard(s);
  // Allocate before touching residency: arena-pressure evictions free
  // other objects' chunks, never this uncommitted one — but they may evict
  // this very id's metadata, so residency is (re)established after.
  SlabStore::ChunkRef chunk;
  while ((chunk = store->Allocate(s, value.size())) == SlabStore::kNullChunk) {
    if (!regions_.EvictForSpaceLocked(s)) {
      return SetResult::kNoSpace;  // arena can't hold it even when empty
    }
  }
  uint32_t pos;
  if (!core_.index.Find(id, &pos)) {
    // Admission follows the normal miss rules (ghost resurrection included)
    // and counts as an insert — never as a serving miss: the GET that
    // preceded this SET already counted it.
    MissLocked(s, id);
    const bool resident = core_.index.Find(id, &pos);
    QDLP_CHECK(resident);
  }
  store->WriteChunk(chunk, value.data(), value.size());
  store->FreeChunk(store->Commit(regions_.CellOf(pos), id, chunk, expiry_s));
  return SetResult::kOk;
}

}  // namespace qdlp
