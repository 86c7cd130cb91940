#include "src/concurrent/concurrent_qdlp_fifo.h"

#include <mutex>

#include "src/util/check.h"

namespace qdlp {

template class QdLpRegions<DomainCore>;
template class DomainCache<QdLpRegions<DomainCore>>;

ConcurrentQdLpFifo::ConcurrentQdLpFifo(size_t capacity, size_t num_stripes,
                                       size_t num_shards,
                                       QdlpValueOptions value_options)
    // Every shard needs a probation slot and a main slot, so shares must
    // be at least 2; DomainCore halves the shard count until so.
    : DomainCache(capacity, num_stripes, num_shards,
                  /*min_capacity_per_shard=*/2, value_options) {}

bool ConcurrentQdLpFifo::GetValue(ObjectId id, uint64_t now_s,
                                  std::string* value) {
  SlabStore* store = regions_.store();
  QDLP_CHECK(store != nullptr);
  // Bounded re-probe loop: kStale means the object moved (a promotion) or
  // was replaced between the index probe and the cell read.
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
