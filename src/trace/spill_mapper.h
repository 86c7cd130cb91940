// Out-of-core dense-id assignment: the DenseIdMapper contract (u64 object
// id -> dense u32 in first-appearance order) under a fixed memory budget.
//
// DenseIdMapper holds its whole u64->u32 table in RAM, so densifying a
// trace requires the id universe to fit in memory — the one remaining
// O(universe) allocation on the streaming replay path. This mapper spills
// instead: ids are assigned from an in-memory epoch table, and when the
// table reaches its budgeted share the epoch is frozen to disk as a sorted
// (id, dense) run. Lookups check, in order:
//
//   1. the current epoch's in-memory table,
//   2. a small direct-mapped hot cache of recently translated ids
//      (cache workloads are skewed, so this absorbs most re-accesses),
//   3. each frozen epoch, newest first — skipped via a per-epoch
//      [min, max] id range and an in-memory Bloom filter (~1 byte/id, an
//      order of magnitude smaller than the table entry it replaces), with
//      a binary search over the sorted run on a maybe-hit.
//
// The budget covers the epoch table, the hot cache, and the Bloom
// filters. When the accumulated Bloom filters would exceed their share
// (universe far beyond what the budget's summaries can cover), newer
// epochs simply go bloomless — lookups into them always binary-search, so
// memory stays bounded at the cost of extra disk probes, never
// correctness. ApproxMemoryBytes()/peak_memory_bytes() expose the
// accounting so tests can pin "a trace 10x the budget stays within
// budget".
//
// Dense ids are identical to DenseIdMapper's for the same stream (pinned
// in tests/spill_mapper_test.cc). No reverse to_original mapping is kept —
// that is itself O(universe); streaming consumers that need original ids
// keep the raw chunk instead (StreamReplayTrace in
// src/sim/replay_engine.cc). Not thread-safe.

#ifndef QDLP_SRC_TRACE_SPILL_MAPPER_H_
#define QDLP_SRC_TRACE_SPILL_MAPPER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/trace.h"
#include "src/util/bloom_filter.h"
#include "src/util/flat_map.h"

namespace qdlp {

struct SpillMapperOptions {
  // Total resident budget for the mapper's state. The floor is a few tens
  // of KiB (a minimum epoch table and hot cache are always allocated).
  size_t mem_budget_bytes = size_t{256} << 20;
  // Directory for spill runs; a unique subdirectory is created inside it
  // and removed on destruction. Empty = $TMPDIR or /tmp.
  std::string spill_dir;
};

class SpillableDenseIdMapper {
 public:
  explicit SpillableDenseIdMapper(const SpillMapperOptions& options = {});
  ~SpillableDenseIdMapper();

  SpillableDenseIdMapper(const SpillableDenseIdMapper&) = delete;
  SpillableDenseIdMapper& operator=(const SpillableDenseIdMapper&) = delete;

  // Returns the dense id for `id`, assigning the next free one on first
  // sight. Dense ids count up from 0 in first-appearance order, exactly as
  // DenseIdMapper assigns them.
  uint32_t MapOrAssign(ObjectId id);

  // Number of distinct ids seen so far.
  uint32_t num_ids() const { return next_dense_; }

  // Current / peak resident bytes of the mapper's state (epoch table, hot
  // cache, Bloom filters, per-epoch metadata).
  size_t ApproxMemoryBytes() const;
  size_t peak_memory_bytes() const { return peak_memory_bytes_; }

  size_t spilled_epochs() const { return epochs_.size(); }
  // Telemetry: disk binary searches performed / hot-cache translations.
  uint64_t spill_probes() const { return spill_probes_; }
  uint64_t hot_cache_hits() const { return hot_cache_hits_; }

  // False after a spill I/O failure. The mapper stays correct by keeping
  // everything in memory from that point on (the budget is no longer
  // honored); strict callers should treat !ok() as fatal.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  struct Epoch {
    std::string path;
    std::FILE* file = nullptr;
    uint64_t count = 0;
    ObjectId min_id = 0;
    ObjectId max_id = 0;
    std::unique_ptr<BloomFilter> bloom;  // null when over the bloom budget
  };

  struct CacheEntry {
    ObjectId id = 0;
    uint32_t dense = kEmptyCacheSlot;
  };
  static constexpr uint32_t kEmptyCacheSlot = ~uint32_t{0};

  void Spill();
  bool EpochLookup(const Epoch& epoch, ObjectId id, uint32_t* dense);
  void CacheInsert(ObjectId id, uint32_t dense);
  void UpdatePeak();

  size_t epoch_entry_limit_ = 0;  // spill when the epoch table reaches this
  size_t bloom_budget_bytes_ = 0;
  size_t bloom_bytes_ = 0;  // accumulated across epochs

  FlatMap<uint32_t> current_;
  // Direct-mapped, power-of-two size; empty until the first spill (it only
  // caches spilled ids, see Spill()).
  std::vector<CacheEntry> cache_;
  size_t cache_entries_ = 0;
  size_t cache_mask_ = 0;
  std::vector<Epoch> epochs_;
  std::string dir_;  // unique spill directory ("" until first spill)
  std::string dir_base_;

  uint32_t next_dense_ = 0;
  uint64_t spill_probes_ = 0;
  uint64_t hot_cache_hits_ = 0;
  size_t peak_memory_bytes_ = 0;
  std::string error_;
};

}  // namespace qdlp

#endif  // QDLP_SRC_TRACE_SPILL_MAPPER_H_
