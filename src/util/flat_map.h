// Open-addressing hash map keyed by 64-bit object ids.
//
// The hot-path replacement for std::unordered_map<ObjectId, V> in the
// policy indexes: linear probing over one contiguous slot array (no
// per-node allocation, no bucket pointer chase, no prime modulo), keys
// scrambled with an invertible xor-multiply-xor mix so dense/strided id
// spaces still spread uniformly. A lookup is one multiply plus a short
// probe through adjacent cache lines.
//
// Deletion uses tombstones; an insert reuses the first tombstone on its
// probe path, so steady-state churn (erase victim + insert newcomer, the
// cache eviction pattern) recycles slots instead of growing the table.
// The table rehashes when full + tombstone slots exceed ~70% of capacity:
// in place (shedding the tombstone debt) while live entries fit in 5/9 of
// capacity, doubling only beyond that. Reserve(n) sizes for <= 50% live
// load, so a reserved table never grows — churn is absorbed by in-place
// rehashes whose cost amortizes to O(1) per erase against the >= 14% of
// capacity reclaimed each time.

#ifndef QDLP_SRC_UTIL_FLAT_MAP_H_
#define QDLP_SRC_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/prefetch.h"

namespace qdlp {

// Invertible xor-multiply-xor scramble (degski64). One multiply — cheaper
// than the SplitMix64 finalizer, and ample mixing for id-shaped keys.
inline uint64_t FlatMapHash(uint64_t x) {
  x ^= x >> 32;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 32;
  return x;
}

template <typename Value>
class FlatMap {
 public:
  using Key = uint64_t;

  FlatMap() { Rehash(kMinCapacity); }

  // Pre-sizes the table so `n` live entries sit at <= 50% load: they fit
  // without rehashing, and under erase/insert churn every cleanup rehash
  // stays in place (see MaybeGrow), so the table never outgrows this.
  void Reserve(size_t n) {
    size_t capacity = kMinCapacity;
    while (capacity < 2 * n) {
      capacity *= 2;
    }
    if (capacity > slots_.size()) {
      Rehash(capacity);
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Bytes per table slot, for sizing a table to a byte budget upfront
  // (a table Reserve(n)'d for n entries holds pow2(2n) slots; see also
  // MemoryBytes() below). Used by SpillableDenseIdMapper to pick its
  // epoch-table capacity from a byte budget.
  static constexpr size_t SlotBytes() { return sizeof(Slot); }

  bool Contains(Key key) const { return FindSlot(key) != kNotFound; }

  // Pointer to the mapped value, or nullptr. Invalidated by any mutation.
  Value* Find(Key key) {
    const size_t slot = FindSlot(key);
    return slot == kNotFound ? nullptr : &slots_[slot].value;
  }
  const Value* Find(Key key) const {
    const size_t slot = FindSlot(key);
    return slot == kNotFound ? nullptr : &slots_[slot].value;
  }

  // Find-or-insert in one probe: returns the mapped value (default
  // constructed when absent) and whether it was inserted. The pointer stays
  // valid across Erase of other keys (full slots never move) but not across
  // inserts, which may rehash.
  std::pair<Value*, bool> Emplace(Key key) {
    MaybeGrow();
    const size_t mask = slots_.size() - 1;
    size_t index = FlatMapHash(key) & mask;
    size_t first_tombstone = kNotFound;
    while (true) {
      Slot& slot = slots_[index];
      if (slot.state == kFull && slot.key == key) {
        return {&slot.value, false};
      }
      if (slot.state == kEmpty) {
        size_t target = index;
        if (first_tombstone != kNotFound) {
          target = first_tombstone;
          --tombstones_;
        } else {
          ++used_;
        }
        Slot& dest = slots_[target];
        dest.key = key;
        dest.value = Value{};
        dest.state = kFull;
        ++size_;
        return {&dest.value, true};
      }
      if (slot.state == kTombstone && first_tombstone == kNotFound) {
        first_tombstone = index;
      }
      index = (index + 1) & mask;
    }
  }

  // Inserts default-constructed value if absent; returns the mapped value.
  Value& operator[](Key key) { return *Emplace(key).first; }

  // Pulls the probe-start slot of `key` toward the cache ahead of its
  // lookup. Only the first slot of the probe chain is prefetched: at the
  // load factors this table runs at (<= 70%), most probes terminate within
  // the first one or two adjacent slots, which share or neighbor that line.
  void Prefetch(Key key) const {
    PrefetchForRead(&slots_[FlatMapHash(key) & (slots_.size() - 1)]);
  }

  // Batched lookup: out[i] = Find(keys[i]) for i in [0, n), probing with a
  // software-prefetch pipeline so independent lookups overlap their memory
  // latency instead of serializing on it. Pointers obey the same
  // invalidation rule as Find (any mutation invalidates).
  void FindMany(const Key* keys, size_t n, Value** out) {
    for (size_t i = 0; i < n; ++i) {
      if (i + kBatchPrefetchDepth < n) {
        Prefetch(keys[i + kBatchPrefetchDepth]);
      }
      out[i] = Find(keys[i]);
    }
  }

  // Returns true if the key was present and has been removed; `erased`,
  // when given, receives the value it mapped to.
  bool Erase(Key key, Value* erased = nullptr) {
    const size_t slot = FindSlot(key);
    if (slot == kNotFound) {
      return false;
    }
    if (erased != nullptr) {
      *erased = std::move(slots_[slot].value);
    }
    slots_[slot].state = kTombstone;
    slots_[slot].value = Value{};
    --size_;
    ++tombstones_;
    // Prune: a tombstone directly before an empty slot terminates no probe
    // chain, so the whole tombstone run ending here can revert to empty.
    // This keeps steady-state churn (erase + insert per eviction) from
    // accreting tombstones until a cleanup rehash.
    const size_t mask = slots_.size() - 1;
    if (slots_[(slot + 1) & mask].state == kEmpty) {
      size_t index = slot;
      while (slots_[index].state == kTombstone) {
        slots_[index].state = kEmpty;
        --used_;
        --tombstones_;
        index = (index - 1) & mask;
      }
    }
    return true;
  }

  void Clear() {
    size_ = 0;
    used_ = 0;
    tombstones_ = 0;
    for (Slot& slot : slots_) {
      slot.state = kEmpty;
      slot.value = Value{};
    }
  }

  // Visits entries in table order as fn(Key, const Value&).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.state == kFull) {
        fn(slot.key, slot.value);
      }
    }
  }

  // Structural self-check: slot-state accounting matches the counters and
  // every key is reachable from its home slot. O(table size).
  void CheckInvariants() const {
    QDLP_CHECK(!slots_.empty());
    QDLP_CHECK((slots_.size() & (slots_.size() - 1)) == 0);
    size_t full = 0;
    size_t tombstones = 0;
    for (const Slot& slot : slots_) {
      if (slot.state == kFull) {
        ++full;
      } else if (slot.state == kTombstone) {
        ++tombstones;
      }
    }
    QDLP_CHECK(full == size_);
    QDLP_CHECK(tombstones == tombstones_);
    QDLP_CHECK(full + tombstones == used_);
    QDLP_CHECK(used_ * kMaxLoadDen <= slots_.size() * kMaxLoadNum);
    for (const Slot& slot : slots_) {
      if (slot.state == kFull) {
        QDLP_CHECK(FindSlot(slot.key) != kNotFound);
      }
    }
  }

  // Bytes held by the slot array — used for the bytes/object accounting in
  // bench JSON output and docs/PERFORMANCE.md.
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  enum State : uint8_t { kEmpty = 0, kTombstone = 1, kFull = 2 };

  struct Slot {
    Key key;
    Value value;
    State state;
  };

  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kNotFound = ~size_t{0};
  // Max (full + tombstone) fraction before rehash: 7/10.
  static constexpr size_t kMaxLoadNum = 7;
  static constexpr size_t kMaxLoadDen = 10;
  // Max live fraction for an in-place (same capacity) rehash: 5/9. Above
  // it the table doubles; below it a cleanup reclaims at least
  // 7/10 - 5/9 ~ 14% of capacity, bounding rehashes per erase.
  static constexpr size_t kSameSizeNum = 5;
  static constexpr size_t kSameSizeDen = 9;

  size_t FindSlot(Key key) const {
    const size_t mask = slots_.size() - 1;
    size_t index = FlatMapHash(key) & mask;
    while (true) {
      const Slot& slot = slots_[index];
      if (slot.state == kFull && slot.key == key) {
        return index;
      }
      if (slot.state == kEmpty) {
        return kNotFound;
      }
      index = (index + 1) & mask;
    }
  }

  void MaybeGrow() {
    if ((used_ + 1) * kMaxLoadDen <= slots_.size() * kMaxLoadNum) {
      return;
    }
    // Doubling only when live entries need it; a table dominated by
    // tombstones is rebuilt at the same capacity to shed them.
    size_t capacity = slots_.size();
    if ((size_ + 1) * kSameSizeDen > capacity * kSameSizeNum) {
      capacity *= 2;
    }
    Rehash(capacity);
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{0, Value{}, kEmpty});
    used_ = size_;
    tombstones_ = 0;
    const size_t mask = capacity - 1;
    for (Slot& slot : old) {
      if (slot.state != kFull) {
        continue;
      }
      size_t index = FlatMapHash(slot.key) & mask;
      while (slots_[index].state == kFull) {
        index = (index + 1) & mask;
      }
      slots_[index].key = slot.key;
      slots_[index].value = std::move(slot.value);
      slots_[index].state = kFull;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;        // kFull slots
  size_t used_ = 0;        // kFull + kTombstone slots
  size_t tombstones_ = 0;  // kTombstone slots
};

}  // namespace qdlp

#endif  // QDLP_SRC_UTIL_FLAT_MAP_H_
