// Direct-indexed policy index over a dense id universe.
//
// When a trace has been remapped to dense u32 ids (src/trace/dense_trace),
// the id space is exactly [0, num_objects), so the open-addressing probe of
// FlatMap collapses to one array access: slot = slots_[id]. No hashing, no
// probe chain, no tombstones — the whole index is a flat slot array of the
// universe size, and membership is a presence flag in the slot itself (one
// cache line touched per lookup, same as FlatMap's best case and strictly
// better than its miss case).
//
// DenseIndex implements the subset of the FlatMap API the policies use
// (Find/Emplace/Erase/Contains/Reserve/CheckInvariants/MemoryBytes/
// Prefetch), so the core policies can be instantiated against either
// backing through an index factory (below). Memory is O(universe) per
// instance rather than O(capacity): the batched sweep engine only selects
// this backing when the universe is small enough for that to be a win
// (BatchReplayOptions::max_dense_universe). A uint32_t index, the policies'
// id -> slot table, marks absence with the reserved value ~0u instead of a
// flag, halving its slots to 4 bytes; no policy stores ~0u (list slots stay
// below IntrusiveList::kNullSlot, tagged locations below
// StripedAtomicIndex::kNoEntry).

#ifndef QDLP_SRC_UTIL_DENSE_INDEX_H_
#define QDLP_SRC_UTIL_DENSE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/flat_map.h"
#include "src/util/prefetch.h"

namespace qdlp {

// A DenseIndex slot: a value plus a presence flag.
template <typename Value>
struct DenseSlot {
  Value value{};
  bool is_present = false;
  bool present() const { return is_present; }
  void Fill() {
    value = Value{};
    is_present = true;
  }
  void Clear() {
    value = Value{};
    is_present = false;
  }
};

// A uint32_t slot: the reserved value ~0u marks absence.
template <>
struct DenseSlot<uint32_t> {
  static constexpr uint32_t kAbsent = ~uint32_t{0};
  uint32_t value = kAbsent;
  bool present() const { return value != kAbsent; }
  void Fill() { value = 0; }
  void Clear() { value = kAbsent; }
};

template <typename Value>
class DenseIndex {
 public:
  using Key = uint64_t;

  // Keys must lie in [0, universe). A universe of 0 is a valid degenerate
  // index that holds nothing (every Find misses, Emplace is illegal).
  explicit DenseIndex(uint64_t universe)
      : slots_(universe), universe_(universe) {}

  // FlatMap-compatibility no-op: the slot array is always universe-sized.
  void Reserve(size_t n) { (void)n; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Contains(Key key) const {
    return key < universe_ && slots_[key].present();
  }

  // Pointer to the mapped value, or nullptr. Unlike FlatMap, pointers stay
  // valid across inserts (the slot array never reallocates).
  Value* Find(Key key) {
    QDLP_DCHECK(key < slots_.size());
    Slot& slot = slots_[key];
    return slot.present() ? &slot.value : nullptr;
  }
  const Value* Find(Key key) const {
    QDLP_DCHECK(key < slots_.size());
    const Slot& slot = slots_[key];
    return slot.present() ? &slot.value : nullptr;
  }

  // Find-or-insert: returns the mapped value (default constructed when
  // absent) and whether it was inserted.
  std::pair<Value*, bool> Emplace(Key key) {
    QDLP_DCHECK(key < slots_.size());
    Slot& slot = slots_[key];
    if (slot.present()) {
      return {&slot.value, false};
    }
    slot.Fill();
    ++size_;
    return {&slot.value, true};
  }

  Value& operator[](Key key) { return *Emplace(key).first; }

  // As FlatMap::Erase: `erased`, when given, receives the removed value.
  bool Erase(Key key, Value* erased = nullptr) {
    QDLP_DCHECK(key < slots_.size());
    Slot& slot = slots_[key];
    if (!slot.present()) {
      return false;
    }
    if (erased != nullptr) {
      *erased = std::move(slot.value);
    }
    slot.Clear();
    --size_;
    return true;
  }

  void Clear() {
    size_ = 0;
    for (Slot& slot : slots_) {
      slot.Clear();
    }
  }

  // Visits entries as fn(Key, const Value&), in id order. O(universe).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t key = 0; key < slots_.size(); ++key) {
      if (slots_[key].present()) {
        fn(static_cast<Key>(key), slots_[key].value);
      }
    }
  }

  // Pulls the slot of `key` toward the cache ahead of its lookup; the
  // batched replay pipeline issues this kBatchPrefetchDepth requests early.
  void Prefetch(Key key) const {
    if (key < slots_.size()) {
      PrefetchForRead(&slots_[key]);
    }
  }

  // Present-flag accounting matches the size counter. O(universe).
  void CheckInvariants() const {
    size_t present = 0;
    for (const Slot& slot : slots_) {
      if (slot.present()) {
        ++present;
      }
    }
    QDLP_CHECK(present == size_);
  }

  // Bytes held by the slot array (bench bytes/object accounting). This is
  // universe-proportional — the price of probe-free lookups.
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  using Slot = DenseSlot<Value>;

  std::vector<Slot> slots_;
  // slots_.size(), kept apart: bounding Contains() by it spares gcc's
  // -Warray-bounds a path it cannot rule out through the vector's size.
  uint64_t universe_;
  size_t size_ = 0;
};

// Index factories: the core policies are templates over one of these, so a
// single policy implementation serves both the general-purpose flat-map
// backing (arbitrary u64 ids) and the dense fast path (remapped traces).
// A factory builds every index a policy needs (value types differ between
// e.g. the FIFO slot index and the S3-FIFO entry index) from one shared
// configuration.

struct FlatIndexFactory {
  template <typename Value>
  using Index = FlatMap<Value>;

  template <typename Value>
  FlatMap<Value> Make() const {
    return FlatMap<Value>();
  }
};

struct DenseIndexFactory {
  // All ids fed to the policy must lie in [0, universe).
  uint64_t universe = 0;

  template <typename Value>
  using Index = DenseIndex<Value>;

  template <typename Value>
  DenseIndex<Value> Make() const {
    return DenseIndex<Value>(universe);
  }
};

}  // namespace qdlp

#endif  // QDLP_SRC_UTIL_DENSE_INDEX_H_
