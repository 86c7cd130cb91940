// Lock-free striped open-addressing index: ObjectId -> 32-bit value.
//
// This is the concurrent counterpart of util/flat_map.h and the heart of
// the Lazy Promotion hit path (§3): a lookup is one hash, a short linear
// probe over atomic key slots, and two loads of a stripe version word — no
// mutex, no reader registration, no retries in steady state. The caches
// built on it (concurrent CLOCK / S3-FIFO / QD-LP-FIFO) therefore serve a
// hit with a single relaxed atomic RMW on the object's frequency bits and
// nothing else, which is the property that lets FIFO designs scale where
// LRU's lock-and-splice hit path cannot.
//
// Concurrency contract:
//  * Readers (Find) are wait-free in the common case and never block.
//  * Mutations (Insert/Update/Erase) must be serialized by the caller
//    PER STRIPE. A stripe's writer bookkeeping (size/used/tombstones and
//    the rebuild machinery) is plain data guarded by whatever lock the
//    caller wraps around that stripe's mutations. Two valid shapes exist
//    in the caches:
//      - one global eviction mutex (exactly one writer at a time), or
//      - sharded eviction domains (eviction_domains.h): shard s serializes
//        mutations for the disjoint stripe set {t : t & (S-1) == s}, so
//        concurrent writers under different shard mutexes never touch the
//        same stripe. Both selections mask the same (FlatMapHash >> 32)
//        bits, which is what makes the ownership exact. The only cross-
//        stripe writer state is the global size_, which is atomic.
//    Either way there is one writer per stripe, which is what makes the
//    slot protocol simple enough to be obviously right:
//      - Insert writes the value first, then publishes the key with a
//        release store; a reader that observes the key (acquire) therefore
//        observes a valid value.
//      - Erase overwrites the key with the tombstone sentinel; a reader
//        that raced and already matched the key linearizes before the
//        erase.
//  * Stripe rebuilds (tombstone cleanup / growth) swap in a fresh slot
//    array under a seqlock: readers validate the stripe version around the
//    probe and retry on change. Old slot arrays are retired, not freed —
//    a stale reader probes stale-but-valid memory and then notices the
//    version bump (no use-after-free, no hazard pointers, no epochs).
//    Retired arrays of the current size are recycled into later rebuilds
//    (reset + refilled inside the odd-version window), so steady-state
//    churn ping-pongs between two arrays per stripe instead of retiring
//    one per rebuild; only outgrown sizes stay resident until destruction.
//
// Keys are ObjectIds; the two top values (~0 and ~0-1) are reserved as
// empty/tombstone sentinels. The read-side entry points (Find/Contains/
// Erase/Update) treat a reserved key as simply absent — a sentinel probe
// must never match a physical empty/tombstone slot, which would hand back
// a garbage location and corrupt the caller's bookkeeping. Insert hard-
// checks instead: admitting a reserved key is a caller bug (the server
// rejects such keys at the wire, protocol.h).
//
// Striping bounds probe runs, keeps rebuilds O(stripe) instead of
// O(table), and gives each stripe's mutable header its own cache line so
// readers of different stripes never false-share.

#ifndef QDLP_SRC_CONCURRENT_STRIPED_INDEX_H_
#define QDLP_SRC_CONCURRENT_STRIPED_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/flat_map.h"

namespace qdlp {

class StripedAtomicIndex {
 public:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  static constexpr uint64_t kTombstoneKey = ~uint64_t{0} - 1;

  // `max_entries` sizes each stripe so the whole table holds that many live
  // entries at <= 50% load under a perfectly uniform hash; stripes still
  // grow individually if the hash is unkind. `num_stripes` is rounded up to
  // a power of two.
  explicit StripedAtomicIndex(size_t max_entries, size_t num_stripes = 8) {
    size_t stripes = 1;
    while (stripes < num_stripes && stripes < 256) {
      stripes *= 2;
    }
    stripe_mask_ = stripes - 1;
    const size_t per_stripe = (max_entries + stripes - 1) / stripes;
    size_t slots = kMinStripeSlots;
    while (slots < 2 * per_stripe) {
      slots *= 2;
    }
    stripes_ = std::vector<Stripe>(stripes);
    for (Stripe& stripe : stripes_) {
      stripe.InstallFresh(slots);
    }
  }

  // Lock-free. Returns true and stores the mapped value on success.
  // Reserved (sentinel) keys are never present.
  bool Find(ObjectId key, uint32_t* value) const {
    if (key >= kTombstoneKey) {
      return false;  // would match an empty/tombstone slot, not an entry
    }
    const uint64_t hash = FlatMapHash(key);
    const Stripe& stripe = stripes_[(hash >> 32) & stripe_mask_];
    while (true) {
      const uint64_t v1 = stripe.version.load(std::memory_order_acquire);
      // Mask before slots: a rebuild publishes its array before its mask and
      // never shrinks a stripe, so an array loaded after a mask holds at
      // least mask + 1 slots. The other order can pair an old array with a
      // grown mask and read past its end before the version check rejects
      // the probe.
      const uint64_t mask = stripe.mask.load(std::memory_order_acquire);
      const Slot* slots = stripe.slots.load(std::memory_order_acquire);
      size_t index = hash & mask;
      bool found = false;
      uint32_t found_value = 0;
      while (true) {
        const uint64_t slot_key =
            slots[index].key.load(std::memory_order_acquire);
        if (slot_key == key) {
          // Acquire on the value so the key re-check below cannot hoist
          // above it; the re-check closes the slot-reuse window (erase of
          // this key + insert of another key into the same slot between
          // our two loads would otherwise pair our key with its value).
          found_value = slots[index].value.load(std::memory_order_acquire);
          found =
              slots[index].key.load(std::memory_order_relaxed) == slot_key;
          if (found) {
            break;
          }
          continue;  // slot churned under us; re-probe from this slot
        }
        if (slot_key == kEmptyKey) {
          break;
        }
        index = (index + 1) & mask;
      }
      // Seqlock validation: an odd version means a rebuild is in flight; a
      // changed version means the probe may have straddled one (and, since
      // retired arrays are recycled into later rebuilds, may have read a
      // slab mid-rewrite). The fence orders every probe load before the
      // re-read, Boehm-style. Either way the probe re-runs against the
      // (new) current array. Rebuilds are rare — steady state pays only
      // these two version loads.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (v1 == stripe.version.load(std::memory_order_acquire) &&
          (v1 & 1) == 0) {
        if (found) {
          *value = found_value;
        }
        return found;
      }
    }
  }

  bool Contains(ObjectId key) const {
    uint32_t value;
    return Find(key, &value);
  }

  // Writer-side (externally serialized). Key must be absent and must not
  // be a reserved sentinel (hard check: a sentinel insert would alias an
  // empty/tombstone slot and corrupt the table).
  void Insert(ObjectId key, uint32_t value) {
    QDLP_CHECK(key < kTombstoneKey);
    const uint64_t hash = FlatMapHash(key);
    Stripe& stripe = stripes_[(hash >> 32) & stripe_mask_];
    MaybeRebuild(stripe);
    Slot* slots = stripe.slots.load(std::memory_order_relaxed);
    const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
    size_t index = hash & mask;
    size_t first_tombstone = kNpos;
    while (true) {
      const uint64_t slot_key =
          slots[index].key.load(std::memory_order_relaxed);
      QDLP_DCHECK(slot_key != key);
      if (slot_key == kEmptyKey) {
        size_t target = index;
        if (first_tombstone != kNpos) {
          target = first_tombstone;
          --stripe.tombstones;
        } else {
          ++stripe.used;
        }
        // Publish order: value first, key last with release, so a reader
        // that acquires the key sees the value.
        slots[target].value.store(value, std::memory_order_relaxed);
        slots[target].key.store(key, std::memory_order_release);
        ++stripe.size;
        size_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (slot_key == kTombstoneKey && first_tombstone == kNpos) {
        first_tombstone = index;
      }
      index = (index + 1) & mask;
    }
  }

  // Writer-side. Returns false if the key is absent.
  bool Update(ObjectId key, uint32_t value) {
    Slot* slot = FindSlotMutable(key);
    if (slot == nullptr) {
      return false;
    }
    slot->value.store(value, std::memory_order_release);
    return true;
  }

  // Writer-side. Returns true if the key was present and is now removed.
  // Reserved keys are never present: erasing one is a no-op, not a
  // tombstoning of whatever empty slot the probe happens to hit first.
  bool Erase(ObjectId key) {
    if (key >= kTombstoneKey) {
      return false;
    }
    const uint64_t hash = FlatMapHash(key);
    Stripe& stripe = stripes_[(hash >> 32) & stripe_mask_];
    Slot* slots = stripe.slots.load(std::memory_order_relaxed);
    const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
    size_t index = hash & mask;
    while (true) {
      const uint64_t slot_key =
          slots[index].key.load(std::memory_order_relaxed);
      if (slot_key == key) {
        break;
      }
      if (slot_key == kEmptyKey) {
        return false;
      }
      index = (index + 1) & mask;
    }
    slots[index].key.store(kTombstoneKey, std::memory_order_release);
    --stripe.size;
    size_.fetch_sub(1, std::memory_order_relaxed);
    ++stripe.tombstones;
    // Prune: a tombstone run that borders an empty slot terminates no live
    // key's probe path (any such path would cross the empty slot too), so
    // the run can revert to empty — safe against concurrent readers, who
    // at worst stop one slot earlier with the same not-found answer.
    if (slots[(index + 1) & mask].key.load(std::memory_order_relaxed) ==
        kEmptyKey) {
      size_t runner = index;
      while (slots[runner].key.load(std::memory_order_relaxed) ==
             kTombstoneKey) {
        slots[runner].key.store(kEmptyKey, std::memory_order_release);
        --stripe.used;
        --stripe.tombstones;
        runner = (runner - 1) & mask;
      }
    }
    return true;
  }

  // Live-entry count. Relaxed: exact once the writers are quiescent, a
  // point-in-time approximation while sharded writers are mutating.
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  // Writer-quiescent iteration (used by invariant checks under the caches'
  // eviction lock): fn(ObjectId, uint32_t).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Stripe& stripe : stripes_) {
      const Slot* slots = stripe.slots.load(std::memory_order_acquire);
      const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
      for (size_t i = 0; i <= mask; ++i) {
        const uint64_t key = slots[i].key.load(std::memory_order_acquire);
        if (key < kTombstoneKey) {
          fn(key, slots[i].value.load(std::memory_order_relaxed));
        }
      }
    }
  }

  // Writer-quiescent structural self-check.
  void CheckInvariants() const {
    size_t total = 0;
    for (const Stripe& stripe : stripes_) {
      QDLP_CHECK((stripe.version.load(std::memory_order_acquire) & 1) == 0);
      const Slot* slots = stripe.slots.load(std::memory_order_acquire);
      const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
      QDLP_CHECK(((mask + 1) & mask) == 0);
      size_t live = 0;
      size_t tombstones = 0;
      for (size_t i = 0; i <= mask; ++i) {
        const uint64_t key = slots[i].key.load(std::memory_order_acquire);
        if (key == kTombstoneKey) {
          ++tombstones;
        } else if (key != kEmptyKey) {
          ++live;
          // Reachability: the probe path from the key's home slot to its
          // position crosses no empty slot.
          uint32_t value;
          QDLP_CHECK(Find(key, &value));
        }
      }
      QDLP_CHECK(live == stripe.size);
      QDLP_CHECK(tombstones == stripe.tombstones);
      QDLP_CHECK(live + tombstones == stripe.used);
      QDLP_CHECK(stripe.used * kMaxLoadDen <= (mask + 1) * kMaxLoadNum);
      total += live;
    }
    QDLP_CHECK(total == size_.load(std::memory_order_relaxed));
  }

  // Bytes held by the live slot arrays plus retired ones (resident until
  // recycled by a same-size rebuild or destruction), for bytes/object
  // accounting.
  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const Stripe& stripe : stripes_) {
      bytes += (stripe.mask.load(std::memory_order_relaxed) + 1) *
               sizeof(Slot);
      for (const auto& retired : stripe.retired) {
        bytes += retired.slot_count * sizeof(Slot);
      }
    }
    return bytes;
  }

  size_t num_stripes() const { return stripes_.size(); }

 private:
  struct Slot {
    std::atomic<uint64_t> key{kEmptyKey};
    std::atomic<uint32_t> value{0};
  };

  struct RetiredSlab {
    std::unique_ptr<Slot[]> slots;
    size_t slot_count = 0;
  };

  // Mutable per-stripe header on its own cache line: readers of one stripe
  // never invalidate another stripe's header line.
  struct alignas(64) Stripe {
    std::atomic<uint64_t> version{0};
    std::atomic<Slot*> slots{nullptr};
    std::atomic<uint64_t> mask{0};
    // Writer-only bookkeeping (guarded by the external writer lock).
    size_t size = 0;
    size_t used = 0;  // live + tombstones
    size_t tombstones = 0;
    std::unique_ptr<Slot[]> current;
    std::vector<RetiredSlab> retired;

    void InstallFresh(size_t slot_count) {
      current = std::make_unique<Slot[]>(slot_count);
      slots.store(current.get(), std::memory_order_release);
      mask.store(slot_count - 1, std::memory_order_release);
    }
  };

  static constexpr size_t kMinStripeSlots = 16;
  static constexpr size_t kNpos = ~size_t{0};
  // Rebuild when used (live + tombstone) exceeds 7/10 of the stripe;
  // doubling only when live entries alone exceed 5/9 (flat_map's scheme).
  static constexpr size_t kMaxLoadNum = 7;
  static constexpr size_t kMaxLoadDen = 10;
  static constexpr size_t kSameSizeNum = 5;
  static constexpr size_t kSameSizeDen = 9;

  Slot* FindSlotMutable(ObjectId key) {
    if (key >= kTombstoneKey) {
      return nullptr;  // reserved keys are never present
    }
    const uint64_t hash = FlatMapHash(key);
    Stripe& stripe = stripes_[(hash >> 32) & stripe_mask_];
    Slot* slots = stripe.slots.load(std::memory_order_relaxed);
    const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
    size_t index = hash & mask;
    while (true) {
      const uint64_t slot_key =
          slots[index].key.load(std::memory_order_relaxed);
      if (slot_key == key) {
        return &slots[index];
      }
      if (slot_key == kEmptyKey) {
        return nullptr;
      }
      index = (index + 1) & mask;
    }
  }

  void MaybeRebuild(Stripe& stripe) {
    const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
    const size_t capacity = mask + 1;
    if ((stripe.used + 1) * kMaxLoadDen <= capacity * kMaxLoadNum) {
      return;
    }
    size_t new_capacity = capacity;
    if ((stripe.size + 1) * kSameSizeDen > capacity * kSameSizeNum) {
      new_capacity *= 2;
    }
    // Seqlock write section: readers retry probes that overlap this.
    stripe.version.fetch_add(1, std::memory_order_acq_rel);  // -> odd
    // Recycle a retired slab of the right size if one exists (same-size
    // tombstone-cleanup rebuilds dominate, so steady-state churn ping-pongs
    // between two arrays instead of leaking one per rebuild). Mutating a
    // recycled slab while a stale reader probes it is safe: every probe
    // access is atomic and the reader's version re-check rejects the probe.
    // Clearing must happen inside the odd-version window for that reason.
    std::unique_ptr<Slot[]> fresh;
    for (auto it = stripe.retired.begin(); it != stripe.retired.end(); ++it) {
      if (it->slot_count == new_capacity) {
        fresh = std::move(it->slots);
        stripe.retired.erase(it);
        break;
      }
    }
    if (fresh != nullptr) {
      for (size_t i = 0; i < new_capacity; ++i) {
        fresh[i].key.store(kEmptyKey, std::memory_order_relaxed);
      }
    } else {
      fresh = std::make_unique<Slot[]>(new_capacity);
    }
    const uint64_t new_mask = new_capacity - 1;
    Slot* old = stripe.slots.load(std::memory_order_relaxed);
    for (size_t i = 0; i < capacity; ++i) {
      const uint64_t key = old[i].key.load(std::memory_order_relaxed);
      if (key >= kTombstoneKey) {
        continue;
      }
      size_t index = FlatMapHash(key) & new_mask;
      while (fresh[index].key.load(std::memory_order_relaxed) != kEmptyKey) {
        index = (index + 1) & new_mask;
      }
      fresh[index].value.store(
          old[i].value.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      fresh[index].key.store(key, std::memory_order_relaxed);
    }
    // Retire the old array (kept alive for stale readers), publish the new
    // one, close the seqlock.
    stripe.retired.push_back(RetiredSlab{std::move(stripe.current), capacity});
    stripe.current = std::move(fresh);
    stripe.slots.store(stripe.current.get(), std::memory_order_release);
    stripe.mask.store(new_mask, std::memory_order_release);
    stripe.used = stripe.size;
    stripe.tombstones = 0;
    stripe.version.fetch_add(1, std::memory_order_release);  // -> even
  }

  std::vector<Stripe> stripes_;
  uint64_t stripe_mask_ = 0;
  // Updated by whichever stripe-writer mutates; the one piece of writer
  // state shared across stripes, hence atomic (relaxed suffices: it is a
  // statistic, not a synchronization edge).
  std::atomic<size_t> size_{0};
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_STRIPED_INDEX_H_
