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
// Ghost entries: value bit 30 (kGhostTag) marks an entry as a ghost record,
// the index-resident memory of an id its cache quick-demoted (§4). The
// lock-free read side (Find/Contains/ForEach) treats a tagged entry as
// absent, which costs a lookup one branch on the value it already loads;
// the writer-side Entry() returns the raw value, so one probe under the
// writer's lock tells a resident, a ghost and an unindexed id apart.
// Callers therefore keep their own locations below bit 30 (the caches cap
// capacity below 2^30, eviction_domains.h). Two counts per stripe:
//  * `live` counts residents only, so size() is the resident count;
//  * `entries` counts every entry, ghosts included; it alone drives
//    growth, since a ghost fills a slot like any other entry.
//
// Concurrency contract:
//  * Readers (Find) are wait-free in the common case and never block.
//  * Mutations (Insert/Update/Erase) must be serialized by the caller
//    PER STRIPE. A stripe's writer bookkeeping (its counts and the
//    growth machinery) is guarded by whatever lock the caller wraps around
//    that stripe's mutations. Two valid shapes exist in the caches:
//      - one global eviction mutex (exactly one writer at a time), or
//      - sharded eviction domains (eviction_domains.h): shard s serializes
//        mutations for the disjoint stripe set {t : t & (S-1) == s}, so
//        concurrent writers under different shard mutexes never touch the
//        same stripe. Both selections mask the same (FlatMapHash >> 32)
//        bits, which is what makes the ownership exact.
//    No writer state is shared across stripes: each stripe keeps its own
//    counts on a cache line of its own, and size() sums them. So no
//    insert or erase writes a process-global line, and none writes the
//    line that every Find of its stripe reads.
//    Either way there is one writer per stripe, which is what makes the
//    slot protocol simple enough to be obviously right:
//      - A slot's key goes from empty to a key, from a key to the reserved
//        tombstone key ~0-1, and from the tombstone to a key or back to
//        empty; never from one key straight to another. Every value store
//        is a release store, and an entry's value is stored before its key
//        is published in a slot.
//      - Insert writes the value first, then publishes the key; a reader
//        that observes the key (acquire) therefore observes a valid value.
//      - Update release-stores a new value into the key's slot and leaves
//        the key alone, so a reader pairs the key with its old value or its
//        new one, never with another key's. This is how an entry moves
//        between locations, and between resident and ghost, in place.
//      - Erase tombstones the key's slot, then pulls the later entries of
//        the probe run back into the hole (backward-shift deletion): each
//        move publishes the entry into the hole like an Insert, then
//        tombstones its old slot, which becomes the next hole. The last
//        hole lies on no remaining entry's probe path and is emptied before
//        Erase returns, so no tombstone outlives the call and a stripe
//        never needs a rebuild to clean them out.
//    A reader that matched key K re-checks the key after loading the
//    value. If the value it loaded was written by a later shift, the slot
//    was tombstoned before that release store, so the re-check sees a
//    changed key and the reader probes again from K's home. (Only K's
//    erase and re-insert into the same slot between the reader's two key
//    loads defeats the re-check, a window tombstone reuse had as well.)
//    Readers probe past tombstones, so at every instant each live key is
//    reachable from its home, even while a writer is preempted mid-shift.
//    A reader whose probe has already passed the hole when an entry moves
//    back into it can still miss that entry: a false miss, never a wrong
//    value. Callers tolerate false misses: the caches' miss path re-probes
//    under the home-domain lock, and no shift of that stripe can run while
//    it is held (eviction_domains.h).
//  * Stripe growth swaps in a doubled slot array under a seqlock: readers
//    validate the stripe version around the probe and retry on change.
//    Every probe load (mask, array, keys, value and the key re-check) is an
//    acquire load, and each is sequenced before the version re-read, so
//    the re-read sees any growth a probe load observed. That takes no
//    standalone fence, which ThreadSanitizer does not model; on x86 an
//    acquire load is a plain load. Old slot arrays are retired, not freed
//    — a stale reader probes stale-but-valid memory and then notices the
//    version bump (no use-after-free, no hazard pointers, no epochs). A
//    stripe only grows, so its retired arrays together hold fewer slots
//    than its current one.
//
// Keys are ObjectIds; the two top values (~0 and ~0-1) are reserved as
// empty/tombstone sentinels. The read-side entry points (Find/Contains/
// Entry/Erase) treat a reserved key as simply absent — a sentinel probe
// must never match a physical empty/tombstone slot, which would hand back
// a garbage location and corrupt the caller's bookkeeping. Insert and
// Update hard-check instead: admitting a reserved key, or moving an entry
// that does not exist, is a caller bug (the server rejects reserved keys
// at the wire, protocol.h).
//
// Striping bounds probe runs, keeps growth O(stripe) instead of O(table),
// and gives each stripe's header its own cache lines so readers of
// different stripes never false-share.

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
  // Only ever stored inside Erase (see the header comment).
  static constexpr uint64_t kTombstoneKey = ~uint64_t{0} - 1;
  // Value bit that marks a ghost record (see the header comment).
  static constexpr uint32_t kGhostTag = uint32_t{1} << 30;
  // Entry()'s answer for an unindexed key. It carries the ghost tag too, so
  // "not resident" is one bit test on whatever Entry() returned.
  static constexpr uint32_t kNoEntry = ~uint32_t{0};

  static constexpr bool IsGhost(uint32_t value) {
    return (value & kGhostTag) != 0;
  }

  // `max_entries` sizes each stripe so the whole table holds that many
  // entries, ghosts included, at <= 50% load under a perfectly uniform hash; stripes still
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
      stripe.current = std::make_unique<Slot[]>(slots);
      stripe.slots.store(stripe.current.get(), std::memory_order_release);
      stripe.mask.store(slots - 1, std::memory_order_release);
    }
  }

  // Lock-free. Returns true and stores the mapped value if `key` is
  // resident; a ghost record reads as absent. Reserved (sentinel) keys are
  // never present. May miss a key that a concurrent Erase shifts backward
  // past this probe (a false miss).
  bool Find(ObjectId key, uint32_t* value) const {
    if (key >= kTombstoneKey) {
      return false;  // would match an empty/tombstone slot, not an entry
    }
    const uint64_t hash = FlatMapHash(key);
    const Stripe& stripe = stripes_[(hash >> 32) & stripe_mask_];
    while (true) {
      const uint64_t v1 = stripe.version.load(std::memory_order_acquire);
      // Mask before slots: growth publishes its array before its mask and
      // never shrinks a stripe, so an array loaded after a mask holds at
      // least mask + 1 slots. The other order can pair an old array with a
      // grown mask and read past its end before the version check rejects
      // the probe.
      const uint64_t mask = stripe.mask.load(std::memory_order_acquire);
      const Slot* slots = stripe.slots.load(std::memory_order_acquire);
      size_t index = hash & mask;
      uint64_t slot_key;
      while ((slot_key = slots[index].key.load(std::memory_order_acquire)) !=
                 key &&
             slot_key != kEmptyKey) {
        index = (index + 1) & mask;
      }
      uint32_t found_value = 0;
      if (slot_key == key) {
        // Acquire on the value so the key re-check below cannot hoist
        // above it; the re-check closes the slot-reuse window (erase or
        // shift of this key + a shift or insert of another key into the
        // same slot between our two loads would otherwise pair our key with
        // its value). On a change the key may have moved back toward its
        // home, so the probe restarts there. The re-check is acquire too,
        // like every probe load, so the version re-read below cannot hoist
        // above any of them.
        found_value = slots[index].value.load(std::memory_order_acquire);
        if (slots[index].key.load(std::memory_order_acquire) != key) {
          continue;
        }
      }
      // Seqlock validation: an odd version means growth is in flight; a
      // changed version means the probe may have straddled one and read an
      // array writers no longer update. Either way the probe re-runs
      // against the (new) current array. Growth is rare — steady state pays
      // only these two version loads.
      if (v1 == stripe.version.load(std::memory_order_acquire) &&
          (v1 & 1) == 0) {
        if (slot_key != key || IsGhost(found_value)) {
          return false;
        }
        *value = found_value;
        return true;
      }
    }
  }

  bool Contains(ObjectId key) const {
    uint32_t value;
    return Find(key, &value);
  }

  // Writer-side (externally serialized): the key's raw value, ghost tag
  // included, or kNoEntry if the key is not indexed.
  uint32_t Entry(ObjectId key) const {
    if (key >= kTombstoneKey) {
      return kNoEntry;
    }
    const Slot* slot = FindSlot(key);
    return slot != nullptr ? slot->value.load(std::memory_order_relaxed)
                           : kNoEntry;
  }

  // Writer-side (externally serialized). Key must be absent and must not
  // be a reserved sentinel (hard check: a sentinel insert would alias an
  // empty slot and corrupt the table). `value` may carry the ghost tag.
  void Insert(ObjectId key, uint32_t value) {
    QDLP_CHECK(key < kTombstoneKey);
    const uint64_t hash = FlatMapHash(key);
    Stripe& stripe = stripes_[(hash >> 32) & stripe_mask_];
    MaybeGrow(stripe, stripe.entries + 1);
    Slot* slots = stripe.slots.load(std::memory_order_relaxed);
    const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
    size_t index = hash & mask;
    while (true) {
      const uint64_t slot_key =
          slots[index].key.load(std::memory_order_relaxed);
      QDLP_CHECK(slot_key != key);
      if (slot_key == kEmptyKey) {
        break;
      }
      index = (index + 1) & mask;
    }
    Publish(slots[index], key, value);
    ++stripe.entries;
    if (!IsGhost(value)) {
      CountResident(stripe, true);
    }
  }

  // Writer-side. Moves the key's entry in place: one release store of
  // `value` into its slot (see the header comment), returning the value it
  // replaced. The key must be indexed (hard check: there is no slot to
  // store into otherwise).
  uint32_t Update(ObjectId key, uint32_t value) {
    QDLP_CHECK(key < kTombstoneKey);
    Slot* slot = FindSlot(key);
    QDLP_CHECK(slot != nullptr);
    const uint32_t old = slot->value.load(std::memory_order_relaxed);
    slot->value.store(value, std::memory_order_release);
    if (IsGhost(old) != IsGhost(value)) {
      CountResident(stripes_[(FlatMapHash(key) >> 32) & stripe_mask_],
                    IsGhost(old));
    }
    return old;
  }

  // Writer-side. Returns true if the key was present and is now removed;
  // `erased`, when given, receives the value it mapped to. Reserved keys
  // are never present: erasing one is a no-op, not an emptying of whatever
  // empty slot the probe happens to hit first.
  bool Erase(ObjectId key, uint32_t* erased = nullptr) {
    if (key >= kTombstoneKey) {
      return false;
    }
    const uint64_t hash = FlatMapHash(key);
    Stripe& stripe = stripes_[(hash >> 32) & stripe_mask_];
    Slot* slots = stripe.slots.load(std::memory_order_relaxed);
    const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
    size_t hole = hash & mask;
    while (true) {
      const uint64_t slot_key = slots[hole].key.load(std::memory_order_relaxed);
      if (slot_key == key) {
        break;
      }
      if (slot_key == kEmptyKey) {
        return false;
      }
      hole = (hole + 1) & mask;
    }
    const uint32_t value = slots[hole].value.load(std::memory_order_relaxed);
    if (erased != nullptr) {
      *erased = value;
    }
    // Backward shift. The hole holds a tombstone, which readers probe past,
    // until nothing is left to move into it: an entry of the rest of the run
    // whose home is not in (hole, next] probes through the hole, so it is
    // published there and its old slot becomes the hole. The last hole
    // lies on no remaining entry's probe path and is emptied.
    slots[hole].key.store(kTombstoneKey, std::memory_order_release);
    for (size_t next = (hole + 1) & mask;; next = (next + 1) & mask) {
      const uint64_t moved = slots[next].key.load(std::memory_order_relaxed);
      if (moved == kEmptyKey) {
        break;
      }
      const size_t home = FlatMapHash(moved) & mask;
      if (((next - home) & mask) < ((next - hole) & mask)) {
        continue;  // home lies after the hole: the entry stays reachable
      }
      Publish(slots[hole], moved,
              slots[next].value.load(std::memory_order_relaxed));
      slots[next].key.store(kTombstoneKey, std::memory_order_release);
      hole = next;
    }
    slots[hole].key.store(kEmptyKey, std::memory_order_release);
    --stripe.entries;
    if (!IsGhost(value)) {
      CountResident(stripe, false);
    }
    return true;
  }

  // Resident-entry count, summed over the stripes; ghosts are not counted.
  // Relaxed: exact once the writers are quiescent, a point-in-time
  // approximation while sharded writers are mutating.
  size_t size() const {
    size_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.live.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Ghost-record count. Writer-quiescent only (invariant checks under every
  // writer lock): it reads the writer-only entry counts.
  size_t ghosts() const {
    size_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.entries - stripe.live.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Writer-quiescent iteration over the residents (used by invariant checks
  // under the caches' eviction lock): fn(ObjectId, uint32_t).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Stripe& stripe : stripes_) {
      const Slot* slots = stripe.slots.load(std::memory_order_acquire);
      const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
      for (size_t i = 0; i <= mask; ++i) {
        const uint64_t key = slots[i].key.load(std::memory_order_acquire);
        const uint32_t value = slots[i].value.load(std::memory_order_relaxed);
        if (key != kEmptyKey && !IsGhost(value)) {
          fn(key, value);
        }
      }
    }
  }

  // Writer-quiescent structural self-check.
  void CheckInvariants() const {
    for (const Stripe& stripe : stripes_) {
      QDLP_CHECK((stripe.version.load(std::memory_order_acquire) & 1) == 0);
      const Slot* slots = stripe.slots.load(std::memory_order_acquire);
      const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
      QDLP_CHECK(((mask + 1) & mask) == 0);
      size_t entries = 0;
      size_t live = 0;
      for (size_t i = 0; i <= mask; ++i) {
        const uint64_t key = slots[i].key.load(std::memory_order_acquire);
        if (key == kEmptyKey) {
          continue;
        }
        // Erase shifts entries back instead of leaving tombstones.
        QDLP_CHECK(key != kTombstoneKey);
        ++entries;
        // Reachability: the probe path from the key's home slot to its
        // position crosses no empty slot, and ends at this slot; the
        // readers see exactly the residents.
        const uint32_t value = slots[i].value.load(std::memory_order_relaxed);
        QDLP_CHECK(Entry(key) == value);
        uint32_t found;
        QDLP_CHECK(Find(key, &found) == !IsGhost(value));
        live += IsGhost(value) ? 0 : 1;
      }
      QDLP_CHECK(live == stripe.live.load(std::memory_order_relaxed));
      QDLP_CHECK(entries == stripe.entries);
      QDLP_CHECK(entries * kMaxLoadDen <= (mask + 1) * kMaxLoadNum);
    }
  }

  // Bytes held by the live slot arrays plus outgrown ones (resident until
  // destruction), for bytes/object accounting.
  size_t MemoryBytes() const {
    size_t slots = 0;
    for (const Stripe& stripe : stripes_) {
      slots += stripe.mask.load(std::memory_order_relaxed) + 1 +
               stripe.retired_slots;
    }
    return slots * sizeof(Slot);
  }

  size_t num_stripes() const { return stripes_.size(); }

 private:
  struct Slot {
    std::atomic<uint64_t> key{kEmptyKey};
    std::atomic<uint32_t> value{0};
  };

  struct Stripe {
    // Read by every Find of this stripe; written only when it grows.
    alignas(64) std::atomic<uint64_t> version{0};
    std::atomic<Slot*> slots{nullptr};
    std::atomic<uint64_t> mask{0};
    // Writer-only bookkeeping (guarded by the external writer lock), on a
    // line of its own so inserts and erases never invalidate the line
    // above. `live` (residents) is atomic only so that size() may sum it
    // concurrently; `entries` (residents and ghosts) drives growth.
    alignas(64) std::atomic<size_t> live{0};
    size_t entries = 0;
    std::unique_ptr<Slot[]> current;
    std::vector<std::unique_ptr<Slot[]>> retired;  // kept for stale readers
    size_t retired_slots = 0;
  };

  static constexpr size_t kMinStripeSlots = 16;
  // A stripe doubles when its entries would pass 7/10 of its slots.
  static constexpr size_t kMaxLoadNum = 7;
  static constexpr size_t kMaxLoadDen = 10;

  // Writer-side probe: the key's slot, or nullptr if it is not indexed.
  // Only the stripe's writer moves slots, so no seqlock. Callers screen out
  // the reserved keys, which would match an empty slot.
  Slot* FindSlot(ObjectId key) const {
    const uint64_t hash = FlatMapHash(key);
    const Stripe& stripe = stripes_[(hash >> 32) & stripe_mask_];
    Slot* slots = stripe.slots.load(std::memory_order_relaxed);
    const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
    for (size_t index = hash & mask;; index = (index + 1) & mask) {
      const uint64_t slot_key =
          slots[index].key.load(std::memory_order_relaxed);
      if (slot_key == key) {
        return &slots[index];
      }
      if (slot_key == kEmptyKey) {
        return nullptr;
      }
    }
  }

  // Publish order: value first, key last, both release, so a reader that
  // acquires the key sees the value, and one that loads the value sees the
  // store that vacated the slot before it.
  static void Publish(Slot& slot, ObjectId key, uint32_t value) {
    slot.value.store(value, std::memory_order_release);
    slot.key.store(key, std::memory_order_release);
  }

  // Counts a resident in or out of the stripe. One writer per stripe: a
  // relaxed load and store, no lock prefix.
  static void CountResident(Stripe& stripe, bool in) {
    const size_t live = stripe.live.load(std::memory_order_relaxed);
    stripe.live.store(in ? live + 1 : live - 1, std::memory_order_relaxed);
  }

  // Doubles the stripe if `entries` entries would pass its load limit.
  void MaybeGrow(Stripe& stripe, size_t entries) {
    const uint64_t mask = stripe.mask.load(std::memory_order_relaxed);
    const size_t capacity = mask + 1;
    if (entries * kMaxLoadDen <= capacity * kMaxLoadNum) {
      return;
    }
    // The new array stays private until published, and the writer is the
    // only mutator of the old one, so it is filled before the seqlock opens.
    auto grown = std::make_unique<Slot[]>(2 * capacity);
    const uint64_t new_mask = 2 * capacity - 1;
    Slot* old = stripe.slots.load(std::memory_order_relaxed);
    for (size_t i = 0; i < capacity; ++i) {
      const uint64_t key = old[i].key.load(std::memory_order_relaxed);
      if (key == kEmptyKey) {
        continue;
      }
      size_t index = FlatMapHash(key) & new_mask;
      while (grown[index].key.load(std::memory_order_relaxed) != kEmptyKey) {
        index = (index + 1) & new_mask;
      }
      grown[index].value.store(old[i].value.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
      grown[index].key.store(key, std::memory_order_relaxed);
    }
    // Seqlock write section: readers retry probes that overlap this.
    stripe.version.fetch_add(1, std::memory_order_acq_rel);  // -> odd
    // Retire the old array (kept alive for stale readers), publish the new
    // one, close the seqlock.
    stripe.retired.push_back(std::move(stripe.current));
    stripe.retired_slots += capacity;
    stripe.current = std::move(grown);
    stripe.slots.store(stripe.current.get(), std::memory_order_release);
    stripe.mask.store(new_mask, std::memory_order_release);
    stripe.version.fetch_add(1, std::memory_order_release);  // -> even
  }

  std::vector<Stripe> stripes_;
  uint64_t stripe_mask_ = 0;
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_STRIPED_INDEX_H_
