// The serial id index with the striped index's ghost-tag rules.
//
// StripedAtomicIndex (src/concurrent/striped_index.h) keeps quick-demoted
// ids as ghost records: entries whose value carries kGhostTag. This is the
// same contract over one single-threaded map, a FlatMap or, over dense-id
// traces, a DenseIndex (the factory picks), for the policies that run a
// ghost in their index on a serial core: the FIFO designs' Regions
// (regions_policy.h) and the qd-<base> wrapper (qd_cache.h). The read side
// (Find/Contains/ForEach, size()) sees residents only; Entry() returns the
// raw value, so one probe tells a resident, a ghost record and an
// unindexed id (kNoEntry, which carries the ghost tag too) apart.
// IndexedGhost (eviction_domains.h) writes the ghost records through
// Update and Erase.

#ifndef QDLP_SRC_CORE_TAGGED_INDEX_H_
#define QDLP_SRC_CORE_TAGGED_INDEX_H_

#include <cstddef>
#include <cstdint>

#include "src/concurrent/striped_index.h"
#include "src/trace/trace.h"
#include "src/util/check.h"

namespace qdlp {

template <typename Factory>
class TaggedIndex {
 public:
  // Reserved for `entries` residents and ghost records at once.
  TaggedIndex(size_t entries, const Factory& factory)
      : map_(factory.template Make<uint32_t>()) {
    map_.Reserve(entries);
  }

  bool Find(ObjectId id, uint32_t* value) const {
    const uint32_t* found = map_.Find(id);
    if (found == nullptr || StripedAtomicIndex::IsGhost(*found)) {
      return false;
    }
    *value = *found;
    return true;
  }
  bool Contains(ObjectId id) const {
    uint32_t value;
    return Find(id, &value);
  }
  uint32_t Entry(ObjectId id) const {
    const uint32_t* found = map_.Find(id);
    return found != nullptr ? *found : StripedAtomicIndex::kNoEntry;
  }
  void Insert(ObjectId id, uint32_t value) {
    map_[id] = value;
    ghosts_ += StripedAtomicIndex::IsGhost(value) ? 1 : 0;
  }
  // The id must be indexed, as StripedAtomicIndex::Update requires.
  void Update(ObjectId id, uint32_t value) {
    uint32_t* entry = map_.Find(id);
    QDLP_CHECK(entry != nullptr);
    ghosts_ += StripedAtomicIndex::IsGhost(value) ? 1 : 0;
    ghosts_ -= StripedAtomicIndex::IsGhost(*entry) ? 1 : 0;
    *entry = value;
  }
  bool Erase(ObjectId id) {
    uint32_t erased;
    if (!map_.Erase(id, &erased)) {
      return false;
    }
    ghosts_ -= StripedAtomicIndex::IsGhost(erased) ? 1 : 0;
    return true;
  }
  // Visits residents as fn(id, value).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&](ObjectId id, uint32_t value) {
      if (!StripedAtomicIndex::IsGhost(value)) {
        fn(id, value);
      }
    });
  }
  // Visits the ids of ghost records.
  template <typename Fn>
  void ForEachGhost(Fn&& fn) const {
    map_.ForEach([&](ObjectId id, uint32_t value) {
      if (StripedAtomicIndex::IsGhost(value)) {
        fn(id);
      }
    });
  }

  size_t size() const { return map_.size() - ghosts_; }
  size_t ghosts() const { return ghosts_; }
  void Prefetch(ObjectId id) const { map_.Prefetch(id); }
  void CheckInvariants() const {
    map_.CheckInvariants();
    size_t ghosts = 0;
    ForEachGhost([&](ObjectId) { ++ghosts; });
    QDLP_CHECK(ghosts == ghosts_);
  }
  size_t MemoryBytes() const { return map_.MemoryBytes(); }

 private:
  typename Factory::template Index<uint32_t> map_;  // id -> location
  size_t ghosts_ = 0;                                // tagged entries
};

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_TAGGED_INDEX_H_
