// Size-aware QD-LP-FIFO — the paper's stated future work ("designing
// size-aware Lazy Promotion and Quick Demotion techniques are worth
// pursuing", §5 Limitations) made concrete.
//
// The uniform-size construction generalizes per-dimension:
//   * probationary FIFO gets 10% of the *byte* budget;
//   * the ghost remembers evicted ids charged at their object size, with a
//     byte budget equal to the main cache (the natural generalization of
//     "as many entries as the main cache");
//   * the main cache is a size-aware 2-bit CLOCK.
// Flow is identical to QdCache: ghost hits admit straight to main,
// probation evictees promote if re-accessed, else ghost.

#ifndef QDLP_SRC_SIZED_SIZED_QDLP_H_
#define QDLP_SRC_SIZED_SIZED_QDLP_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/sized/sized_basic.h"
#include "src/sized/sized_policy.h"
#include "src/util/flat_map.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

// Byte-budgeted ghost: entries are metadata-only but *charged* at object
// size so that the ghost covers the same byte-window of history regardless
// of object-size mix. Built on an intrusive FIFO plus its own id index: a
// refresh is an O(1) move to the back and a Consume an O(1) unlink, so the
// FIFO holds exactly one record per live entry.
class SizedGhost {
 public:
  explicit SizedGhost(uint64_t byte_budget);

  void Insert(ObjectId id, uint64_t size);
  bool Consume(ObjectId id);
  bool Contains(ObjectId id) const { return live_.Contains(id); }
  uint64_t charged_bytes() const { return charged_; }
  size_t ApproxMetadataBytes() const {
    return fifo_.MemoryBytes() + live_.MemoryBytes();
  }

 private:
  struct Record {
    ObjectId id;
    uint64_t size;
  };

  uint64_t byte_budget_;
  uint64_t charged_ = 0;        // bytes of live entries (invariant)
  IntrusiveList<Record> fifo_;  // front = oldest
  FlatMap<uint32_t> live_;      // id -> fifo slot
};

// Size-aware QD wrapper over an arbitrary main policy. The main policy must
// be constructed with the main byte budget (total minus probation); use
// MakeSizedQd below or the sized factory to get the split right.
class SizedQdCache : public SizedEvictionPolicy {
 public:
  SizedQdCache(uint64_t probation_capacity,
               std::unique_ptr<SizedEvictionPolicy> main,
               const std::string& name = "");

  uint64_t used_bytes() const override {
    return probation_bytes_ + main_->used_bytes();
  }
  size_t object_count() const override {
    return probation_index_.size() + main_->object_count();
  }
  bool Contains(ObjectId id) const override {
    return probation_index_.contains(id) || main_->Contains(id);
  }

  uint64_t probation_bytes() const { return probation_bytes_; }
  const SizedEvictionPolicy& main() const { return *main_; }
  uint64_t promotions() const { return promotions_; }
  uint64_t quick_demotions() const { return quick_demotions_; }
  uint64_t ghost_admissions() const { return ghost_admissions_; }

 protected:
  bool OnAccess(ObjectId id, uint64_t size) override;

 private:
  struct ProbationEntry {
    uint64_t size;
    bool accessed;
  };

  void EvictFromProbation();

  uint64_t probation_capacity_;
  uint64_t probation_bytes_ = 0;
  std::unique_ptr<SizedEvictionPolicy> main_;
  SizedGhost ghost_;

  std::deque<ObjectId> probation_fifo_;
  std::unordered_map<ObjectId, ProbationEntry> probation_index_;

  uint64_t promotions_ = 0;
  uint64_t quick_demotions_ = 0;
  uint64_t ghost_admissions_ = 0;
};

// The paper's QD-LP-FIFO with byte budgets: probationary FIFO (10% of
// bytes) + byte-charged ghost + size-aware 2-bit CLOCK main.
class SizedQdLpFifo : public SizedQdCache {
 public:
  explicit SizedQdLpFifo(uint64_t byte_capacity,
                         double probation_fraction = 0.10, int clock_bits = 2);
};

// Splits `byte_capacity` and wraps `main_factory(main_bytes)`.
template <typename MainFactory>
std::unique_ptr<SizedQdCache> MakeSizedQd(uint64_t byte_capacity,
                                          double probation_fraction,
                                          MainFactory&& main_factory,
                                          const std::string& name = "") {
  QDLP_CHECK(probation_fraction > 0.0 && probation_fraction < 1.0);
  uint64_t probation = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(byte_capacity) *
                               probation_fraction));
  probation = std::min<uint64_t>(probation, byte_capacity - 1 > 0
                                                ? byte_capacity - 1
                                                : 1);
  return std::make_unique<SizedQdCache>(
      probation, main_factory(byte_capacity - probation), name);
}

}  // namespace qdlp

#endif  // QDLP_SRC_SIZED_SIZED_QDLP_H_
