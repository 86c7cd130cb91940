// Model-based oracles for the policy zoo.
//
// Each reference model is an obviously-correct, naive re-implementation of a
// policy's *specification*: O(n) scans over flat containers, no generation
// counters, no iterator caches, no sharding. They share no code with the
// production policies in src/ — that independence is the point. The
// DifferentialRunner (differential_runner.h) replays randomized traces
// through a production policy and its oracle in lockstep and asserts the
// hit/miss decisions agree.
//
// The models are deliberately slow (linear scans everywhere). They are test
// machinery; keeping them dumb keeps them trustworthy.

#ifndef QDLP_TESTS_ORACLE_REFERENCE_MODELS_H_
#define QDLP_TESTS_ORACLE_REFERENCE_MODELS_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/trace/trace.h"

namespace qdlp {
namespace oracle {

// Minimal cache-model interface: request an object, learn hit/miss.
class ReferenceModel {
 public:
  virtual ~ReferenceModel() = default;

  // Requests `id`; admits on miss (evicting as needed). Returns true on hit.
  virtual bool Access(ObjectId id) = 0;
  // Removes `id` if it holds cache space; returns whether it did. Models
  // without a removal spec keep the object and return false, like
  // EvictionPolicy's default.
  virtual bool Remove(ObjectId id) {
    (void)id;
    return false;
  }
  // Number of objects currently holding cache space (ghosts excluded).
  virtual size_t size() const = 0;
  // True when `id` currently holds cache space.
  virtual bool Contains(ObjectId id) const = 0;
  virtual const char* name() const = 0;
};

// FIFO: evict in insertion order; hits touch nothing.
class RefFifo : public ReferenceModel {
 public:
  explicit RefFifo(size_t capacity) : capacity_(capacity) {}

  bool Access(ObjectId id) override;
  size_t size() const override { return queue_.size(); }
  bool Contains(ObjectId id) const override;
  const char* name() const override { return "ref-fifo"; }

 private:
  const size_t capacity_;
  std::deque<ObjectId> queue_;  // front = oldest
};

// LRU: move-to-front list, evict the back.
class RefLru : public ReferenceModel {
 public:
  explicit RefLru(size_t capacity) : capacity_(capacity) {}

  bool Access(ObjectId id) override;
  bool Remove(ObjectId id) override;
  size_t size() const override { return mru_.size(); }
  bool Contains(ObjectId id) const override;
  const char* name() const override { return "ref-lru"; }

 private:
  const size_t capacity_;
  std::vector<ObjectId> mru_;  // front = most recently used
};

// LFU with the production tie-break: evict the entry of minimal frequency
// that entered that frequency class earliest (LfuPolicy's buckets push new
// arrivals at the front and evict from the back).
class RefLfu : public ReferenceModel {
 public:
  explicit RefLfu(size_t capacity) : capacity_(capacity) {}

  bool Access(ObjectId id) override;
  size_t size() const override { return entries_.size(); }
  bool Contains(ObjectId id) const override;
  const char* name() const override { return "ref-lfu"; }

 private:
  struct Entry {
    ObjectId id;
    uint64_t frequency;
    uint64_t stamp;  // clock_ value when `frequency` last changed
  };
  const size_t capacity_;
  uint64_t clock_ = 0;
  std::vector<Entry> entries_;
};

// k-bit CLOCK as a reinsertion queue: the ring-buffer-with-hand formulation
// in src/concurrent/clock_ring.h is behaviourally identical to a FIFO where
// the front entry is reinserted at the back (counter - 1) while its counter
// is positive. The queue form is the obviously-correct one.
//
// Removal leaves a hole at the object's queue position (the ring's freed
// slot). A miss fills the most recently made hole before it appends or
// evicts, so eviction runs only when no hole is left and the hand never
// meets one; and while holes exist no entry moves, so their positions stay
// valid.
class RefClock : public ReferenceModel {
 public:
  RefClock(size_t capacity, int bits);

  bool Access(ObjectId id) override;
  bool Remove(ObjectId id) override;
  size_t size() const override { return queue_.size() - holes_.size(); }
  bool Contains(ObjectId id) const override;
  const char* name() const override { return "ref-clock"; }

 private:
  struct Entry {
    ObjectId id;
    int counter;
    bool hole;
  };

  const size_t capacity_;
  const int max_counter_;
  std::deque<Entry> queue_;   // front = hand
  std::vector<size_t> holes_;  // queue positions, most recent last
};

// SIEVE: visited bits, a hand that survives evictions, new objects at the
// head. Modelled as a vector ordered oldest -> newest with an index hand.
class RefSieve : public ReferenceModel {
 public:
  explicit RefSieve(size_t capacity) : capacity_(capacity) {}

  bool Access(ObjectId id) override;
  size_t size() const override { return queue_.size(); }
  bool Contains(ObjectId id) const override;
  const char* name() const override { return "ref-sieve"; }

 private:
  struct Node {
    ObjectId id;
    bool visited;
  };
  static constexpr size_t kNoHand = static_cast<size_t>(-1);

  void EvictOne();

  const size_t capacity_;
  std::vector<Node> queue_;  // [0] = oldest, back = newest
  size_t hand_ = kNoHand;    // index into queue_, or kNoHand
};

// Plain FIFO ghost list: remembers recently evicted ids, capped at
// `capacity` (0 = disabled). Consume removes and reports membership.
class RefGhost {
 public:
  explicit RefGhost(size_t capacity) : capacity_(capacity) {}

  void Insert(ObjectId id);
  bool Consume(ObjectId id);
  bool Contains(ObjectId id) const;
  size_t size() const { return queue_.size(); }

 private:
  const size_t capacity_;
  std::deque<ObjectId> queue_;  // front = oldest
};

// S3-FIFO (Yang et al.): small probationary FIFO + main FIFO with lazy
// promotion + ghost. Mirrors the spec in DESIGN.md /
// src/concurrent/concurrent_s3fifo.h:
//  - hits bump a 2-bit frequency (saturating at 3);
//  - room is made by evicting from small while it is over its target (or
//    main is empty), else from main;
//  - a small victim with freq >= 1 moves to main (freeing no space), a
//    freq-0 victim is ghosted;
//  - main reinserts positive-frequency candidates at freq - 1;
//  - ghost hits admit directly into main.
class RefS3Fifo : public ReferenceModel {
 public:
  RefS3Fifo(size_t capacity, double small_fraction, double ghost_factor);

  bool Access(ObjectId id) override;
  // Erases the entry from its queue; the ghost is untouched.
  bool Remove(ObjectId id) override;
  size_t size() const override { return small_.size() + main_.size(); }
  bool Contains(ObjectId id) const override;
  const char* name() const override { return "ref-s3fifo"; }

 private:
  void MakeRoom();
  void EvictSmall();
  void EvictMain();

  const size_t capacity_;
  size_t small_capacity_;
  std::deque<std::pair<ObjectId, int>> small_;  // (id, freq); front = oldest
  std::deque<std::pair<ObjectId, int>> main_;
  RefGhost ghost_;
};

// QD-LP-FIFO (the paper's §4 composition): probationary FIFO with accessed
// bits in front of a 2-bit CLOCK main cache, plus a ghost queue feeding the
// main cache directly. Composes RefClock + RefGhost.
class RefQdLpFifo : public ReferenceModel {
 public:
  RefQdLpFifo(size_t probation_capacity, size_t main_capacity,
              size_t ghost_capacity);

  bool Access(ObjectId id) override;
  // Erases a probationary entry from its queue, or removes a main entry as
  // RefClock does; the ghost is untouched.
  bool Remove(ObjectId id) override;
  size_t size() const override { return probation_.size() + main_.size(); }
  bool Contains(ObjectId id) const override;
  const char* name() const override { return "ref-qd-lp-fifo"; }

 private:
  void EvictProbation();

  const size_t probation_capacity_;
  std::deque<std::pair<ObjectId, bool>> probation_;  // (id, accessed bit)
  RefClock main_;
  RefGhost ghost_;
};

// Builds the exact oracle for a production policy name, reproducing the
// factory's capacity split (policy_factory.cc) so hit/miss sequences match
// request-for-request. Returns nullptr for names without an exact oracle
// (adaptive policies get bounded-divergence treatment instead). Covered:
// fifo, lru, lfu, fifo-reinsertion/clock/clock1, clock2, clock3, sieve,
// s3fifo, qd-lp-fifo.
std::unique_ptr<ReferenceModel> MakeExactOracle(const std::string& name,
                                                size_t capacity);

}  // namespace oracle
}  // namespace qdlp

#endif  // QDLP_TESTS_ORACLE_REFERENCE_MODELS_H_
