// Slab-backed intrusive doubly-linked list.
//
// All nodes live in one contiguous std::vector slab and are addressed by
// dense 32-bit slot ids instead of pointers/iterators, so a list operation
// never allocates (after Reserve) and never invalidates a slot id held by an
// external index. This is the hot-path replacement for std::list in the
// queue-based policies: a FIFO/LRU/SIEVE entry costs sizeof(T) + 8 bytes in
// one slab instead of a malloc'd 3-pointer node, and splices touch adjacent
// cache lines instead of chasing heap pointers.
//
// Erased slots go on an internal free list and are reused by the next push,
// so the slab never grows past the high-water mark of live nodes. Slot ids
// are stable for the lifetime of their node (push -> erase); the slab itself
// may reallocate when growing, so raw T* pointers must not be cached across
// pushes — hold SlotId and use operator[].

#ifndef QDLP_SRC_UTIL_INTRUSIVE_LIST_H_
#define QDLP_SRC_UTIL_INTRUSIVE_LIST_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace qdlp {

template <typename T>
class IntrusiveList {
 public:
  using SlotId = uint32_t;
  static constexpr SlotId kNullSlot = 0xFFFFFFFFu;

  IntrusiveList() = default;

  // Pre-sizes the slab for `n` live nodes.
  void Reserve(size_t n) { nodes_.reserve(n); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  SlotId front() const { return head_; }
  SlotId back() const { return tail_; }

  // Neighbor toward the back / toward the front; kNullSlot past the ends.
  SlotId Next(SlotId slot) const { return nodes_[slot].next; }
  SlotId Prev(SlotId slot) const { return nodes_[slot].prev; }

  T& operator[](SlotId slot) { return nodes_[slot].value; }
  const T& operator[](SlotId slot) const { return nodes_[slot].value; }

  SlotId PushFront(T value) {
    const SlotId slot = AllocateNode(std::move(value));
    LinkFront(slot);
    return slot;
  }

  SlotId PushBack(T value) {
    const SlotId slot = AllocateNode(std::move(value));
    LinkBack(slot);
    return slot;
  }

  // Links a new node directly behind live node `pos` (toward the back).
  SlotId InsertAfter(SlotId pos, T value) {
    const SlotId slot = AllocateNode(std::move(value));
    const SlotId next = nodes_[pos].next;
    nodes_[slot].prev = pos;
    nodes_[slot].next = next;
    nodes_[pos].next = slot;
    if (next != kNullSlot) {
      nodes_[next].prev = slot;
    } else {
      tail_ = slot;
    }
    return slot;
  }

  // Unlinks `slot` and returns it to the free list. The slot id may be
  // reused by a later push; the caller must drop its copy.
  void Erase(SlotId slot) {
    Unlink(slot);
    nodes_[slot].next = free_head_;
    free_head_ = slot;
    --size_;
  }

  void MoveToFront(SlotId slot) {
    if (slot == head_) {
      return;
    }
    Unlink(slot);
    LinkFront(slot);
  }

  void MoveToBack(SlotId slot) {
    if (slot == tail_) {
      return;
    }
    Unlink(slot);
    LinkBack(slot);
  }

  // Visits nodes front-to-back as fn(SlotId, const T&).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (SlotId slot = head_; slot != kNullSlot; slot = nodes_[slot].next) {
      fn(slot, nodes_[slot].value);
    }
  }

  // Structural self-check: both traversal directions agree with size(), and
  // live plus free nodes account for the whole slab. O(slab size).
  void CheckInvariants() const {
    size_t forward = 0;
    SlotId prev = kNullSlot;
    for (SlotId slot = head_; slot != kNullSlot; slot = nodes_[slot].next) {
      QDLP_CHECK(slot < nodes_.size());
      QDLP_CHECK(nodes_[slot].prev == prev);
      prev = slot;
      ++forward;
      QDLP_CHECK(forward <= nodes_.size());
    }
    QDLP_CHECK(prev == tail_);
    QDLP_CHECK(forward == size_);
    size_t free_count = 0;
    for (SlotId slot = free_head_; slot != kNullSlot;
         slot = nodes_[slot].next) {
      QDLP_CHECK(slot < nodes_.size());
      ++free_count;
      QDLP_CHECK(free_count <= nodes_.size());
    }
    QDLP_CHECK(size_ + free_count == nodes_.size());
  }

  // Bytes held by the slab (capacity, not just live nodes) — used for the
  // bytes/object accounting in bench JSON output and docs/PERFORMANCE.md.
  size_t MemoryBytes() const { return nodes_.capacity() * sizeof(Node); }

 private:
  struct Node {
    T value;
    SlotId prev;
    SlotId next;  // doubles as the free-list link while the slot is free
  };

  SlotId AllocateNode(T value) {
    ++size_;
    if (free_head_ != kNullSlot) {
      const SlotId slot = free_head_;
      free_head_ = nodes_[slot].next;
      nodes_[slot].value = std::move(value);
      return slot;
    }
    return GrowNode(std::move(value));
  }

  // Out of line: the slab grows only up to its high-water mark, and keeping
  // the reallocation out of AllocateNode lets pushes inline.
  [[gnu::noinline]] SlotId GrowNode(T value) {
    QDLP_CHECK(nodes_.size() < kNullSlot);
    nodes_.push_back(Node{std::move(value), kNullSlot, kNullSlot});
    return static_cast<SlotId>(nodes_.size() - 1);
  }

  void LinkFront(SlotId slot) {
    nodes_[slot].prev = kNullSlot;
    nodes_[slot].next = head_;
    if (head_ != kNullSlot) {
      nodes_[head_].prev = slot;
    } else {
      tail_ = slot;
    }
    head_ = slot;
  }

  void LinkBack(SlotId slot) {
    nodes_[slot].prev = tail_;
    nodes_[slot].next = kNullSlot;
    if (tail_ != kNullSlot) {
      nodes_[tail_].next = slot;
    } else {
      head_ = slot;
    }
    tail_ = slot;
  }

  void Unlink(SlotId slot) {
    Node& node = nodes_[slot];
    if (node.prev != kNullSlot) {
      nodes_[node.prev].next = node.next;
    } else {
      head_ = node.next;
    }
    if (node.next != kNullSlot) {
      nodes_[node.next].prev = node.prev;
    } else {
      tail_ = node.prev;
    }
  }

  std::vector<Node> nodes_;
  SlotId head_ = kNullSlot;
  SlotId tail_ = kNullSlot;
  SlotId free_head_ = kNullSlot;
  size_t size_ = 0;
};

}  // namespace qdlp

#endif  // QDLP_SRC_UTIL_INTRUSIVE_LIST_H_
