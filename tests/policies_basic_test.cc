// FIFO, LRU, and CLOCK semantics, including cross-checks against simple
// reference models (stack-based LRU; deque-based FIFO-Reinsertion).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/policies/fifo.h"
#include "src/policies/lru.h"
#include "src/trace/generators.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

TEST(FifoTest, EvictsInInsertionOrder) {
  FifoPolicy fifo(3);
  EXPECT_FALSE(fifo.Access(1));
  EXPECT_FALSE(fifo.Access(2));
  EXPECT_FALSE(fifo.Access(3));
  EXPECT_TRUE(fifo.Access(1));   // hit does not change order
  EXPECT_FALSE(fifo.Access(4));  // evicts 1 (oldest), despite the hit
  EXPECT_FALSE(fifo.Contains(1));
  EXPECT_TRUE(fifo.Contains(2));
  EXPECT_TRUE(fifo.Contains(3));
  EXPECT_TRUE(fifo.Contains(4));
}

TEST(FifoTest, SizeNeverExceedsCapacity) {
  FifoPolicy fifo(5);
  for (ObjectId id = 0; id < 100; ++id) {
    fifo.Access(id);
    EXPECT_LE(fifo.size(), 5u);
  }
  EXPECT_EQ(fifo.size(), 5u);
}

TEST(LruTest, EvictsLeastRecentlyUsed) {
  LruPolicy lru(3);
  lru.Access(1);
  lru.Access(2);
  lru.Access(3);
  EXPECT_TRUE(lru.Access(1));   // 1 becomes MRU
  EXPECT_FALSE(lru.Access(4));  // evicts 2
  EXPECT_TRUE(lru.Contains(1));
  EXPECT_FALSE(lru.Contains(2));
  EXPECT_TRUE(lru.Contains(3));
}

// Reference LRU: O(n) vector-based stack.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}
  bool Access(ObjectId id) {
    const auto it = std::find(stack_.begin(), stack_.end(), id);
    if (it != stack_.end()) {
      stack_.erase(it);
      stack_.push_back(id);
      return true;
    }
    if (stack_.size() == capacity_) {
      stack_.erase(stack_.begin());
    }
    stack_.push_back(id);
    return false;
  }

 private:
  size_t capacity_;
  std::vector<ObjectId> stack_;  // back = MRU
};

TEST(LruTest, MatchesReferenceModelOnZipfTrace) {
  ZipfTraceConfig config;
  config.num_requests = 20000;
  config.num_objects = 300;
  config.seed = 31;
  const Trace trace = GenerateZipf(config);
  LruPolicy lru(50);
  ReferenceLru reference(50);
  for (const ObjectId id : trace.requests) {
    ASSERT_EQ(lru.Access(id), reference.Access(id));
  }
}

// Reference FIFO-Reinsertion: deque of (id, referenced-bit); eviction pops
// the head, reinserting it at the tail with a decremented counter while the
// counter is non-zero.
class ReferenceFifoReinsertion {
 public:
  ReferenceFifoReinsertion(size_t capacity, int max_counter)
      : capacity_(capacity), max_counter_(max_counter) {}
  bool Access(ObjectId id) {
    for (auto& [entry_id, counter] : queue_) {
      if (entry_id == id) {
        counter = std::min(counter + 1, max_counter_);
        return true;
      }
    }
    if (queue_.size() == capacity_) {
      while (queue_.front().second > 0) {
        auto front = queue_.front();
        queue_.pop_front();
        --front.second;
        queue_.push_back(front);
      }
      queue_.pop_front();
    }
    queue_.push_back({id, 0});
    return false;
  }

 private:
  size_t capacity_;
  int max_counter_;
  std::deque<std::pair<ObjectId, int>> queue_;
};

class ClockEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ClockEquivalenceTest, RingClockMatchesQueueReinsertion) {
  const int bits = GetParam();
  ZipfTraceConfig config;
  config.num_requests = 15000;
  config.num_objects = 200;
  config.seed = 33;
  const Trace trace = GenerateZipf(config);
  const auto clock = MakePolicy("clock" + std::to_string(bits), 40);
  ReferenceFifoReinsertion reference(40, (1 << bits) - 1);
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    ASSERT_EQ(clock->Access(trace.requests[i]),
              reference.Access(trace.requests[i]))
        << "diverged at request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, ClockEquivalenceTest, ::testing::Values(1, 2, 3));

TEST(ClockTest, HitSetsReferenceProtection) {
  const auto clock = MakePolicy("fifo-reinsertion", 3);
  clock->Access(1);
  clock->Access(2);
  clock->Access(3);
  clock->Access(1);              // 1 gets its second chance bit
  EXPECT_FALSE(clock->Access(4));  // sweeps: 1 spared, 2 evicted
  EXPECT_TRUE(clock->Contains(1));
  EXPECT_FALSE(clock->Contains(2));
  EXPECT_TRUE(clock->Contains(3));
  EXPECT_TRUE(clock->Contains(4));
}

TEST(ClockTest, TwoBitSurvivesTwoSweeps) {
  const auto clock = MakePolicy("clock2", 2);
  clock->Access(1);
  clock->Access(1);  // counter -> 1
  clock->Access(1);  // counter -> 2
  clock->Access(2);
  // Two insertions must each decrement 1's counter before it can be evicted.
  clock->Access(3);  // evicts 2 (counter 0) after decrementing 1
  EXPECT_TRUE(clock->Contains(1));
  EXPECT_FALSE(clock->Contains(2));
  clock->Access(4);  // decrements 1 again (to 0), evicts 3
  EXPECT_TRUE(clock->Contains(1));
  clock->Access(5);  // now 1 is evictable
  EXPECT_FALSE(clock->Contains(1));
}

TEST(ClockTest, NameReflectsBits) {
  EXPECT_EQ(MakePolicy("clock1", 4)->name(), "fifo-reinsertion");
  EXPECT_EQ(MakePolicy("clock2", 4)->name(), "clock2");
}

TEST(ClockTest, CounterSaturates) {
  const auto clock = MakePolicy("fifo-reinsertion", 2);
  clock->Access(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(clock->Access(1));  // repeated hits saturate at 1
  }
  clock->Access(2);
  clock->Access(3);  // sweep: 1 spared once (counter 1 -> 0), 2 evicted
  EXPECT_TRUE(clock->Contains(1));
  EXPECT_FALSE(clock->Contains(2));
  clock->Access(4);  // 1's counter is now 0 -> evicted
  EXPECT_FALSE(clock->Contains(1));
}

}  // namespace
}  // namespace qdlp
