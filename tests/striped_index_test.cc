// StripedAtomicIndex: single-writer semantics, differential testing against
// FlatMap, and lock-free-reader stress (a data-race hunting ground for the
// tsan preset; see docs/TESTING.md).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/concurrent/striped_index.h"
#include "src/util/flat_map.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

TEST(StripedIndexTest, InsertFindEraseBasics) {
  StripedAtomicIndex index(/*max_entries=*/64, /*num_stripes=*/4);
  uint32_t value = 0;
  EXPECT_FALSE(index.Find(7, &value));
  EXPECT_EQ(index.size(), 0u);

  index.Insert(7, 70);
  index.Insert(8, 80);
  EXPECT_EQ(index.size(), 2u);
  ASSERT_TRUE(index.Find(7, &value));
  EXPECT_EQ(value, 70u);
  ASSERT_TRUE(index.Find(8, &value));
  EXPECT_EQ(value, 80u);
  EXPECT_TRUE(index.Contains(7));
  EXPECT_FALSE(index.Contains(9));

  EXPECT_TRUE(index.Erase(7));
  EXPECT_FALSE(index.Erase(7));
  EXPECT_FALSE(index.Find(7, &value));
  EXPECT_EQ(index.size(), 1u);
  index.CheckInvariants();
}

TEST(StripedIndexTest, ReservedSentinelKeysAreRejectedSafely) {
  // kEmptyKey and kTombstoneKey are slot encodings, not storable keys.
  // Lookups and erases with them must be safe no-ops even in release
  // builds — a hostile wire key must never read or free a sentinel slot.
  StripedAtomicIndex index(/*max_entries=*/64, /*num_stripes=*/4);
  index.Insert(1, 10);
  index.Insert(2, 20);
  uint32_t value = 0;
  EXPECT_FALSE(index.Find(StripedAtomicIndex::kEmptyKey, &value));
  EXPECT_FALSE(index.Find(StripedAtomicIndex::kTombstoneKey, &value));
  EXPECT_FALSE(index.Contains(StripedAtomicIndex::kEmptyKey));
  EXPECT_FALSE(index.Contains(StripedAtomicIndex::kTombstoneKey));
  EXPECT_FALSE(index.Erase(StripedAtomicIndex::kEmptyKey));
  EXPECT_FALSE(index.Erase(StripedAtomicIndex::kTombstoneKey));
  // The probes above disturbed nothing: live entries and size are intact.
  EXPECT_EQ(index.size(), 2u);
  ASSERT_TRUE(index.Find(1, &value));
  EXPECT_EQ(value, 10u);
  ASSERT_TRUE(index.Find(2, &value));
  EXPECT_EQ(value, 20u);
  index.CheckInvariants();
}

TEST(StripedIndexTest, ForEachVisitsEveryLiveEntryOnce) {
  StripedAtomicIndex index(/*max_entries=*/128, /*num_stripes=*/8);
  for (ObjectId id = 0; id < 100; ++id) {
    index.Insert(id, static_cast<uint32_t>(id * 3));
  }
  for (ObjectId id = 0; id < 100; id += 2) {
    EXPECT_TRUE(index.Erase(id));
  }
  std::unordered_map<ObjectId, uint32_t> seen;
  index.ForEach([&](ObjectId id, uint32_t value) {
    EXPECT_TRUE(seen.emplace(id, value).second) << "duplicate id " << id;
  });
  EXPECT_EQ(seen.size(), 50u);
  for (const auto& [id, value] : seen) {
    EXPECT_EQ(id % 2, 1u);
    EXPECT_EQ(value, static_cast<uint32_t>(id * 3));
  }
}

// Differential: random insert/erase churn must agree with FlatMap at every
// step (rolls of 80 and up only advance the stream). Keys are drawn from a
// small universe, so probe runs are long and most erases shift later
// entries of the run back into the hole.
TEST(StripedIndexTest, ChurnMatchesFlatMap) {
  StripedAtomicIndex index(/*max_entries=*/200, /*num_stripes=*/4);
  FlatMap<uint32_t> model;
  Rng rng(12345);
  constexpr uint64_t kUniverse = 300;
  for (int step = 0; step < 60000; ++step) {
    const ObjectId id = rng.NextBounded(kUniverse);
    const uint32_t roll = static_cast<uint32_t>(rng.NextBounded(100));
    if (roll < 45) {
      // Insert if absent (mirrors the caches: Insert requires absence).
      if (!model.Contains(id)) {
        const uint32_t value = static_cast<uint32_t>(step);
        index.Insert(id, value);
        *model.Emplace(id).first = value;
      }
    } else if (roll < 80) {
      const bool erased_model = model.Erase(id);
      EXPECT_EQ(index.Erase(id), erased_model);
    }
    if (step % 512 == 0) {
      index.CheckInvariants();
      EXPECT_EQ(index.size(), model.size());
      for (ObjectId probe = 0; probe < kUniverse; ++probe) {
        uint32_t value;
        const uint32_t* expected = model.Find(probe);
        ASSERT_EQ(index.Find(probe, &value), expected != nullptr);
        if (expected != nullptr) {
          EXPECT_EQ(value, *expected);
        }
      }
    }
  }
  index.CheckInvariants();
}

// Growth: inserting far past the construction hint must still work (stripes
// rebuild/double under the seqlock) and keep every entry findable.
TEST(StripedIndexTest, GrowsBeyondConstructionHint) {
  StripedAtomicIndex index(/*max_entries=*/16, /*num_stripes=*/2);
  constexpr ObjectId kCount = 5000;
  for (ObjectId id = 0; id < kCount; ++id) {
    index.Insert(id, static_cast<uint32_t>(id + 1));
  }
  EXPECT_EQ(index.size(), kCount);
  for (ObjectId id = 0; id < kCount; ++id) {
    uint32_t value;
    ASSERT_TRUE(index.Find(id, &value)) << id;
    EXPECT_EQ(value, static_cast<uint32_t>(id + 1));
  }
  index.CheckInvariants();
  EXPECT_GT(index.MemoryBytes(), 0u);
}

// The miss path's churn at a fixed population, in qdlpd's shape (65,536
// entries over 64 stripes): erasing a victim and inserting a newcomer must
// never need more memory than the fill did. Backward-shift deletion leaves
// no tombstones, so nothing forces a rebuild and no array is retired.
TEST(StripedIndexTest, ChurnAtConstantSizeKeepsMemoryFlat) {
  constexpr size_t kEntries = size_t{1} << 16;
  StripedAtomicIndex index(kEntries, /*num_stripes=*/64);
  Rng rng(4242);
  std::vector<ObjectId> present(kEntries);
  ObjectId next_id = 0;
  for (ObjectId& id : present) {
    id = next_id++;
    index.Insert(id, static_cast<uint32_t>(id));
  }
  const size_t bytes_after_fill = index.MemoryBytes();
  for (int step = 0; step < 1000000; ++step) {
    ObjectId& victim = present[rng.NextBounded(kEntries)];
    ASSERT_TRUE(index.Erase(victim));
    victim = next_id++;
    index.Insert(victim, static_cast<uint32_t>(victim));
  }
  EXPECT_EQ(index.size(), kEntries);
  EXPECT_EQ(index.MemoryBytes(), bytes_after_fill);
  index.CheckInvariants();
}

// Lock-free readers vs one mutating writer. The writer maintains the
// self-certifying mapping value == f(id), so any torn/stale read a reader
// could observe would break the equality; under TSan this is also the
// data-race probe for the seqlock + release/acquire slot protocol. Two
// inputs: four stripes at about half load, and one stripe whose live count
// hovers near 60% of its slots and never grows. In the second, most erases
// shift several entries back, so a reader that paired a key with a shifted
// neighbour's value would show up there.
TEST(StripedIndexTest, ReadersNeverSeeTornValuesUnderChurn) {
  struct Input {
    size_t max_entries;
    size_t num_stripes;
    uint64_t universe;
    bool never_grows;
  };
  // One stripe of 1024 slots; toggling a universe of 1228 ids keeps about
  // 614 live, below the 717 that would double it.
  for (const Input& input : {Input{256, 4, 512, false},
                             Input{512, 1, 1228, true}}) {
    SCOPED_TRACE(input.num_stripes);
    StripedAtomicIndex index(input.max_entries, input.num_stripes);
    const size_t bytes_at_start = index.MemoryBytes();
    const auto value_of = [](ObjectId id) {
      return static_cast<uint32_t>(id * 2654435761u + 17);
    };
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reader_hits{0};
    std::atomic<bool> torn{false};

    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&, t] {
        Rng rng(77 + static_cast<uint64_t>(t));
        uint64_t hits = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const ObjectId id = rng.NextBounded(input.universe);
          uint32_t value;
          if (index.Find(id, &value)) {
            ++hits;
            if (value != value_of(id)) {
              torn.store(true, std::memory_order_relaxed);
            }
          }
        }
        reader_hits.fetch_add(hits, std::memory_order_relaxed);
      });
    }

    Rng rng(99);
    FlatMap<uint32_t> present;
    for (int step = 0; step < 200000; ++step) {
      const ObjectId id = rng.NextBounded(input.universe);
      if (present.Contains(id)) {
        present.Erase(id);
        index.Erase(id);
      } else {
        *present.Emplace(id).first = 1;
        index.Insert(id, value_of(id));
      }
    }
    stop.store(true, std::memory_order_release);
    for (auto& thread : readers) {
      thread.join();
    }
    EXPECT_FALSE(torn.load());
    EXPECT_GT(reader_hits.load(), 0u);
    if (input.never_grows) {
      EXPECT_EQ(index.MemoryBytes(), bytes_at_start);
    }
    index.CheckInvariants();
  }
}

}  // namespace
}  // namespace qdlp
