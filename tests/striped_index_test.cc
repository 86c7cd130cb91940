// StripedAtomicIndex: single-writer semantics, ghost records, differential
// testing against FlatMap, and lock-free-reader stress (a data-race hunting
// ground for the tsan preset; see docs/TESTING.md).

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

constexpr uint32_t kGhostTag = StripedAtomicIndex::kGhostTag;
constexpr uint32_t kNoEntry = StripedAtomicIndex::kNoEntry;

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

  index.Update(7, 71);
  ASSERT_TRUE(index.Find(7, &value));
  EXPECT_EQ(value, 71u);
  EXPECT_EQ(index.Entry(7), 71u);
  EXPECT_EQ(index.Entry(9), kNoEntry);
  EXPECT_EQ(index.size(), 2u);

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
  EXPECT_EQ(index.Entry(StripedAtomicIndex::kEmptyKey), kNoEntry);
  EXPECT_EQ(index.Entry(StripedAtomicIndex::kTombstoneKey), kNoEntry);
  // The probes above disturbed nothing: live entries and size are intact.
  EXPECT_EQ(index.size(), 2u);
  ASSERT_TRUE(index.Find(1, &value));
  EXPECT_EQ(value, 10u);
  ASSERT_TRUE(index.Find(2, &value));
  EXPECT_EQ(value, 20u);
  index.CheckInvariants();
}

// Update has no slot to store into for a key that is not indexed, and a
// reserved key would alias an empty slot: both are caller bugs.
TEST(StripedIndexDeathTest, UpdateNeedsAnIndexedKey) {
  StripedAtomicIndex index(/*max_entries=*/64, /*num_stripes=*/4);
  index.Insert(1, 10);
  EXPECT_DEATH(index.Update(2, 20), "QDLP_CHECK failed");
  EXPECT_DEATH(index.Update(StripedAtomicIndex::kEmptyKey, 99),
               "QDLP_CHECK failed");
  EXPECT_DEATH(index.Update(StripedAtomicIndex::kTombstoneKey, 99),
               "QDLP_CHECK failed");
}

// A ghost record (value tagged kGhostTag) is absent to the readers and to
// size(), present to the writer-side Entry(), counted for growth, and moves
// to and from resident in place through Update.
TEST(StripedIndexTest, GhostRecordsAreAbsentToReadersButFillTheTable) {
  // One stripe of 32 slots, which doubles past 22 entries.
  StripedAtomicIndex index(/*max_entries=*/16, /*num_stripes=*/1);
  const size_t bytes_at_start = index.MemoryBytes();
  EXPECT_TRUE(StripedAtomicIndex::IsGhost(kNoEntry));
  index.Insert(1, 10);
  index.Insert(2, kGhostTag | 20);
  uint32_t value = 0;
  EXPECT_FALSE(index.Find(2, &value));
  EXPECT_FALSE(index.Contains(2));
  EXPECT_EQ(index.Entry(2), kGhostTag | 20);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.ghosts(), 1u);
  size_t visited = 0;
  index.ForEach([&](ObjectId id, uint32_t) {
    EXPECT_EQ(id, 1u);
    ++visited;
  });
  EXPECT_EQ(visited, 1u);

  // Resident -> ghost and ghost -> resident, each in place.
  index.Update(1, kGhostTag | 11);
  EXPECT_FALSE(index.Contains(1));
  EXPECT_EQ(index.Entry(1), kGhostTag | 11);
  index.Update(2, 21);
  ASSERT_TRUE(index.Find(2, &value));
  EXPECT_EQ(value, 21u);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.ghosts(), 1u);
  index.CheckInvariants();

  // Erasing a ghost leaves the resident count alone.
  EXPECT_TRUE(index.Erase(1));
  EXPECT_EQ(index.Entry(1), kNoEntry);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.ghosts(), 0u);

  // Ghosts alone grow the stripe: they occupy slots like residents.
  for (ObjectId id = 100; id < 130; ++id) {
    index.Insert(id, kGhostTag | static_cast<uint32_t>(id));
  }
  EXPECT_GT(index.MemoryBytes(), bytes_at_start);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.ghosts(), 30u);
  for (ObjectId id = 100; id < 130; ++id) {
    EXPECT_EQ(index.Entry(id), kGhostTag | static_cast<uint32_t>(id));
    EXPECT_FALSE(index.Contains(id));
  }
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

// Differential: random insert/erase/update churn must agree with FlatMap at
// every step, where updates also turn entries into ghost records and back.
// Keys are drawn from a small universe, so probe runs are long and most
// erases shift later entries of the run back into the hole.
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
    } else if (uint32_t* entry = model.Find(id)) {
      // Odd rolls make the entry a ghost record, even ones a resident.
      *entry = static_cast<uint32_t>(step) | (roll % 2 == 1 ? kGhostTag : 0);
      index.Update(id, *entry);
    }
    if (step % 512 == 0) {
      index.CheckInvariants();
      size_t ghosts = 0;
      model.ForEach([&](ObjectId, uint32_t value) {
        ghosts += StripedAtomicIndex::IsGhost(value) ? 1 : 0;
      });
      EXPECT_EQ(index.size(), model.size() - ghosts);
      EXPECT_EQ(index.ghosts(), ghosts);
      for (ObjectId probe = 0; probe < kUniverse; ++probe) {
        uint32_t value;
        const uint32_t* expected = model.Find(probe);
        ASSERT_EQ(index.Entry(probe),
                  expected != nullptr ? *expected : kNoEntry);
        const bool resident =
            expected != nullptr && !StripedAtomicIndex::IsGhost(*expected);
        ASSERT_EQ(index.Find(probe, &value), resident);
        if (resident) {
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
// self-certifying mapping value == f(id) for residents (f keeps the ghost
// tag clear), so any torn/stale read a reader could observe would break the
// equality; under TSan this is also the data-race probe for the seqlock +
// release/acquire slot protocol. Three inputs: four stripes at about half
// load; one stripe whose live count hovers near 60% of its slots and never
// grows, where most erases shift several entries back, so a reader that
// paired a key with a shifted neighbour's value would show up; and four
// growing stripes whose writer also flips entries between resident and
// ghost record with in-place Updates, where a reader must never take a
// ghost value for a hit.
TEST(StripedIndexTest, ReadersNeverSeeTornValuesUnderChurn) {
  struct Input {
    size_t max_entries;
    size_t num_stripes;
    uint64_t universe;
    bool never_grows;
    bool flips_ghosts;
  };
  // One stripe of 1024 slots; toggling a universe of 1228 ids keeps about
  // 614 live, below the 717 that would double it.
  for (const Input& input : {Input{256, 4, 512, false, false},
                             Input{512, 1, 1228, true, false},
                             Input{256, 4, 512, false, true}}) {
    SCOPED_TRACE(testing::Message() << input.num_stripes << " stripes, "
                                    << (input.flips_ghosts ? "" : "no ")
                                    << "ghost flips");
    StripedAtomicIndex index(input.max_entries, input.num_stripes);
    const size_t bytes_at_start = index.MemoryBytes();
    const auto value_of = [](ObjectId id) {
      return static_cast<uint32_t>(id * 2654435761u + 17) & ~kGhostTag;
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
    FlatMap<uint32_t> present;  // id -> whether it is a ghost record
    for (int step = 0; step < 200000; ++step) {
      const ObjectId id = rng.NextBounded(input.universe);
      uint32_t* ghost = present.Find(id);
      if (ghost == nullptr) {
        *present.Emplace(id).first = 0;
        index.Insert(id, value_of(id));
      } else if (input.flips_ghosts && rng.NextBounded(3) != 0) {
        *ghost = *ghost == 0 ? 1 : 0;
        index.Update(id, *ghost ? kGhostTag | value_of(id) : value_of(id));
      } else {
        present.Erase(id);
        index.Erase(id);
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
