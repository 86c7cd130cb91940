// Property tests for the two history structures the QD machinery leans on:
// the ghost FIFO (eviction history, an IndexedGhost kept as ghost records
// in the id index) and the blocked Bloom filter (TinyLFU's doorkeeper).
// Exercised at capacity 1, at-capacity forgetting order, ghost hits out of
// the middle, re-demotion, slot recycling, size bounds under churn,
// randomized cross-checks against a naive model, and a false-positive-rate
// bound under load.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <vector>

#include "src/concurrent/eviction_domains.h"
#include "src/core/tagged_index.h"
#include "src/util/bloom_filter.h"
#include "src/util/dense_index.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

// ---------------------------------------------------------------------------
// IndexedGhost

// IndexedGhost's view of its core: a serial TaggedIndex and one shard.
struct GhostCore {
  TaggedIndex<FlatIndexFactory> index{64, FlatIndexFactory{}};
  size_t ShardOf(ObjectId) const { return 0; }
};

constexpr uint32_t kResident = 0;  // any untagged index value

// Quick-demotes `id`: indexed as a resident first if it is not, then its
// entry becomes a ghost record.
void Demote(GhostCore& core, IndexedGhost& ghost, ObjectId id) {
  if (core.index.Entry(id) == StripedAtomicIndex::kNoEntry) {
    core.index.Insert(id, kResident);
  }
  ghost.Push(core, id);
}

bool IsGhost(const GhostCore& core, ObjectId id) {
  return core.index.Entry(id) != StripedAtomicIndex::kNoEntry &&
         StripedAtomicIndex::IsGhost(core.index.Entry(id));
}

// A miss on `id`, as the Regions admit one: a ghost record is consumed and
// the id resurrected as a resident. Returns whether it was a ghost.
bool Resurrect(GhostCore& core, IndexedGhost& ghost, ObjectId id) {
  if (!IsGhost(core, id)) {
    return false;
  }
  ghost.Consume(core.index.Entry(id));
  core.index.Update(id, kResident);
  return true;
}

void CheckGhost(const GhostCore& core, const IndexedGhost& ghost) {
  ghost.CheckLocked(core, 0);
  core.index.CheckInvariants();
  ASSERT_EQ(core.index.ghosts(), ghost.size());
}

TEST(IndexedGhostTest, CapacityOneKeepsOnlyTheNewest) {
  GhostCore core;
  IndexedGhost ghost(/*base=*/0, /*capacity=*/1);
  Demote(core, ghost, 1);
  EXPECT_TRUE(IsGhost(core, 1));
  Demote(core, ghost, 2);
  EXPECT_EQ(core.index.Entry(1), StripedAtomicIndex::kNoEntry)
      << "the older entry must have been forgotten, index record included";
  EXPECT_TRUE(IsGhost(core, 2));
  EXPECT_EQ(ghost.size(), 1u);
  CheckGhost(core, ghost);
}

TEST(IndexedGhostTest, ConsumeRemovesExactlyOnce) {
  GhostCore core;
  IndexedGhost ghost(0, 4);
  Demote(core, ghost, 7);
  EXPECT_TRUE(Resurrect(core, ghost, 7));
  EXPECT_EQ(ghost.size(), 0u);
  EXPECT_TRUE(core.index.Contains(7)) << "resurrected as a resident";
  EXPECT_FALSE(Resurrect(core, ghost, 7)) << "each ghost hit is consumed";
  CheckGhost(core, ghost);
}

// A ghost hit out of the middle frees its place: the capacity counts live
// records only, and the oldest live one is still forgotten first.
TEST(IndexedGhostTest, InsertAndConsume) {
  GhostCore core;
  IndexedGhost ghost(0, 3);
  Demote(core, ghost, 1);
  Demote(core, ghost, 2);
  Demote(core, ghost, 3);
  ASSERT_TRUE(Resurrect(core, ghost, 2));
  EXPECT_TRUE(IsGhost(core, 1));
  EXPECT_TRUE(IsGhost(core, 3));
  EXPECT_EQ(ghost.size(), 2u);
  Demote(core, ghost, 4);  // takes the freed place; nothing is forgotten
  EXPECT_TRUE(IsGhost(core, 1));
  Demote(core, ghost, 5);  // full: forgets 1, the oldest
  EXPECT_EQ(core.index.Entry(1), StripedAtomicIndex::kNoEntry);
  EXPECT_TRUE(IsGhost(core, 3));
  EXPECT_TRUE(IsGhost(core, 4));
  EXPECT_TRUE(IsGhost(core, 5));
  EXPECT_TRUE(core.index.Contains(2)) << "the resurrected id stays resident";
  CheckGhost(core, ghost);
}

// A forgotten id leaves no trace: its next miss is cold, and demoting it
// again makes it the newest ghost.
TEST(IndexedGhostTest, EvictsOldestWhenFull) {
  GhostCore core;
  IndexedGhost ghost(0, 2);
  Demote(core, ghost, 1);
  Demote(core, ghost, 2);
  Demote(core, ghost, 3);
  EXPECT_EQ(core.index.Entry(1), StripedAtomicIndex::kNoEntry);
  EXPECT_FALSE(Resurrect(core, ghost, 1)) << "a forgotten id misses cold";
  EXPECT_EQ(ghost.size(), 2u);
  Demote(core, ghost, 1);  // forgets 2
  EXPECT_EQ(core.index.Entry(2), StripedAtomicIndex::kNoEntry);
  EXPECT_TRUE(IsGhost(core, 3));
  EXPECT_TRUE(IsGhost(core, 1));
  CheckGhost(core, ghost);
}

TEST(IndexedGhostTest, EvictionAtCapacityIsFifoOrder) {
  constexpr size_t kCapacity = 8;
  GhostCore core;
  IndexedGhost ghost(0, kCapacity);
  for (ObjectId id = 0; id < 2 * kCapacity; ++id) {
    Demote(core, ghost, id);
    EXPECT_LE(ghost.size(), kCapacity);
  }
  for (ObjectId id = 0; id < kCapacity; ++id) {
    EXPECT_EQ(core.index.Entry(id), StripedAtomicIndex::kNoEntry)
        << "id " << id;
  }
  for (ObjectId id = kCapacity; id < 2 * kCapacity; ++id) {
    EXPECT_TRUE(IsGhost(core, id)) << "id " << id;
  }
  CheckGhost(core, ghost);
}

TEST(IndexedGhostTest, RedemotedIdIsTheNewest) {
  GhostCore core;
  IndexedGhost ghost(0, 2);
  Demote(core, ghost, 1);
  Demote(core, ghost, 2);
  // 1 comes back and is demoted again: 2 is now the oldest, so the next
  // demotion forgets 2, never the re-demoted 1.
  ASSERT_TRUE(Resurrect(core, ghost, 1));
  Demote(core, ghost, 1);
  Demote(core, ghost, 3);
  EXPECT_TRUE(IsGhost(core, 1));
  EXPECT_EQ(core.index.Entry(2), StripedAtomicIndex::kNoEntry);
  EXPECT_TRUE(IsGhost(core, 3));
  CheckGhost(core, ghost);
}

// An id that keeps coming back and being demoted again holds one place:
// each ghost hit frees its record before the re-demotion writes a new one,
// so the other ghosts are not forgotten early.
TEST(IndexedGhostTest, BouncingIdHoldsOnePlace) {
  GhostCore core;
  IndexedGhost ghost(0, 3);
  Demote(core, ghost, 1);
  Demote(core, ghost, 2);
  Demote(core, ghost, 3);
  for (int bounce = 0; bounce < 10; ++bounce) {
    ASSERT_TRUE(Resurrect(core, ghost, 1)) << "bounce " << bounce;
    Demote(core, ghost, 1);
    ASSERT_EQ(ghost.size(), 3u) << "bounce " << bounce;
  }
  EXPECT_TRUE(IsGhost(core, 2));
  EXPECT_TRUE(IsGhost(core, 3));
  // 1 is the newest: the next two demotions forget 2 and 3.
  Demote(core, ghost, 4);
  Demote(core, ghost, 5);
  EXPECT_TRUE(IsGhost(core, 1));
  EXPECT_EQ(core.index.Entry(2), StripedAtomicIndex::kNoEntry);
  EXPECT_EQ(core.index.Entry(3), StripedAtomicIndex::kNoEntry);
  CheckGhost(core, ghost);
}

// Under churn over many more ids than it remembers, neither the ghost's
// list slab nor the index's ghost records grow past its capacity: a
// forgotten id's record is erased, and freed list slots are reused.
TEST(IndexedGhostTest, SizeBoundedUnderChurn) {
  constexpr size_t kCapacity = 10;
  GhostCore core;
  IndexedGhost ghost(0, kCapacity);
  const size_t list_bytes = ghost.MemoryBytes();
  Rng rng(101);
  for (int step = 0; step < 10000; ++step) {
    const ObjectId id = rng.NextBounded(50);
    if (rng.NextBool(0.3)) {
      Resurrect(core, ghost, id);
      if (core.index.Contains(id)) {
        core.index.Erase(id);  // the resident leaves the cache
      }
    } else if (!IsGhost(core, id)) {
      Demote(core, ghost, id);
    }
    ASSERT_LE(ghost.size(), kCapacity) << "step " << step;
    ASSERT_EQ(core.index.size(), 0u) << "step " << step;
    ASSERT_EQ(core.index.ghosts(), ghost.size()) << "step " << step;
  }
  EXPECT_EQ(ghost.MemoryBytes(), list_bytes) << "the list slab grew";
  CheckGhost(core, ghost);
}

// A ghost record read before some demotions (a buffered miss in the
// concurrent lane) is stale once its list slot goes to another id.
TEST(IndexedGhostTest, HoldsIsFalseOnceTheSlotIsRecycled) {
  GhostCore core;
  IndexedGhost ghost(/*base=*/16, 2);
  Demote(core, ghost, 1);
  Demote(core, ghost, 2);
  const uint32_t entry = core.index.Entry(1);
  EXPECT_TRUE(ghost.Holds(entry, 1));
  Demote(core, ghost, 3);  // forgets 1 and hands its slot to 3
  EXPECT_FALSE(ghost.Holds(entry, 1));
  EXPECT_TRUE(ghost.Holds(core.index.Entry(3), 3));

  // A consumed slot recycled by the next demotion reads stale too.
  const uint32_t entry2 = core.index.Entry(2);
  ASSERT_TRUE(Resurrect(core, ghost, 2));
  Demote(core, ghost, 4);
  EXPECT_FALSE(ghost.Holds(entry2, 2));
  EXPECT_TRUE(ghost.Holds(core.index.Entry(4), 4));
  CheckGhost(core, ghost);
}

// Randomized differential check against a naive deque model: demotions,
// ghost hits and resident removals over a small id universe, so every
// interaction (forgetting at capacity, slot reuse, re-demotion after a
// resurrection) gets exercised.
TEST(IndexedGhostTest, MatchesNaiveModelUnderRandomOps) {
  constexpr size_t kCapacity = 16;
  constexpr ObjectId kUniverse = 48;
  GhostCore core;
  IndexedGhost ghost(0, kCapacity);
  std::deque<ObjectId> model;  // front = oldest, unique entries

  Rng rng(2024);
  for (int step = 0; step < 20000; ++step) {
    const ObjectId id = rng.NextBounded(kUniverse);
    const auto it = std::find(model.begin(), model.end(), id);
    const bool model_ghost = it != model.end();
    const double op = rng.NextDouble();
    if (op < 0.35) {
      if (model_ghost) {
        model.erase(it);
      }
      ASSERT_EQ(Resurrect(core, ghost, id), model_ghost) << "step " << step;
    } else if (op < 0.45) {
      if (core.index.Contains(id)) {
        core.index.Erase(id);  // a resident leaves with no ghost trace
      }
    } else if (!model_ghost) {
      Demote(core, ghost, id);
      model.push_back(id);
      if (model.size() > kCapacity) {
        model.pop_front();
      }
    }
    ASSERT_EQ(ghost.size(), model.size()) << "step " << step;
    if (step % 97 == 0) {
      for (ObjectId check = 0; check < kUniverse; ++check) {
        const bool expected =
            std::find(model.begin(), model.end(), check) != model.end();
        ASSERT_EQ(IsGhost(core, check), expected)
            << "step " << step << ", id " << check;
      }
      CheckGhost(core, ghost);
    }
  }
  CheckGhost(core, ghost);
}

// ---------------------------------------------------------------------------
// BloomFilter

TEST(BloomFilterTest, MinimalCapacityWorks) {
  BloomFilter filter(1);
  EXPECT_FALSE(filter.MayContain(99));
  filter.Insert(99);
  EXPECT_TRUE(filter.MayContain(99));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(1000);
  std::vector<uint64_t> keys;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(rng.Next());
    filter.Insert(keys.back());
  }
  for (const uint64_t key : keys) {
    EXPECT_TRUE(filter.MayContain(key)) << "key " << key;
  }
}

TEST(BloomFilterTest, DuplicateInsertStillCountsInserted) {
  BloomFilter filter(16);
  filter.Insert(5);
  filter.Insert(5);
  EXPECT_EQ(filter.inserted(), 2u);
  EXPECT_TRUE(filter.MayContain(5));
}

TEST(BloomFilterTest, ClearForgetsEverything) {
  BloomFilter filter(64);
  for (uint64_t key = 0; key < 64; ++key) {
    filter.Insert(SplitMix64(key));
  }
  filter.Clear();
  EXPECT_EQ(filter.inserted(), 0u);
  int positives = 0;
  for (uint64_t key = 0; key < 64; ++key) {
    positives += filter.MayContain(SplitMix64(key)) ? 1 : 0;
  }
  EXPECT_EQ(positives, 0) << "a cleared filter has no set bits at all";
}

TEST(BloomFilterTest, FalsePositiveRateStaysBounded) {
  // Sized for 3% FPR at nominal load with k = 4 probes; assert a generous
  // 6% on disjoint probe keys so the test is insensitive to hash luck.
  constexpr int kItems = 5000;
  constexpr int kProbes = 20000;
  BloomFilter filter(kItems);
  for (uint64_t i = 0; i < kItems; ++i) {
    filter.Insert(SplitMix64(i));
  }
  int false_positives = 0;
  for (uint64_t i = 0; i < kProbes; ++i) {
    // Disjoint from the inserted universe by construction.
    if (filter.MayContain(SplitMix64(1'000'000 + i))) {
      ++false_positives;
    }
  }
  const double rate = static_cast<double>(false_positives) / kProbes;
  EXPECT_LT(rate, 0.06) << false_positives << " of " << kProbes;
  // And it is a real filter, not a tautology: some bits are actually set.
  EXPECT_EQ(filter.inserted(), static_cast<size_t>(kItems));
}

}  // namespace
}  // namespace qdlp
