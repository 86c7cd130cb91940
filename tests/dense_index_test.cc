// DenseIndex: the direct-indexed slot array behind the dense-id fast path.
// Unit tests pin the FlatMap-compatible API contract; the property test
// runs randomized op sequences against FlatMap as the reference model so
// the two backings are interchangeable under the policy templates.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/util/dense_index.h"
#include "src/util/flat_map.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

TEST(DenseIndexTest, StartsEmpty) {
  DenseIndex<int> index(64);
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.Contains(0));
  EXPECT_EQ(index.Find(42), nullptr);
  index.CheckInvariants();
}

TEST(DenseIndexTest, ZeroUniverseHoldsNothing) {
  DenseIndex<int> index(0);
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.Contains(0));
  index.Prefetch(7);  // out-of-universe prefetch must be a safe no-op
  index.CheckInvariants();
}

TEST(DenseIndexTest, InsertFindErase) {
  DenseIndex<int> index(16);
  index[7] = 70;
  index[8] = 80;
  EXPECT_EQ(index.size(), 2u);
  ASSERT_NE(index.Find(7), nullptr);
  EXPECT_EQ(*index.Find(7), 70);
  EXPECT_EQ(*index.Find(8), 80);
  EXPECT_TRUE(index.Erase(7));
  EXPECT_FALSE(index.Erase(7));  // already gone
  EXPECT_EQ(index.Find(7), nullptr);
  EXPECT_EQ(index.size(), 1u);
  index.CheckInvariants();
}

// The policies' id -> slot table: ~0u is the absent mark, so a slot is
// four bytes and every other value, zero included, round-trips.
TEST(DenseIndexTest, Uint32SlotsReserveOnlyAllOnes) {
  DenseIndex<uint32_t> index(8);
  EXPECT_EQ(index.MemoryBytes(), 8 * sizeof(uint32_t));
  const auto [zero, inserted] = index.Emplace(3);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*zero, 0u);  // default constructed, and present
  EXPECT_TRUE(index.Contains(3));
  index[5] = ~uint32_t{0} - 1;
  EXPECT_EQ(*index.Find(5), ~uint32_t{0} - 1);
  uint32_t erased = 0;
  EXPECT_TRUE(index.Erase(5, &erased));
  EXPECT_EQ(erased, ~uint32_t{0} - 1);
  EXPECT_FALSE(index.Contains(5));
  EXPECT_EQ(index.size(), 1u);
  index.CheckInvariants();
}

TEST(DenseIndexTest, EmplaceReportsInsertion) {
  DenseIndex<int> index(8);
  auto [first, inserted_first] = index.Emplace(3);
  EXPECT_TRUE(inserted_first);
  *first = 33;
  auto [second, inserted_second] = index.Emplace(3);
  EXPECT_FALSE(inserted_second);
  EXPECT_EQ(second, first);  // slots never move
  EXPECT_EQ(*second, 33);
}

TEST(DenseIndexTest, EraseResetsValueForReinsert) {
  DenseIndex<int> index(4);
  index[2] = 99;
  index.Erase(2);
  auto [value, inserted] = index.Emplace(2);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 0);  // default-constructed, not the stale 99
}

TEST(DenseIndexTest, ForEachVisitsInIdOrder) {
  DenseIndex<int> index(32);
  index[9] = 90;
  index[1] = 10;
  index[20] = 200;
  std::vector<uint64_t> keys;
  index.ForEach([&](uint64_t key, const int& value) {
    keys.push_back(key);
    EXPECT_EQ(value, static_cast<int>(key * 10));
  });
  EXPECT_EQ(keys, (std::vector<uint64_t>{1, 9, 20}));
}

TEST(DenseIndexTest, ClearEmptiesEverything) {
  DenseIndex<int> index(16);
  for (uint64_t key = 0; key < 16; ++key) {
    index[key] = 1;
  }
  index.Clear();
  EXPECT_TRUE(index.empty());
  for (uint64_t key = 0; key < 16; ++key) {
    EXPECT_FALSE(index.Contains(key));
  }
  index.CheckInvariants();
}

TEST(DenseIndexTest, FactoryBuildsConfiguredUniverse) {
  DenseIndexFactory factory{100};
  auto index = factory.Make<uint32_t>();
  index[99] = 1;
  EXPECT_TRUE(index.Contains(99));
  EXPECT_FALSE(index.Contains(100));  // outside the universe
}

// Randomized differential against FlatMap: any op sequence over a dense key
// space must be observationally identical between the two backings.
TEST(DenseIndexTest, MatchesFlatMapOnRandomOps) {
  constexpr uint64_t kUniverse = 512;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    DenseIndex<uint64_t> dense(kUniverse);
    FlatMap<uint64_t> flat;
    for (int op = 0; op < 50000; ++op) {
      const uint64_t key = rng.NextBounded(kUniverse);
      const uint64_t choice = rng.NextBounded(100);
      if (choice < 50) {  // insert / overwrite
        const uint64_t value = rng.Next();
        dense[key] = value;
        flat[key] = value;
      } else if (choice < 80) {  // erase
        EXPECT_EQ(dense.Erase(key), flat.Erase(key)) << "key " << key;
      } else {  // lookup
        const uint64_t* dense_found = dense.Find(key);
        const uint64_t* flat_found = flat.Find(key);
        ASSERT_EQ(dense_found == nullptr, flat_found == nullptr)
            << "key " << key;
        if (dense_found != nullptr) {
          EXPECT_EQ(*dense_found, *flat_found);
        }
      }
      EXPECT_EQ(dense.size(), flat.size());
      if (op % 1024 == 0) {
        dense.CheckInvariants();
      }
    }
    dense.CheckInvariants();
    size_t visited = 0;
    dense.ForEach([&](uint64_t key, const uint64_t& value) {
      ++visited;
      const uint64_t* reference = flat.Find(key);
      ASSERT_NE(reference, nullptr) << "phantom key " << key;
      EXPECT_EQ(value, *reference);
    });
    EXPECT_EQ(visited, flat.size());
  }
}

}  // namespace
}  // namespace qdlp
