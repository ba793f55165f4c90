#include "tables/chaining_table.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "table_test_util.h"
#include "tables/cursor.h"

namespace exthash::tables {
namespace {

using exthash::testing::CountingVisitor;
using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

TEST(Chaining, InsertLookupRoundTrip) {
  TestRig rig(/*b=*/8);
  ChainingHashTable table(rig.context(), {16, BucketIndexer{}});
  const auto keys = distinctKeys(64);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(table.insert(keys[i], i));
  }
  EXPECT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]).value(), i);
  }
  EXPECT_FALSE(table.lookup(0xdeadULL << 32).has_value());
}

TEST(Chaining, UpdateInPlace) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {4, BucketIndexer{}});
  EXPECT_TRUE(table.insert(5, 50));
  EXPECT_FALSE(table.insert(5, 51));  // update, not a new key
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(5).value(), 51u);
}

TEST(Chaining, SingleBlockInsertCostsOneIo) {
  TestRig rig(64);
  ChainingHashTable table(rig.context(), {32, BucketIndexer{}});
  const auto keys = distinctKeys(256);  // load 1/8: chains are one block
  for (const auto k : keys) table.insert(k, 1);
  // Amortized insert cost must be ~1 rmw: allow a tiny overflow allowance.
  const double per_insert =
      static_cast<double>(rig.cost()) / static_cast<double>(keys.size());
  EXPECT_GE(per_insert, 1.0);
  EXPECT_LT(per_insert, 1.05);
}

TEST(Chaining, SuccessfulLookupNearOneIo) {
  TestRig rig(64);
  ChainingHashTable table(rig.context(), {32, BucketIndexer{}});
  const auto keys = distinctKeys(1024);  // load 1/2
  for (const auto k : keys) table.insert(k, 1);
  const extmem::IoProbe probe(*rig.device);
  for (const auto k : keys) ASSERT_TRUE(table.lookup(k).has_value());
  const double per_lookup = static_cast<double>(probe.cost()) /
                            static_cast<double>(keys.size());
  EXPECT_GE(per_lookup, 1.0);
  EXPECT_LT(per_lookup, 1.02);  // 1 + 1/2^Ω(b) with b=64
}

TEST(Chaining, OverflowChainsWork) {
  TestRig rig(4);
  // One bucket: everything chains.
  ChainingHashTable table(rig.context(), {1, BucketIndexer{}});
  const auto keys = distinctKeys(40);
  for (std::size_t i = 0; i < keys.size(); ++i) table.insert(keys[i], i);
  EXPECT_EQ(table.overflowBlocks(), 40u / 4 - 1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]).value(), i);
  }
}

TEST(Chaining, EraseRemovesAndCompactsChain) {
  TestRig rig(4);
  ChainingHashTable table(rig.context(), {1, BucketIndexer{}});
  const auto keys = distinctKeys(12);  // 3 blocks of 4
  for (const auto k : keys) table.insert(k, 7);
  EXPECT_EQ(table.overflowBlocks(), 2u);
  for (const auto k : keys) EXPECT_TRUE(table.erase(k));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.overflowBlocks(), 0u);  // empty overflow blocks unlinked
  for (const auto k : keys) EXPECT_FALSE(table.erase(k));
}

TEST(Chaining, EraseThenReinsert) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {4, BucketIndexer{}});
  const auto keys = distinctKeys(20);
  for (const auto k : keys) table.insert(k, 1);
  for (std::size_t i = 0; i < keys.size(); i += 2) table.erase(keys[i]);
  for (std::size_t i = 0; i < keys.size(); i += 2) table.insert(keys[i], 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]).value(), i % 2 == 0 ? 2u : 1u);
  }
}

TEST(Chaining, VisitLayoutSeesEverythingOnce) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {8, BucketIndexer{}});
  const auto keys = distinctKeys(100);
  for (const auto k : keys) table.insert(k, 1);
  CountingVisitor visitor;
  table.visitLayout(visitor);
  EXPECT_EQ(visitor.disk_items, 100u);
  EXPECT_EQ(visitor.memory_items, 0u);
}

TEST(Chaining, PrimaryBlockMatchesLayout) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {8, BucketIndexer{}});
  const auto keys = distinctKeys(30);  // low load: everything in primary
  for (const auto k : keys) table.insert(k, 1);
  for (const auto k : keys) {
    const auto primary = table.primaryBlockOf(k);
    ASSERT_TRUE(primary.has_value());
    const extmem::ConstBucketPage page(rig.device->inspect(*primary));
    // At load << 1, the item should be in its primary block.
    EXPECT_TRUE(page.indexOf(k).has_value());
  }
}

TEST(Chaining, ScanInHashOrderIsSortedAndComplete) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {16, BucketIndexer{}});
  const auto keys = distinctKeys(200);
  for (std::size_t i = 0; i < keys.size(); ++i) table.insert(keys[i], i);
  auto cursor = table.scanInHashOrder();
  std::uint64_t prev_hash = 0;
  std::size_t count = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> seen;
  forEachRecord(*cursor, [&](const HashedRecord& r) {
    EXPECT_EQ(r.hash, (*rig.hash)(r.record.key));
    EXPECT_GE(r.hash, prev_hash);
    prev_hash = r.hash;
    seen[r.record.key] = r.record.value;
    ++count;
  });
  EXPECT_EQ(count, keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(seen.at(keys[i]), i);
  }
}

TEST(Chaining, BuildFromSortedMatchesIncremental) {
  TestRig rig(8);
  auto ctx = rig.context();
  ChainingHashTable source(ctx, {16, BucketIndexer{}});
  const auto keys = distinctKeys(150);
  for (std::size_t i = 0; i < keys.size(); ++i) source.insert(keys[i], i);

  auto cursor = source.scanInHashOrder();
  auto built = ChainingHashTable::buildFromSorted(
      ctx, {32, BucketIndexer{}}, *cursor);
  EXPECT_EQ(built->size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(built->lookup(keys[i]).value(), i);
  }
}

TEST(Chaining, BuildFromSortedCostsOneWritePerNonemptyBlock) {
  TestRig rig(16);
  auto ctx = rig.context();
  ChainingHashTable source(ctx, {8, BucketIndexer{}});
  const auto keys = distinctKeys(64);
  for (const auto k : keys) source.insert(k, 1);

  auto cursor = source.scanInHashOrder();
  const extmem::IoProbe probe(*rig.device);
  auto built = ChainingHashTable::buildFromSorted(
      ctx, {8, BucketIndexer{}}, *cursor);
  // Reads: one per source block; writes: one per nonempty destination
  // block; no rmws at all on the build side.
  EXPECT_LE(probe.writes(), 8u + source.overflowBlocks() + 2);
  EXPECT_EQ(probe.rmws(), 0u);
}

TEST(Chaining, BuildRejectsNonMonotoneIndexer) {
  TestRig rig(8);
  auto ctx = rig.context();
  VectorCursor cursor({});
  EXPECT_THROW(ChainingHashTable::buildFromSorted(
                   ctx, {4, BucketIndexer{IndexKind::kMod, 1.0}}, cursor),
               CheckFailure);
}

// The two Release checks of the bulk build: every carried hash must be
// h(key), and the stream must not go backwards.
TEST(Chaining, BuildRejectsWrongCarriedHashOrOrder) {
  TestRig rig(8);
  auto ctx = rig.context();
  const std::vector<Record> records{{1, 10}, {2, 20}, {3, 30}};
  const auto sorted = sortByHash(records, *rig.hash);

  auto wrong = sorted;
  wrong[1].hash = wrong[0].hash;  // still ordered, but not h(key)
  VectorCursor wrong_cursor(std::move(wrong));
  EXPECT_THROW(ChainingHashTable::buildFromSorted(ctx, {4, BucketIndexer{}},
                                                  wrong_cursor),
               CheckFailure);

  auto backwards = sorted;
  std::swap(backwards[0], backwards[2]);
  VectorCursor backwards_cursor(std::move(backwards));
  EXPECT_THROW(ChainingHashTable::buildFromSorted(ctx, {4, BucketIndexer{}},
                                                  backwards_cursor),
               CheckFailure);
}

TEST(Chaining, DestroyReleasesAllBlocks) {
  TestRig rig(4);
  auto ctx = rig.context();
  {
    ChainingHashTable table(ctx, {4, BucketIndexer{}});
    const auto keys = distinctKeys(64);
    for (const auto k : keys) table.insert(k, 1);
    EXPECT_GT(rig.device->blocksInUse(), 0u);
    table.destroy();
    EXPECT_EQ(rig.device->blocksInUse(), 0u);
  }
  EXPECT_EQ(rig.device->blocksInUse(), 0u);  // destructor after destroy: ok
}

TEST(Chaining, ModIndexerWorksForPointOps) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(),
                          {13, BucketIndexer{IndexKind::kMod, 1.0}});
  const auto keys = distinctKeys(80);
  for (std::size_t i = 0; i < keys.size(); ++i) table.insert(keys[i], i);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]).value(), i);
  }
}

TEST(Chaining, MemoryFootprintIsConstant) {
  // The address function must be computable with O(1) words: a big table
  // must not charge more memory than a small one.
  TestRig small_rig(8, /*memory_words=*/4096);
  TestRig big_rig(8, /*memory_words=*/4096);
  ChainingHashTable small(small_rig.context(), {4, BucketIndexer{}});
  ChainingHashTable big(big_rig.context(), {4096, BucketIndexer{}});
  EXPECT_EQ(small_rig.memory->used(), big_rig.memory->used());
  EXPECT_LE(big_rig.memory->used(), 16u);
}

}  // namespace
}  // namespace exthash::tables
