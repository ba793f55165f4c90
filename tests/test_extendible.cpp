#include "tables/extendible_table.h"

#include <gtest/gtest.h>

#include "table_test_util.h"

namespace exthash::tables {
namespace {

using exthash::testing::CountingVisitor;
using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

TEST(Extendible, InsertLookupRoundTrip) {
  TestRig rig(4);
  ExtendibleHashTable table(rig.context(), {});
  const auto keys = distinctKeys(200);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(table.insert(keys[i], i));
  }
  EXPECT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]).value(), i);
  }
  EXPECT_FALSE(table.lookup(0x1234ULL << 40).has_value());
}

TEST(Extendible, DirectoryGrowsWithData) {
  TestRig rig(4);
  ExtendibleHashTable table(rig.context(), {});
  EXPECT_EQ(table.globalDepth(), 0u);
  const auto keys = distinctKeys(500);
  for (const auto k : keys) table.insert(k, 1);
  EXPECT_GT(table.globalDepth(), 4u);
  EXPECT_EQ(table.directorySize(), std::size_t{1} << table.globalDepth());
  // Load factor of extendible hashing converges to ~ln 2 ≈ 0.69.
  EXPECT_GT(table.loadFactor(), 0.4);
  EXPECT_LT(table.loadFactor(), 0.95);
}

TEST(Extendible, LookupIsExactlyOneIo) {
  TestRig rig(8);
  ExtendibleHashTable table(rig.context(), {});
  const auto keys = distinctKeys(300);
  for (const auto k : keys) table.insert(k, 1);
  const extmem::IoProbe probe(*rig.device);
  for (const auto k : keys) ASSERT_TRUE(table.lookup(k).has_value());
  EXPECT_EQ(probe.cost(), keys.size());  // exactly one read per lookup
}

TEST(Extendible, InsertAmortizedNearOneIo) {
  TestRig rig(64);
  ExtendibleHashTable table(rig.context(), {});
  const auto keys = distinctKeys(4096);
  const extmem::IoProbe probe(*rig.device);
  for (const auto k : keys) table.insert(k, 1);
  const double per_insert = static_cast<double>(probe.cost()) /
                            static_cast<double>(keys.size());
  // 1 rmw + O(1/b) split amortization.
  EXPECT_LT(per_insert, 1.15);
}

TEST(Extendible, UpdateInPlace) {
  TestRig rig(4);
  ExtendibleHashTable table(rig.context(), {});
  EXPECT_TRUE(table.insert(3, 30));
  EXPECT_FALSE(table.insert(3, 31));
  EXPECT_EQ(table.lookup(3).value(), 31u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(Extendible, EraseWorks) {
  TestRig rig(4);
  ExtendibleHashTable table(rig.context(), {});
  const auto keys = distinctKeys(100);
  for (const auto k : keys) table.insert(k, 1);
  for (std::size_t i = 0; i < keys.size(); i += 3) {
    EXPECT_TRUE(table.erase(keys[i]));
    EXPECT_FALSE(table.erase(keys[i]));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.lookup(keys[i]).has_value(), i % 3 != 0);
  }
}

TEST(Extendible, DirectoryChargesMemory) {
  TestRig rig(4, /*memory_words=*/1 << 20);
  ExtendibleHashTable table(rig.context(), {});
  const std::size_t before = rig.memory->used();
  const auto keys = distinctKeys(2000);
  for (const auto k : keys) table.insert(k, 1);
  // Directory doubled several times; the budget must reflect that.
  EXPECT_GE(rig.memory->used(), before + table.directorySize() - 1);
}

TEST(Extendible, TinyMemoryBudgetFailsLoudly) {
  TestRig rig(4, /*memory_words=*/64);
  ExtendibleHashTable table(rig.context(), {});
  const auto keys = distinctKeys(5000);
  bool threw = false;
  try {
    for (const auto k : keys) table.insert(k, 1);
  } catch (const extmem::BudgetExceeded&) {
    threw = true;  // directory outgrew the budget: correct behavior
  }
  EXPECT_TRUE(threw);
}

TEST(Extendible, VisitLayoutCountsEachItemOnce) {
  TestRig rig(4);
  ExtendibleHashTable table(rig.context(), {});
  const auto keys = distinctKeys(150);
  for (const auto k : keys) table.insert(k, 1);
  CountingVisitor visitor;
  table.visitLayout(visitor);
  EXPECT_EQ(visitor.disk_items, keys.size());
}

TEST(Extendible, PrimaryBlockIsTheOnlyBlock) {
  TestRig rig(4);
  ExtendibleHashTable table(rig.context(), {});
  const auto keys = distinctKeys(120);
  for (const auto k : keys) table.insert(k, 1);
  for (const auto k : keys) {
    const auto primary = table.primaryBlockOf(k);
    ASSERT_TRUE(primary.has_value());
    const extmem::ConstBucketPage page(rig.device->inspect(*primary));
    EXPECT_TRUE(page.indexOf(k).has_value());  // always fast zone
  }
}

TEST(Extendible, InitialDepthRespected) {
  TestRig rig(4);
  ExtendibleHashTable table(rig.context(), {3});
  EXPECT_EQ(table.globalDepth(), 3u);
  EXPECT_EQ(table.directorySize(), 8u);
  const auto keys = distinctKeys(50);
  for (std::size_t i = 0; i < keys.size(); ++i) table.insert(keys[i], i);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]).value(), i);
  }
}

}  // namespace
}  // namespace exthash::tables
