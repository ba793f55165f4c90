#include "tables/log_method_table.h"

#include <gtest/gtest.h>

#include <cmath>

#include "table_test_util.h"

namespace exthash::tables {
namespace {

using exthash::testing::CountingVisitor;
using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

TEST(LogMethod, InsertLookupRoundTrip) {
  TestRig rig(8);
  LogMethodTable table(rig.context(), {2, 16});
  const auto keys = distinctKeys(500);
  for (std::size_t i = 0; i < keys.size(); ++i) table.insert(keys[i], i);
  EXPECT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]).value(), i) << "key " << i;
  }
  EXPECT_FALSE(table.lookup(0xbeefULL << 32).has_value());
}

TEST(LogMethod, LevelCapacitiesAreGeometric) {
  TestRig rig(8);
  LogMethodTable table(rig.context(), {4, 10});
  EXPECT_EQ(table.levelCapacity(1), 40u);
  EXPECT_EQ(table.levelCapacity(2), 160u);
  EXPECT_EQ(table.levelCapacity(3), 640u);
}

TEST(LogMethod, LevelCountIsLogarithmic) {
  TestRig rig(8);
  LogMethodTable table(rig.context(), {2, 16});
  const std::size_t n = 2000;
  const auto keys = distinctKeys(n);
  for (const auto k : keys) table.insert(k, 1);
  const double expected_levels =
      std::log2(static_cast<double>(n) / 16.0);
  EXPECT_LE(table.nonemptyLevels(),
            static_cast<std::size_t>(expected_levels) + 2);
}

TEST(LogMethod, InsertIsSubconstant) {
  // Lemma 5: amortized O((γ/b)·log(n/m)) — far below 1 I/O per insert.
  TestRig rig(64);
  LogMethodTable table(rig.context(), {2, 128});
  const auto keys = distinctKeys(8192);
  const extmem::IoProbe probe(*rig.device);
  for (const auto k : keys) table.insert(k, 1);
  const double per_insert = static_cast<double>(probe.cost()) /
                            static_cast<double>(keys.size());
  EXPECT_LT(per_insert, 0.5);  // o(1), vs 1+ for the standard table
}

TEST(LogMethod, QueryCostIsAboutOnePerNonemptyLevel) {
  TestRig rig(16);
  LogMethodTable table(rig.context(), {2, 16});
  const auto keys = distinctKeys(1000);
  for (const auto k : keys) table.insert(k, 1);
  const std::size_t levels = table.nonemptyLevels();
  const extmem::IoProbe probe(*rig.device);
  for (const auto k : keys) ASSERT_TRUE(table.lookup(k).has_value());
  const double per_lookup = static_cast<double>(probe.cost()) /
                            static_cast<double>(keys.size());
  EXPECT_LE(per_lookup, static_cast<double>(levels) + 0.5);
  EXPECT_GE(per_lookup, 0.5);  // most items are NOT in memory
}

TEST(LogMethod, UpdateShadowsOlderVersion) {
  TestRig rig(4);
  LogMethodTable table(rig.context(), {2, 4});
  const auto keys = distinctKeys(64);
  for (const auto k : keys) table.insert(k, 1);
  // Re-insert with new values: newest version must win even though the old
  // copy still exists in a deeper level.
  for (const auto k : keys) table.insert(k, 2);
  for (const auto k : keys) {
    ASSERT_EQ(table.lookup(k).value(), 2u);
  }
}

TEST(LogMethod, EraseViaTombstones) {
  TestRig rig(4);
  LogMethodTable table(rig.context(), {2, 4});
  const auto keys = distinctKeys(100);
  for (const auto k : keys) table.insert(k, 9);
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(table.erase(keys[i]));
    EXPECT_FALSE(table.erase(keys[i]));  // second erase: already gone
  }
  EXPECT_EQ(table.size(), keys.size() / 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.lookup(keys[i]).has_value(), i % 2 == 1) << i;
  }
  // Erased keys can come back.
  table.insert(keys[0], 42);
  EXPECT_EQ(table.lookup(keys[0]).value(), 42u);
}

TEST(LogMethod, TombstonesDropAtDeepestMerge) {
  TestRig rig(4);
  LogMethodTable table(rig.context(), {2, 4});
  const auto keys = distinctKeys(40);
  for (const auto k : keys) table.insert(k, 1);
  for (const auto k : keys) table.erase(k);
  // Force enough churn to merge everything into the deepest level.
  const auto more = distinctKeys(200, /*seed=*/55);
  for (const auto k : more) table.insert(k, 1);
  // All original keys stay gone.
  for (const auto k : keys) EXPECT_FALSE(table.lookup(k).has_value());
  // And the structure holds exactly the live records (tombstones purged
  // from the deepest level): buffered records can exceed live count only
  // by shallow-level tombstones.
  EXPECT_GE(table.bufferedRecords(), table.size());
}

TEST(LogMethod, VisitLayoutSplitsMemoryAndDisk) {
  TestRig rig(8);
  LogMethodTable table(rig.context(), {2, 32});
  const auto keys = distinctKeys(200);
  for (const auto k : keys) table.insert(k, 1);
  CountingVisitor visitor;
  table.visitLayout(visitor);
  EXPECT_EQ(visitor.memory_items + visitor.disk_items, keys.size());
  EXPECT_GT(visitor.memory_items, 0u);   // H0 holds the newest items
  EXPECT_GT(visitor.disk_items, 100u);   // most items are on disk
}

TEST(LogMethod, DrainAllEmptiesAndYieldsEverything) {
  TestRig rig(8);
  LogMethodTable table(rig.context(), {2, 16});
  const auto keys = distinctKeys(300);
  for (std::size_t i = 0; i < keys.size(); ++i) table.insert(keys[i], i);
  auto cursor = table.drainAll();
  std::size_t count = 0;
  std::uint64_t prev_hash = 0;
  forEachRecord(*cursor, [&](const HashedRecord& r) {
    EXPECT_EQ(r.hash, (*rig.hash)(r.record.key));
    EXPECT_GE(r.hash, prev_hash);  // hash-ordered
    prev_hash = r.hash;
    ++count;
  });
  EXPECT_EQ(count, keys.size());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.bufferedRecords(), 0u);
  cursor.reset();  // frees drained level blocks
  // After the drain cursor is gone, the only allocation left is nothing:
  EXPECT_EQ(rig.device->blocksInUse(), 0u);
}

TEST(LogMethod, RejectsTombstoneSentinelValue) {
  TestRig rig(8);
  LogMethodTable table(rig.context(), {2, 8});
  EXPECT_THROW(table.insert(1, kTombstoneValue), CheckFailure);
}

TEST(LogMethod, GammaFourMergesLessOften) {
  TestRig rig2(16), rig4(16);
  LogMethodTable t2(rig2.context(), {2, 16});
  LogMethodTable t4(rig4.context(), {4, 16});
  const auto keys = distinctKeys(2000);
  for (const auto k : keys) {
    t2.insert(k, 1);
    t4.insert(k, 1);
  }
  EXPECT_LE(t4.nonemptyLevels(), t2.nonemptyLevels());
  for (const auto k : keys) {
    ASSERT_TRUE(t2.lookup(k).has_value());
    ASSERT_TRUE(t4.lookup(k).has_value());
  }
}

}  // namespace
}  // namespace exthash::tables
