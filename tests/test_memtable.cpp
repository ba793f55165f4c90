#include "extmem/memtable.h"

#include <gtest/gtest.h>

#include <set>

#include "util/random.h"

namespace exthash::extmem {
namespace {

TEST(MemTable, InsertFindEraseRoundTrip) {
  MemoryBudget budget(0);
  MemTable mt(budget, 100);
  EXPECT_TRUE(mt.insertOrAssign(1, 10));
  EXPECT_TRUE(mt.insertOrAssign(2, 20));
  EXPECT_EQ(mt.size(), 2u);
  EXPECT_EQ(mt.find(1).value(), 10u);
  EXPECT_FALSE(mt.find(3).has_value());
  EXPECT_TRUE(mt.erase(1));
  EXPECT_FALSE(mt.erase(1));
  EXPECT_EQ(mt.size(), 1u);
  EXPECT_FALSE(mt.find(1).has_value());
}

TEST(MemTable, UpdateInPlaceDoesNotGrow) {
  MemoryBudget budget(0);
  MemTable mt(budget, 10);
  mt.insertOrAssign(7, 1);
  mt.insertOrAssign(7, 2);
  EXPECT_EQ(mt.size(), 1u);
  EXPECT_EQ(mt.find(7).value(), 2u);
}

TEST(MemTable, RefusesBeyondCapacity) {
  MemoryBudget budget(0);
  MemTable mt(budget, 4);
  for (std::uint64_t k = 0; k < 4; ++k)
    EXPECT_TRUE(mt.insertOrAssign(k, k));
  EXPECT_TRUE(mt.full());
  EXPECT_FALSE(mt.insertOrAssign(99, 99));
  EXPECT_TRUE(mt.insertOrAssign(2, 22));  // update still allowed when full
}

TEST(MemTable, ChargesBudgetAndReleases) {
  MemoryBudget budget(0);
  {
    MemTable mt(budget, 64);
    EXPECT_GT(budget.used(), 2u * 64u);  // slots cost at least 2 words each
    EXPECT_EQ(budget.used(), mt.memoryWords());
  }
  EXPECT_EQ(budget.used(), 0u);
}

TEST(MemTable, BudgetLimitEnforced) {
  MemoryBudget budget(16);  // far too small for 1024 items
  EXPECT_THROW(MemTable(budget, 1024), BudgetExceeded);
}

TEST(MemTable, TombstoneSlotsAreReusable) {
  MemoryBudget budget(0);
  MemTable mt(budget, 4);
  for (std::uint64_t k = 0; k < 4; ++k) mt.insertOrAssign(k, k);
  mt.erase(1);
  mt.erase(3);
  EXPECT_TRUE(mt.insertOrAssign(100, 1));
  EXPECT_TRUE(mt.insertOrAssign(101, 1));
  EXPECT_EQ(mt.size(), 4u);
  EXPECT_TRUE(mt.find(100).has_value());
  EXPECT_TRUE(mt.find(0).has_value());
}

TEST(MemTable, ZeroKeyAndMaxKeyWork) {
  MemoryBudget budget(0);
  MemTable mt(budget, 8);
  const std::uint64_t max_key = ~std::uint64_t{0};
  EXPECT_TRUE(mt.insertOrAssign(0, 111));
  EXPECT_TRUE(mt.insertOrAssign(max_key, 222));
  EXPECT_EQ(mt.find(0).value(), 111u);
  EXPECT_EQ(mt.find(max_key).value(), 222u);
}

TEST(MemTable, DrainSortedReturnsAllAndEmpties) {
  MemoryBudget budget(0);
  MemTable mt(budget, 100);
  std::set<std::uint64_t> keys;
  SplitMix64 rng(9);
  for (int i = 0; i < 80; ++i) {
    const std::uint64_t k = rng();
    keys.insert(k);
    mt.insertOrAssign(k, k + 1);
  }
  auto drained = mt.drainSorted([](std::uint64_t k) { return k; });
  EXPECT_EQ(drained.size(), keys.size());
  EXPECT_EQ(mt.size(), 0u);
  for (std::size_t i = 1; i < drained.size(); ++i) {
    EXPECT_LT(drained[i - 1].record.key, drained[i].record.key);
  }
  for (const auto& r : drained) {
    EXPECT_EQ(r.hash, r.record.key);  // tagged with its order value
    EXPECT_TRUE(keys.contains(r.record.key));
    EXPECT_EQ(r.record.value, r.record.key + 1);
  }
}

TEST(MemTable, HeavyChurnStaysConsistent) {
  MemoryBudget budget(0);
  MemTable mt(budget, 32);
  Xoshiro256StarStar rng(77);
  std::set<std::uint64_t> reference;
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t k = rng.below(64);
    if (rng.below(2) == 0 && !mt.full()) {
      if (mt.insertOrAssign(k, k)) reference.insert(k);
    } else {
      const bool erased = mt.erase(k);
      EXPECT_EQ(erased, reference.erase(k) > 0);
    }
  }
  EXPECT_EQ(mt.size(), reference.size());
  for (const std::uint64_t k : reference) {
    EXPECT_TRUE(mt.find(k).has_value());
  }
}

}  // namespace
}  // namespace exthash::extmem
