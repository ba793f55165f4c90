#include "tables/buffer_btree_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "table_test_util.h"

namespace exthash::tables {
namespace {

using exthash::testing::CountingVisitor;
using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

TEST(BufferBTree, InsertLookupRoundTrip) {
  TestRig rig(16);
  BufferBTreeTable table(rig.context());
  const auto keys = distinctKeys(2000);
  for (std::size_t i = 0; i < keys.size(); ++i) table.insert(keys[i], i);
  EXPECT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]).value(), i) << "key index " << i;
  }
  EXPECT_FALSE(table.lookup(0xaaaULL << 40).has_value());
}

TEST(BufferBTree, SequentialAndReverseInsertion) {
  for (const bool reverse : {false, true}) {
    TestRig rig(16);
    BufferBTreeTable table(rig.context(), {3});
    std::vector<std::uint64_t> keys(800);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i * 5;
    if (reverse) std::reverse(keys.begin(), keys.end());
    for (const auto k : keys) table.insert(k, k + 1);
    for (const auto k : keys) {
      ASSERT_EQ(table.lookup(k).value(), k + 1) << "reverse=" << reverse;
    }
  }
}

TEST(BufferBTree, InsertsAreSubconstant) {
  // The whole point of the buffer tree [2]: o(1) amortized update I/Os,
  // versus ~3 for the plain B-tree at the same size.
  TestRig rig(256);
  BufferBTreeTable table(rig.context());
  const auto keys = distinctKeys(1 << 16);
  const extmem::IoProbe probe(*rig.device);
  for (const auto k : keys) table.insert(k, 1);
  const double tu = static_cast<double>(probe.cost()) /
                    static_cast<double>(keys.size());
  EXPECT_LT(tu, 0.5);
  EXPECT_GT(table.flushes(), 0u);
}

TEST(BufferBTree, LookupCostIsLogarithmic) {
  TestRig rig(64);
  BufferBTreeTable table(rig.context());
  const auto keys = distinctKeys(1 << 14);
  for (const auto k : keys) table.insert(k, 1);
  const extmem::IoProbe probe(*rig.device);
  const std::size_t samples = 512;
  for (std::size_t i = 0; i < samples; ++i) {
    ASSERT_TRUE(table.lookup(keys[i * 17]).has_value());
  }
  const double tq = static_cast<double>(probe.cost()) /
                    static_cast<double>(samples);
  // Height-1 reads, minus the fraction answered from shallow buffers.
  EXPECT_GT(tq, 1.0);
  EXPECT_LE(tq, static_cast<double>(table.height()));
}

TEST(BufferBTree, UpdatesOverrideViaMessages) {
  TestRig rig(8);
  BufferBTreeTable table(rig.context(), {3});
  const auto keys = distinctKeys(300);
  for (const auto k : keys) table.insert(k, 1);
  for (const auto k : keys) table.insert(k, 2);
  for (const auto k : keys) ASSERT_EQ(table.lookup(k).value(), 2u);
}

TEST(BufferBTree, EraseViaTombstoneMessages) {
  TestRig rig(8);
  BufferBTreeTable table(rig.context(), {3});
  const auto keys = distinctKeys(400);
  for (const auto k : keys) table.insert(k, 9);
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(table.erase(keys[i]));
    EXPECT_FALSE(table.erase(keys[i]));
  }
  EXPECT_EQ(table.size(), keys.size() / 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.lookup(keys[i]).has_value(), i % 2 == 1) << i;
  }
  // Erased keys can return.
  table.insert(keys[0], 42);
  EXPECT_EQ(table.lookup(keys[0]).value(), 42u);
}

TEST(BufferBTree, SkewedBatchesSplitSafely) {
  // Drive every key into a narrow range so one leaf absorbs whole batches
  // (the multi-way split path).
  TestRig rig(8);
  BufferBTreeTable table(rig.context(), {3});
  for (std::uint64_t k = 0; k < 600; ++k) table.insert(k, k);
  for (std::uint64_t k = 0; k < 600; ++k) {
    ASSERT_EQ(table.lookup(k).value(), k);
  }
}

// b = 8 gives fanout 2, so a memory-root split carves the root two
// children at a time, and batched flushes give it odd child counts too.
// The lone leftover child used to become an internal node without a
// pivot; the audit after every batch must now come back clean.
TEST(BufferBTree, MemoryRootSplitsLeaveNoPivotlessNode) {
  for (const std::size_t batch : {16, 32, 64, 128}) {
    TestRig rig(8);
    BufferBTreeTable table(rig.context());
    ASSERT_EQ(table.fanout(), 2u);
    const auto keys = distinctKeys(512);
    std::vector<Op> ops;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ops.push_back(Op::insertOp(keys[i], i + 1));
    }
    for (std::size_t off = 0; off < ops.size(); off += batch) {
      table.applyBatch(std::span<const Op>(ops).subspan(off, batch));
      AuditReport report;
      table.validateLayout(report);
      ASSERT_TRUE(report.ok())
          << "batch " << batch << " after " << off + batch << " ops\n"
          << report.summary();
    }
    EXPECT_GE(table.height(), 3u);  // the memory root did split
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(table.lookup(keys[i]), i + 1);
    }
  }
}

TEST(BufferBTree, VisitLayoutCoversAllKeys) {
  TestRig rig(8);
  BufferBTreeTable table(rig.context(), {3});
  const auto keys = distinctKeys(500);
  for (const auto k : keys) table.insert(k, 1);
  CountingVisitor visitor;
  table.visitLayout(visitor);
  std::unordered_set<std::uint64_t> seen(visitor.keys.begin(),
                                         visitor.keys.end());
  EXPECT_EQ(seen.size(), keys.size());
}

TEST(BufferBTree, NoBlockLeaks) {
  TestRig rig(8);
  {
    BufferBTreeTable table(rig.context(), {3});
    const auto keys = distinctKeys(1000);
    for (const auto k : keys) table.insert(k, 1);
    EXPECT_GT(rig.device->blocksInUse(), 0u);
  }
  EXPECT_EQ(rig.device->blocksInUse(), 0u);
}

TEST(BufferBTree, CheaperInsertsThanPlainBTreeSameQueriesOrder) {
  const auto keys = distinctKeys(1 << 14);
  double tu_buffered;
  {
    TestRig rig(64);
    BufferBTreeTable table(rig.context());
    const extmem::IoProbe probe(*rig.device);
    for (const auto k : keys) table.insert(k, 1);
    tu_buffered = static_cast<double>(probe.cost()) /
                  static_cast<double>(keys.size());
  }
  // The plain B-tree pays ~3 I/Os per insert at this size (root-only
  // memory, height 4); the buffered version must be several times cheaper
  // — at b=64 the fanout is only √64 = 8, so the constant is ~F/buffer
  // per level (~0.4 total), still a 7x improvement.
  EXPECT_LT(tu_buffered, 0.6);
}

}  // namespace
}  // namespace exthash::tables
