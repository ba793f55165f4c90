#include "extmem/block_cache.h"

#include <gtest/gtest.h>

namespace exthash::extmem {
namespace {

TEST(BlockCache, HitsAreFree) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 4);
  const BlockId id = dev.allocate();
  dev.withWrite(id, [](std::span<Word> d) { d[2] = 5; });
  const auto before = dev.stats().cost();

  cache.withRead(id, [](std::span<const Word> d) { EXPECT_EQ(d[2], 5u); });
  EXPECT_EQ(dev.stats().cost(), before + 1);  // miss
  cache.withRead(id, [](std::span<const Word> d) { EXPECT_EQ(d[2], 5u); });
  EXPECT_EQ(dev.stats().cost(), before + 1);  // hit: free
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCache, EvictsLeastRecentlyUsed) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2);
  const BlockId a = dev.allocate();
  const BlockId b = dev.allocate();
  const BlockId c = dev.allocate();
  cache.withRead(a, [](std::span<const Word>) {});
  cache.withRead(b, [](std::span<const Word>) {});
  cache.withRead(a, [](std::span<const Word>) {});  // a is now MRU
  cache.withRead(c, [](std::span<const Word>) {});  // evicts b
  const auto misses = cache.misses();
  cache.withRead(b, [](std::span<const Word>) {});  // must miss again
  EXPECT_EQ(cache.misses(), misses + 1);
  cache.withRead(a, [](std::span<const Word>) {});  // a must still...
  EXPECT_EQ(cache.misses(), misses + 2);  // a was evicted by b's refill
}

TEST(BlockCache, WriteThroughUpdatesDeviceImmediately) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteThrough);
  const BlockId id = dev.allocate();
  cache.withRead(id, [](std::span<const Word>) {});  // populate frame
  cache.withWrite(id, [](std::span<Word> d) { d[0] = 9; });
  dev.withRead(id, [](std::span<const Word> d) { EXPECT_EQ(d[0], 9u); });
  // And the cached copy was refreshed:
  cache.withRead(id, [](std::span<const Word> d) { EXPECT_EQ(d[0], 9u); });
}

TEST(BlockCache, WriteBackDefersUntilFlush) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteBack);
  const BlockId id = dev.allocate();
  cache.withWrite(id, [](std::span<Word> d) { d[0] = 7; });
  dev.inspect(id);  // device still zero
  EXPECT_EQ(dev.inspect(id)[0], 0u);
  const auto writes_before = dev.stats().writes;
  cache.flush();
  EXPECT_EQ(dev.stats().writes, writes_before + 1);
  EXPECT_EQ(dev.inspect(id)[0], 7u);
}

TEST(BlockCache, WriteBackFlushesOnEviction) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 1, BlockCache::WritePolicy::kWriteBack);
  const BlockId a = dev.allocate();
  const BlockId b = dev.allocate();
  cache.withWrite(a, [](std::span<Word> d) { d[0] = 1; });
  cache.withRead(b, [](std::span<const Word>) {});  // evicts dirty a
  EXPECT_EQ(dev.inspect(a)[0], 1u);
}

TEST(BlockCache, ChargesMemoryBudget) {
  BlockDevice dev(16);
  MemoryBudget budget(100);
  {
    BlockCache cache(dev, budget, 5);
    EXPECT_EQ(budget.used(), 5u * 16u);
  }
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_THROW(BlockCache(dev, budget, 7), BudgetExceeded);
}

TEST(BlockCache, InvalidateDropsFrame) {
  BlockDevice dev(8);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteBack);
  const BlockId id = dev.allocate();
  cache.withWrite(id, [](std::span<Word> d) { d[0] = 3; });
  cache.invalidate(id);
  EXPECT_EQ(cache.residentBlocks(), 0u);
  cache.flush();
  EXPECT_EQ(dev.inspect(id)[0], 0u);  // dropped write never landed
}

// discardAll() under a pin must reject the call before touching anything:
// a half-torn cache would leave the policy and the frames disagreeing.
TEST(BlockCache, DiscardAllWithAPinnedFrameChangesNothing) {
  for (std::size_t pinned = 0; pinned < 4; ++pinned) {
    BlockDevice dev(8);
    MemoryBudget budget(0);
    BlockCache cache(dev, budget, 4, BlockCache::WritePolicy::kWriteBack,
                     ReplacementKind::kLru);
    std::vector<BlockId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(dev.allocate());
      cache.withWrite(ids.back(), [&](std::span<Word> d) { d[0] = 10 + i; });
    }
    cache.withRead(ids[pinned], [&](std::span<const Word>) {
      EXPECT_THROW(cache.discardAll(), CheckFailure) << "pinned " << pinned;
    });
    AuditReport report;
    cache.audit(report);
    EXPECT_TRUE(report.ok()) << "pinned " << pinned << ": "
                             << report.summary();
    EXPECT_EQ(cache.residentBlocks(), 4u);
    EXPECT_EQ(cache.dirtyBlocks(), 4u);
    for (int i = 0; i < 4; ++i) {
      cache.withRead(ids[i], [&](std::span<const Word> d) {
        EXPECT_EQ(d[0], static_cast<Word>(10 + i));
      });
    }
    EXPECT_EQ(cache.misses(), 4u);
  }
}

}  // namespace
}  // namespace exthash::extmem
