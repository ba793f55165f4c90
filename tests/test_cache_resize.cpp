// BlockCache::resize edge cases — the memory arbiter's lever. Shrink must
// flush-and-evict the coldest tail while honoring pins and dirty frames;
// shrink-to-zero must release ghost charges; grow/shrink oscillation must
// stay coherent under every replacement policy; and a squeezed cache with
// an arbitration ghost horizon must keep producing growth signals.
#include <gtest/gtest.h>

#include <vector>

#include "extmem/block_cache.h"
#include "extmem/cached_io.h"
#include "table_test_util.h"

namespace exthash::extmem {
namespace {

using exthash::testing::TestRig;

std::vector<BlockId> allocBlocks(TestRig& rig, std::size_t n) {
  std::vector<BlockId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(rig.device->allocate());
  return ids;
}

TEST(CacheResize, ShrinkFlushesAndEvictsColdTail) {
  TestRig rig(8);
  const auto ids = allocBlocks(rig, 8);
  BlockCache cache(*rig.device, *rig.memory, 8,
                   BlockCache::WritePolicy::kWriteBack);
  CachedBlockIo io(*rig.device, &cache);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    io.withOverwrite(ids[i], [&](std::span<Word> data) {
      data[0] = 100 + i;
    });
  }
  ASSERT_EQ(cache.residentBlocks(), 8u);
  ASSERT_EQ(cache.dirtyBlocks(), 8u);

  const auto before = rig.device->stats();
  cache.resize(2);
  EXPECT_EQ(cache.capacityBlocks(), 2u);
  EXPECT_EQ(cache.residentBlocks(), 2u);
  // Every evicted dirty frame reached the device as one counted write.
  EXPECT_EQ((rig.device->stats() - before).writes, 6u);
  EXPECT_EQ(cache.writebacks(), 6u);
  // The evicted blocks' data survived; the still-resident (dirty) tail is
  // served coherently from the cache.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    io.withRead(ids[i], [&](std::span<const Word> data) {
      EXPECT_EQ(data[0], 100 + i);
    });
  }
}

TEST(CacheResize, GrowAdmitsLazilyAndRaisesCharge) {
  TestRig rig(8);
  const auto ids = allocBlocks(rig, 6);
  const std::size_t wpb = rig.device->wordsPerBlock();
  BlockCache cache(*rig.device, *rig.memory, 2);
  CachedBlockIo io(*rig.device, &cache);
  for (const BlockId id : ids) {
    io.withRead(id, [](std::span<const Word>) {});
  }
  EXPECT_EQ(cache.residentBlocks(), 2u);
  const std::size_t used_small = rig.memory->used();

  cache.resize(6);
  EXPECT_EQ(cache.capacityBlocks(), 6u);
  EXPECT_EQ(cache.residentBlocks(), 2u);  // frames fill on future misses
  EXPECT_GE(rig.memory->used(), used_small + 4 * wpb);
  for (const BlockId id : ids) {
    io.withRead(id, [](std::span<const Word>) {});
  }
  EXPECT_EQ(cache.residentBlocks(), 6u);
}

TEST(CacheResize, ShrinkBelowPinnedAndDirtyCount) {
  TestRig rig(8);
  const auto ids = allocBlocks(rig, 4);
  BlockCache cache(*rig.device, *rig.memory, 4,
                   BlockCache::WritePolicy::kWriteBack);
  CachedBlockIo io(*rig.device, &cache);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    io.withWrite(ids[i], [&](std::span<Word> data) { data[0] = 7 + i; });
  }
  ASSERT_EQ(cache.dirtyBlocks(), 4u);

  // Shrink to 1 while a span into ids[0] is live: the pinned frame must
  // survive (over capacity), every other dirty frame is written back.
  io.withWrite(ids[0], [&](std::span<Word> data) {
    cache.resize(1);
    EXPECT_EQ(cache.capacityBlocks(), 1u);
    EXPECT_EQ(cache.residentBlocks(), 1u);
    EXPECT_EQ(data[0], 7u);  // the pinned span stayed valid
    data[0] = 77;
  });
  EXPECT_EQ(cache.writebacks(), 3u);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(rig.device->inspect(ids[i])[0], 7 + i);
  }
  // The surviving frame still buffers the newest write until a flush.
  EXPECT_EQ(cache.dirtyBlocks(), 1u);
  cache.flush();
  EXPECT_EQ(rig.device->inspect(ids[0])[0], 77u);
}

// With 64 KiB blocks each slab chunk holds one frame, so a shrink frees
// the chunks above the new capacity and first moves the frames living
// there. Contents, dirtiness and residency survive the move; a frame
// pinned above the cut keeps the chunks until a later shrink.
TEST(CacheResize, ShrinkMovesFramesOutOfReleasedChunks) {
  BlockDevice dev(8192);
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 12, BlockCache::WritePolicy::kWriteBack,
                   ReplacementKind::kLru);
  std::vector<BlockId> ids;
  for (std::size_t i = 0; i < 12; ++i) {
    ids.push_back(dev.allocate());
    cache.withOverwrite(ids.back(), [&](std::span<Word> d) {
      d[0] = 1000 + i;
      d[8191] = i;
    });
  }
  const auto expectFrame = [&](std::size_t i) {
    cache.withRead(ids[i], [&](std::span<const Word> d) {
      EXPECT_EQ(d[0], 1000 + i);
      EXPECT_EQ(d[8191], i);
    });
  };
  const auto expectAuditClean = [&] {
    AuditReport report;
    cache.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
  };

  // Block i sits in slot i. LRU keeps the three newest frames; the pin on
  // the newest (slot 11) blocks the release but not the shrink.
  cache.withRead(ids[11], [&](std::span<const Word> d) {
    cache.resize(3);
    EXPECT_EQ(d[0], 1011u);
  });
  expectAuditClean();
  const auto misses = cache.misses();
  for (std::size_t i = 9; i < 12; ++i) expectFrame(i);
  EXPECT_EQ(cache.misses(), misses);

  // Unpinned, the next shrink moves both survivors (slots 10 and 11)
  // below the cut and frees the chunks above it.
  cache.resize(2);
  expectAuditClean();
  for (std::size_t i = 10; i < 12; ++i) expectFrame(i);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.dirtyBlocks(), 2u);

  // The slab grows back on demand.
  cache.resize(12);
  for (std::size_t i = 0; i < 12; ++i) expectFrame(i);
  expectAuditClean();
  cache.flush();
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(dev.inspect(ids[i])[0], 1000 + i);
  }
}

TEST(CacheResize, ShrinkToZeroWithGhostChargesOutstanding) {
  TestRig rig(8, /*memory_words=*/1 << 16);
  const auto ids = allocBlocks(rig, 12);
  const std::size_t baseline = rig.memory->used();
  BlockCache cache(*rig.device, *rig.memory, 4,
                   BlockCache::WritePolicy::kWriteThrough,
                   ReplacementKind::kArc);
  CachedBlockIo io(*rig.device, &cache);
  // Overrun the capacity so evictions populate the ghost directories.
  for (int round = 0; round < 3; ++round) {
    for (const BlockId id : ids) {
      io.withRead(id, [](std::span<const Word>) {});
    }
  }
  ASSERT_GT(cache.ghostEntries(), 0u);

  cache.resize(0);
  EXPECT_EQ(cache.capacityBlocks(), 0u);
  EXPECT_EQ(cache.residentBlocks(), 0u);
  // Ghost metadata was expired and its charge (plus the frames') released.
  EXPECT_EQ(cache.ghostEntries(), 0u);
  EXPECT_EQ(rig.memory->used(), baseline);
  // A zero-capacity cache still serves accesses (transient single frame).
  io.withRead(ids[0], [](std::span<const Word>) {});
  io.withRead(ids[1], [](std::span<const Word>) {});
  EXPECT_LE(cache.residentBlocks(), 1u);
  // And it can grow back into a working cache.
  cache.resize(4);
  for (const BlockId id : ids) {
    io.withRead(id, [](std::span<const Word>) {});
  }
  EXPECT_EQ(cache.residentBlocks(), 4u);
}

class CacheResizeOscillation
    : public ::testing::TestWithParam<ReplacementKind> {};

TEST_P(CacheResizeOscillation, GrowShrinkOscillationStaysCoherent) {
  TestRig rig(8, /*memory_words=*/1 << 16);
  const auto ids = allocBlocks(rig, 16);
  const std::size_t wpb = rig.device->wordsPerBlock();
  BlockCache cache(*rig.device, *rig.memory, 4,
                   BlockCache::WritePolicy::kWriteBack, GetParam());
  CachedBlockIo io(*rig.device, &cache);
  // Seed distinct contents.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    io.withOverwrite(ids[i], [&](std::span<Word> data) { data[0] = i; });
  }

  std::uint64_t version = 0;
  const std::size_t sizes[] = {4, 16, 2, 12, 1, 8, 3, 16, 4};
  for (const std::size_t size : sizes) {
    cache.resize(size);
    EXPECT_EQ(cache.capacityBlocks(), size);
    EXPECT_LE(cache.residentBlocks(), std::max<std::size_t>(size, 1));
    // The budget charge tracks max(capacity, residency) frames plus the
    // policy's (bounded) ghost metadata.
    EXPECT_GE(rig.memory->used(),
              std::max(cache.residentBlocks(), size) * wpb);
    ++version;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      io.withWrite(ids[i], [&](std::span<Word> data) {
        EXPECT_EQ(data[0] % 100, i) << "stale or foreign frame";
        data[0] = i + 100 * version;
      });
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      io.withRead(ids[i], [&](std::span<const Word> data) {
        EXPECT_EQ(data[0], i + 100 * version);
      });
    }
  }
  cache.flush();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(rig.device->inspect(ids[i])[0], i + 100 * version);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CacheResizeOscillation,
                         ::testing::Values(ReplacementKind::kLru,
                                           ReplacementKind::kTwoQ,
                                           ReplacementKind::kArc),
                         [](const auto& info) {
                           return std::string(
                               replacementKindName(info.param));
                         });

TEST(CacheResize, GrowPastBudgetThrowsAndRollsBack) {
  TestRig rig(8, /*memory_words=*/64);  // room for ~4 frames of 10 words
  BlockCache cache(*rig.device, *rig.memory, 2);
  EXPECT_THROW(cache.resize(1000), BudgetExceeded);
  EXPECT_EQ(cache.capacityBlocks(), 2u);
  const BlockId id = rig.device->allocate();
  CachedBlockIo io(*rig.device, &cache);
  io.withRead(id, [](std::span<const Word>) {});  // still functional
  EXPECT_EQ(cache.residentBlocks(), 1u);
}

TEST(CacheResize, GhostHorizonKeepsGrowthSignalWhenSqueezed) {
  TestRig rig(8);
  const auto ids = allocBlocks(rig, 24);
  // Two squeezed caches sweeping a 24-block working set: without a
  // horizon the 4-frame ARC's ghost reach (~4) expires every ghost before
  // its cyclic reuse; with the arbitrated total as horizon the ghosts
  // span the sweep and report the hits a bigger cache would have had.
  BlockCache squeezed(*rig.device, *rig.memory, 4,
                      BlockCache::WritePolicy::kWriteThrough,
                      ReplacementKind::kArc);
  squeezed.setGhostHorizon(32);
  CachedBlockIo io(*rig.device, &squeezed);
  for (int round = 0; round < 4; ++round) {
    for (const BlockId id : ids) {
      io.withRead(id, [](std::span<const Word>) {});
    }
  }
  EXPECT_GT(squeezed.ghostHits(), 0u);

  TestRig rig2(8);
  const auto ids2 = allocBlocks(rig2, 24);
  BlockCache blind(*rig2.device, *rig2.memory, 4,
                   BlockCache::WritePolicy::kWriteThrough,
                   ReplacementKind::kArc);
  CachedBlockIo io2(*rig2.device, &blind);
  for (int round = 0; round < 4; ++round) {
    for (const BlockId id : ids2) {
      io2.withRead(id, [](std::span<const Word>) {});
    }
  }
  EXPECT_EQ(blind.ghostHits(), 0u);
}

}  // namespace
}  // namespace exthash::extmem
