// MemoryArbiter behavior: signal-driven movement between the cache and
// staging sides, per-side floors with a conserved total, heat-skewed
// multi-cache splits, and the pipeline integration (the TSAN-exercised
// sharded flush-vs-resize serialization).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "extmem/block_cache.h"
#include "extmem/cached_io.h"
#include "extmem/memory_arbiter.h"
#include "pipeline/ingest_pipeline.h"
#include "table_test_util.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"
#include "workload/keygen.h"

namespace exthash::extmem {
namespace {

using exthash::testing::TestRig;

struct FakeStaging {
  std::size_t slots = 0;
  StagingSignals signals;
  std::size_t resize_calls = 0;

  void attach(MemoryArbiter& arb, std::size_t initial_slots) {
    arb.setStaging(
        [this](std::size_t s) {
          slots = s;
          ++resize_calls;
        },
        [this] { return signals; }, initial_slots);
  }
};

TEST(MemoryArbiter, MovesFramesTowardCacheOnGhostHits) {
  TestRig rig(8);
  std::vector<BlockId> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(rig.device->allocate());
  BlockCache cache(*rig.device, *rig.memory, 8,
                   BlockCache::WritePolicy::kWriteThrough,
                   ReplacementKind::kArc);
  CachedBlockIo io(*rig.device, &cache);

  ArbiterConfig ac;
  ac.slots_per_frame = 4;
  MemoryArbiter arb(ac);
  arb.addCache(&cache);
  FakeStaging staging;
  staging.attach(arb, /*initial_slots=*/32);  // 8 staging frames
  ASSERT_EQ(arb.totalFrames(), 16u);
  EXPECT_EQ(staging.slots, 32u);  // registration pushed the rounded target

  // A cyclic sweep one-and-a-half times the cache: every round re-misses
  // blocks whose ghosts survive (the arbiter widened the horizon to the
  // total), voting to grow the cache. Staging stays silent.
  for (int round = 0; round < 6; ++round) {
    for (const BlockId id : ids) {
      io.withRead(id, [](std::span<const Word>) {});
    }
    arb.rebalance();
  }
  EXPECT_GT(arb.cacheFrames(), 8u);
  EXPECT_GT(cache.capacityBlocks(), 8u);
  EXPECT_GT(arb.moves(), 0u);
  EXPECT_EQ(arb.totalFrames(), 16u);
  EXPECT_EQ(staging.slots, arb.stagingSlots());
}

TEST(MemoryArbiter, MovesFramesTowardStagingOnCoalescing) {
  TestRig rig(8);
  BlockCache cache(*rig.device, *rig.memory, 8,
                   BlockCache::WritePolicy::kWriteThrough,
                   ReplacementKind::kArc);
  ArbiterConfig ac;
  ac.slots_per_frame = 4;
  MemoryArbiter arb(ac);
  arb.addCache(&cache);
  FakeStaging staging;
  staging.attach(arb, 32);

  for (int round = 0; round < 6; ++round) {
    staging.signals.absorbed += 200;  // heavy window coalescing, no ghosts
    arb.rebalance();
  }
  EXPECT_LT(arb.cacheFrames(), 8u);
  EXPECT_GT(arb.stagingFrames(), 8u);
  EXPECT_EQ(cache.capacityBlocks(), arb.cacheFrames());
  EXPECT_EQ(arb.totalFrames(), 16u);
}

TEST(MemoryArbiter, RespectsFloorsUnderOneSidedPressure) {
  TestRig rig(8);
  BlockCache cache(*rig.device, *rig.memory, 8,
                   BlockCache::WritePolicy::kWriteThrough,
                   ReplacementKind::kArc);
  ArbiterConfig ac;
  ac.slots_per_frame = 4;
  ac.min_cache_frames = 2;
  ac.min_staging_frames = 3;
  MemoryArbiter arb(ac);
  arb.addCache(&cache);
  FakeStaging staging;
  staging.attach(arb, 32);

  for (int round = 0; round < 20; ++round) {
    staging.signals.absorbed += 500;
    arb.rebalance();
    EXPECT_EQ(arb.totalFrames(), 16u);
  }
  EXPECT_EQ(arb.cacheFrames(), 2u);  // pinned at the floor, not below
  EXPECT_EQ(arb.stagingFrames(), 14u);
  EXPECT_EQ(cache.capacityBlocks(), 2u);
}

TEST(MemoryArbiter, HeatSkewMovesFramesToTheHotCache) {
  TestRig rig_a(8);
  TestRig rig_b(8);
  const BlockId hot = rig_a.device->allocate();
  BlockCache cache_a(*rig_a.device, *rig_a.memory, 8,
                     BlockCache::WritePolicy::kWriteThrough,
                     ReplacementKind::kTwoQ);
  BlockCache cache_b(*rig_b.device, *rig_b.memory, 8,
                     BlockCache::WritePolicy::kWriteThrough,
                     ReplacementKind::kTwoQ);
  CachedBlockIo io_a(*rig_a.device, &cache_a);

  MemoryArbiter arb;  // no staging side: pure heat rebalancing
  arb.addCache(&cache_a);
  arb.addCache(&cache_b);
  ASSERT_EQ(arb.totalFrames(), 16u);

  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 100; ++i) {
      io_a.withRead(hot, [](std::span<const Word>) {});
    }
    arb.rebalance();
  }
  EXPECT_GT(cache_a.capacityBlocks(), cache_b.capacityBlocks());
  EXPECT_EQ(cache_a.capacityBlocks() + cache_b.capacityBlocks(), 16u);
  EXPECT_GT(arb.moves(), 0u);
}

TEST(MemoryArbiter, CacheSideBelowFloorCannotGoNegative) {
  // Caches registered UNDER the configured per-cache floor: the side has
  // nothing to give (saturating headroom), but can still receive — and
  // nothing wraps or explodes.
  TestRig rig_a(8);
  TestRig rig_b(8);
  BlockCache cache_a(*rig_a.device, *rig_a.memory, 1,
                     BlockCache::WritePolicy::kWriteThrough,
                     ReplacementKind::kArc);
  BlockCache cache_b(*rig_b.device, *rig_b.memory, 1,
                     BlockCache::WritePolicy::kWriteThrough,
                     ReplacementKind::kArc);
  ArbiterConfig ac;
  ac.min_cache_frames = 4;  // > each cache's actual 1 frame
  ac.slots_per_frame = 4;
  MemoryArbiter arb(ac);
  arb.addCache(&cache_a);
  arb.addCache(&cache_b);
  FakeStaging staging;
  staging.attach(arb, 16);
  const std::size_t total = arb.totalFrames();
  for (int round = 0; round < 6; ++round) {
    staging.signals.absorbed += 500;  // begs for frames the side can't give
    arb.rebalance();
    EXPECT_LE(arb.cacheFrames(), total);
    EXPECT_LE(arb.stagingFrames(), total);
    EXPECT_EQ(arb.totalFrames(), total);
  }
  EXPECT_EQ(arb.cacheFrames(),
            cache_a.capacityBlocks() + cache_b.capacityBlocks());
}

TEST(MemoryArbiter, HoldsStillWithoutSignals) {
  TestRig rig(8);
  BlockCache cache(*rig.device, *rig.memory, 8,
                   BlockCache::WritePolicy::kWriteThrough,
                   ReplacementKind::kArc);
  MemoryArbiter arb;
  arb.addCache(&cache);
  FakeStaging staging;
  staging.attach(arb, 64);
  for (int round = 0; round < 5; ++round) arb.rebalance();
  EXPECT_EQ(arb.moves(), 0u);
  EXPECT_EQ(cache.capacityBlocks(), 8u);
}

// ---------------------------------------------------------------------------
// Pipeline integration
// ---------------------------------------------------------------------------

// The TSAN-exercised case (matches the CI sanitizer filter): per-shard
// cache resizes ride the pipeline's maintenance hook while drains flush
// the same caches — every touch must serialize on the one worker thread.
TEST(MemoryArbiter, ShardedPipelinedResizesRaceFlushSafely) {
  TestRig rig(16);
  tables::GeneralConfig cfg;
  cfg.expected_n = 4096;
  cfg.target_load = 0.5;
  cfg.shards = 3;
  cfg.shard_threads = 3;
  cfg.sharded_inner = tables::TableKind::kChaining;
  cfg.shard_cache_frames = 12;
  cfg.shard_cache_write_back = true;
  cfg.shard_cache_replacement = ReplacementKind::kTwoQ;
  auto table = makeTable(tables::TableKind::kSharded, rig.context(), cfg);
  auto* sharded = dynamic_cast<tables::ShardedTable*>(table.get());
  ASSERT_NE(sharded, nullptr);

  // The staging windows are charged to the table's budget, so frames and
  // slots trade inside one accounted memory; one frame's words buy as
  // many slots as fit across the pipeline's depth + 1 windows.
  pipeline::PipelineConfig pc;
  pc.batch_capacity = 256;
  pc.max_pending_batches = 2;
  pc.budget = rig.memory.get();
  ArbiterConfig ac;
  ac.slots_per_frame = std::max<std::size_t>(
      1, rig.device->wordsPerBlock() / (pipeline::kStagingOpWords * 3));
  MemoryArbiter arbiter(ac);
  sharded->registerCaches(arbiter);

  workload::ZipfKeyStream keys(17, 2048, 0.99);
  std::vector<std::uint64_t> inserted;
  {
    pipeline::IngestPipeline pipe(*table, pc);
    pipeline::IngestPipeline* p = &pipe;
    arbiter.setStaging(
        [p](std::size_t slots) { p->setWindowCapacity(slots); },
        [p] {
          const auto s = p->stats();
          return StagingSignals{s.ops_coalesced, s.submit_waits};
        },
        pc.batch_capacity);
    for (std::size_t i = 1; i <= 4096; ++i) {
      const std::uint64_t key = keys.next();
      inserted.push_back(key);
      pipe.insert(key, key ^ 0x5bd1e995);
      if (i % 256 == 0) {
        pipe.submitMaintenance([a = &arbiter] { a->rebalance(); });
      }
      if (i % 1024 == 0) pipe.drain();  // flushes the shard caches
    }
  }

  std::size_t shard_frames = 0;
  for (std::size_t s = 0; s < sharded->shardCount(); ++s) {
    if (sharded->shardCache(s) != nullptr) {
      shard_frames += sharded->shardCache(s)->capacityBlocks();
    }
  }
  EXPECT_EQ(shard_frames, arbiter.cacheFrames());
  for (const std::uint64_t key : inserted) {
    ASSERT_TRUE(table->lookup(key).has_value()) << key;
  }
}

}  // namespace
}  // namespace exthash::extmem
