// Write-back caching coherence across the stack: dirty frames buffer
// device writes until eviction or an explicit flush barrier; freed block
// ids must never be flushed over their reused successors; the pipeline's
// drain() and the sharded façade's flushCache() are the barriers the rest
// of the system relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "extmem/block_cache.h"
#include "extmem/cached_io.h"
#include "pipeline/ingest_pipeline.h"
#include "table_test_util.h"
#include "tables/chaining_table.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"
#include "workload/keygen.h"
#include "workload/runner.h"

namespace exthash::tables {
namespace {

using exthash::testing::TestRig;
using exthash::testing::distinctKeys;
using extmem::BlockCache;
using extmem::BlockId;
using extmem::CachedBlockIo;
using extmem::Word;

// ---------------------------------------------------------------------------
// BlockCache / CachedBlockIo unit level
// ---------------------------------------------------------------------------

TEST(WriteBackCache, WritesDirtyFramesNotDevice) {
  TestRig rig(8);
  const BlockId id = rig.device->allocate();
  BlockCache cache(*rig.device, *rig.memory, 4,
                   BlockCache::WritePolicy::kWriteBack);
  CachedBlockIo io(*rig.device, &cache);

  const auto before = rig.device->stats();
  io.withWrite(id, [](std::span<Word> data) { data[0] = 17; });  // miss: 1 read
  io.withWrite(id, [](std::span<Word> data) { data[1] = 23; });  // hit: free
  const auto mid = rig.device->stats() - before;
  EXPECT_EQ(mid.reads, 1u);
  EXPECT_EQ(mid.writes, 0u);
  EXPECT_EQ(mid.rmws, 0u);
  EXPECT_EQ(cache.dirtyBlocks(), 1u);
  // The device copy is stale until the flush barrier.
  EXPECT_EQ(rig.device->inspect(id)[0], 0u);

  io.flush();
  const auto after = rig.device->stats() - before;
  EXPECT_EQ(after.writes, 1u);  // one write per dirty frame, however many mutations
  EXPECT_EQ(cache.dirtyBlocks(), 0u);
  EXPECT_EQ(cache.writebacks(), 1u);
  EXPECT_EQ(rig.device->inspect(id)[0], 17u);
  EXPECT_EQ(rig.device->inspect(id)[1], 23u);
}

TEST(WriteBackCache, OverwriteInstallsFrameWithZeroDeviceIo) {
  TestRig rig(8);
  const BlockId id = rig.device->allocate();
  BlockCache cache(*rig.device, *rig.memory, 4,
                   BlockCache::WritePolicy::kWriteBack);
  CachedBlockIo io(*rig.device, &cache);

  const auto before = rig.device->stats();
  io.withOverwrite(id, [](std::span<Word> data) { data[0] = 99; });
  EXPECT_EQ((rig.device->stats() - before).cost(), 0u);  // no read, no write
  // The dirty frame serves cached reads coherently.
  io.withRead(id, [](std::span<const Word> data) { EXPECT_EQ(data[0], 99u); });
  io.flush();
  EXPECT_EQ((rig.device->stats() - before).writes, 1u);
  EXPECT_EQ(rig.device->inspect(id)[0], 99u);
}

TEST(WriteBackCache, EvictionWritesBackLruVictim) {
  TestRig rig(8);
  std::vector<BlockId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(rig.device->allocate());
  BlockCache cache(*rig.device, *rig.memory, 2,
                   BlockCache::WritePolicy::kWriteBack);
  CachedBlockIo io(*rig.device, &cache);

  io.withWrite(ids[0], [](std::span<Word> d) { d[0] = 1; });
  io.withWrite(ids[1], [](std::span<Word> d) { d[0] = 2; });
  const auto before = rig.device->stats();
  io.withWrite(ids[2], [](std::span<Word> d) { d[0] = 3; });  // evicts ids[0]
  const auto delta = rig.device->stats() - before;
  EXPECT_EQ(delta.writes, 1u);
  EXPECT_EQ(rig.device->inspect(ids[0])[0], 1u);  // victim reached the device
  EXPECT_EQ(rig.device->inspect(ids[2])[0], 0u);  // newest is still only cached
}

// Satellite: a write-through write refreshing a resident frame must
// promote it — a hot written page may not be evicted ahead of a cold
// read page.
TEST(WriteThroughCache, RefreshPromotesLruRecency) {
  TestRig rig(8);
  std::vector<BlockId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(rig.device->allocate());
  BlockCache cache(*rig.device, *rig.memory, 2,
                   BlockCache::WritePolicy::kWriteThrough);
  CachedBlockIo io(*rig.device, &cache);

  io.withRead(ids[0], [](std::span<const Word>) {});   // A resident
  io.withRead(ids[1], [](std::span<const Word>) {});   // B resident, newer
  io.withWrite(ids[0], [](std::span<Word> d) { d[0] = 7; });  // write A: promote
  io.withRead(ids[2], [](std::span<const Word>) {});   // evicts LRU = B, not A

  const auto hits_before = cache.hits();
  io.withRead(ids[0], [](std::span<const Word> d) { EXPECT_EQ(d[0], 7u); });
  EXPECT_EQ(cache.hits(), hits_before + 1) << "written-hot frame was evicted";
}

// Freed-then-reused block ids: a dirty frame of the old incarnation must
// never be flushed over the new owner's contents, whether the flush comes
// from eviction order or an explicit flush().
TEST(WriteBackCache, FreedBlockIdReuseNeverResurrectsStaleData) {
  TestRig rig(8);
  BlockCache cache(*rig.device, *rig.memory, 8,
                   BlockCache::WritePolicy::kWriteBack);
  CachedBlockIo io(*rig.device, &cache);

  const BlockId a = io.allocate();
  io.withWrite(a, [](std::span<Word> d) { d[0] = 0xDEAD; });  // dirty frame
  io.free(a);  // invalidate: the dirty data dies with the id

  const BlockId reused = io.allocate();
  ASSERT_EQ(reused, a) << "free pool should hand the id back";
  // New owner writes through the cache...
  io.withOverwrite(reused, [](std::span<Word> d) { d[0] = 0xBEEF; });
  io.flush();
  EXPECT_EQ(rig.device->inspect(reused)[0], 0xBEEFu);

  // ...and the variant where the new owner writes the device directly
  // (a non-cached code path): the stale frame must already be gone.
  io.free(reused);
  const BlockId again = io.allocate();
  ASSERT_EQ(again, a);
  rig.device->withOverwrite(again, [](std::span<Word> d) { d[0] = 0xF00D; });
  cache.flush();
  EXPECT_EQ(rig.device->inspect(again)[0], 0xF00Du);
}

// The tables' guarded scopes allocate and overwrite fresh blocks while
// holding a span into the current block (chain rewrites). The nested
// cache access must never evict the outer frame — it is pinned — even
// when that forces the cache over capacity for the nesting's duration.
TEST(WriteBackCache, NestedAccessNeverEvictsThePinnedOuterFrame) {
  TestRig rig(8);
  const BlockId outer = rig.device->allocate();
  const BlockId inner = rig.device->allocate();
  BlockCache cache(*rig.device, *rig.memory, 1,
                   BlockCache::WritePolicy::kWriteBack);
  CachedBlockIo io(*rig.device, &cache);

  io.withWrite(outer, [&](std::span<Word> data) {
    data[0] = 41;
    // Nested access with capacity 1: without pinning this would evict
    // `outer` and destroy the vector `data` points into.
    io.withOverwrite(inner, [](std::span<Word> d) { d[0] = 42; });
    EXPECT_EQ(cache.residentBlocks(), 2u) << "ran over capacity, pinned";
    data[1] = 43;  // the outer span must still be alive
  });
  io.flush();
  EXPECT_EQ(rig.device->inspect(outer)[0], 41u);
  EXPECT_EQ(rig.device->inspect(outer)[1], 43u);
  EXPECT_EQ(rig.device->inspect(inner)[0], 42u);
}

// End-to-end variant: a capacity-1 write-back cache on a chaining table
// whose bucket overflows — the first-overflow creation happens inside
// the primary block's guarded scope.
TEST(WriteBackCache, CapacityOneCacheSurvivesChainGrowth) {
  TestRig rig(4);
  BlockCache cache(*rig.device, *rig.memory, 1,
                   BlockCache::WritePolicy::kWriteBack);
  ChainingConfig cfg;
  cfg.bucket_count = 1;  // every key collides: chains grow immediately
  ChainingHashTable table(rig.context(), cfg);
  table.attachCache(&cache);

  const auto keys = distinctKeys(24);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.insert(keys[i], i + 1);  // serial path: nested overflow creation
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]), std::optional<std::uint64_t>(i + 1))
        << "chain pointer written into an evicted frame";
  }
}

TEST(WriteBackCache, FlushIsIdempotentAndCountsOnce) {
  TestRig rig(8);
  const BlockId id = rig.device->allocate();
  BlockCache cache(*rig.device, *rig.memory, 2,
                   BlockCache::WritePolicy::kWriteBack);
  CachedBlockIo io(*rig.device, &cache);
  io.withWrite(id, [](std::span<Word> d) { d[0] = 5; });
  io.flush();
  const auto before = rig.device->stats();
  io.flush();  // nothing dirty: no I/O
  EXPECT_EQ((rig.device->stats() - before).cost(), 0u);
  EXPECT_EQ(cache.writebacks(), 1u);
}

// ---------------------------------------------------------------------------
// Table level: chaining under write-back, incl. chain rewrites that free
// and reallocate overflow blocks.
// ---------------------------------------------------------------------------

TEST(WriteBackCacheChains, EquivalentToUncachedUnderChurnAndCheaperOnWrites) {
  constexpr std::size_t kB = 4;       // tiny blocks force overflow chains
  constexpr std::size_t kKeys = 96;
  const auto keys = distinctKeys(kKeys);

  auto run = [&](bool cached, extmem::IoStats* io_out) {
    TestRig rig(kB);
    ChainingConfig cfg;
    cfg.bucket_count = 4;  // heavy per-bucket load -> chains
    // The cache outlives the table: the table's destructor flushes and
    // invalidates through it.
    std::unique_ptr<BlockCache> cache;
    if (cached) {
      cache = std::make_unique<BlockCache>(
          *rig.device, *rig.memory, 48, BlockCache::WritePolicy::kWriteBack);
    }
    ChainingHashTable table(rig.context(), cfg);
    if (cache) table.attachCache(cache.get());

    const auto before = table.ioStats();
    std::vector<Op> ops;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ops.push_back(Op::insertOp(keys[i], i + 1));
    }
    table.applyBatch(ops);  // builds chains
    // Churn: erase half in one batch (chain rewrite frees + reallocates
    // overflow blocks), re-insert a quarter with new values.
    std::vector<Op> churn;
    for (std::size_t i = 0; i < keys.size(); i += 2) {
      churn.push_back(Op::eraseOp(keys[i]));
    }
    for (std::size_t i = 0; i < keys.size(); i += 4) {
      churn.push_back(Op::insertOp(keys[i], 9'000 + i));
    }
    table.applyBatch(churn);
    table.flushCache();
    if (io_out) *io_out = table.ioStats() - before;

    // Read the final state through plain lookups.
    std::vector<std::pair<std::uint64_t, std::optional<std::uint64_t>>> state;
    for (const std::uint64_t key : keys) state.emplace_back(key, table.lookup(key));
    return state;
  };

  extmem::IoStats uncached_io, cached_io;
  const auto expected = run(false, &uncached_io);
  const auto actual = run(true, &cached_io);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].second, actual[i].second)
        << "key " << expected[i].first;
  }
  // Buffering dirty frames must cut device writes even after paying the
  // full flush.
  EXPECT_LT(cached_io.writeCost(), uncached_io.writeCost());
  EXPECT_GT(cached_io.cache_writebacks, 0u);
}

TEST(WriteBackCacheChains, DestroyAfterDirtyRewriteFreesEveryBlock) {
  TestRig rig(4);
  BlockCache cache(*rig.device, *rig.memory, 32,
                   BlockCache::WritePolicy::kWriteBack);
  {
    ChainingConfig cfg;
    cfg.bucket_count = 2;
    ChainingHashTable table(rig.context(), cfg);
    table.attachCache(&cache);
    const auto keys = distinctKeys(48);
    std::vector<Op> ops;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ops.push_back(Op::insertOp(keys[i], i + 1));
    }
    table.applyBatch(ops);
    // Leave dirty frames holding the live chain pointers; destroy() must
    // flush before its inspect() walk or it frees along stale chains.
    table.destroy();
  }
  EXPECT_EQ(rig.device->blocksInUse(), 0u)
      << "destroy missed blocks reachable only through dirty frames";
}

TEST(WriteBackCacheChains, VisitLayoutSeesDirtyState) {
  TestRig rig(8);
  BlockCache cache(*rig.device, *rig.memory, 64,
                   BlockCache::WritePolicy::kWriteBack);
  ChainingConfig cfg;
  cfg.bucket_count = 8;
  ChainingHashTable table(rig.context(), cfg);
  table.attachCache(&cache);
  const auto keys = distinctKeys(32);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(Op::insertOp(keys[i], i + 1));
  }
  table.applyBatch(ops);  // everything may still sit in dirty frames

  exthash::testing::CountingVisitor visitor;
  table.visitLayout(visitor);  // internal flush barrier
  EXPECT_EQ(visitor.disk_items, keys.size());
  std::vector<std::uint64_t> seen = visitor.keys;
  std::sort(seen.begin(), seen.end());
  std::vector<std::uint64_t> want(keys.begin(), keys.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(seen, want);
}

// ---------------------------------------------------------------------------
// Pipeline level: dirty frames survive backpressure stalls; drain() is a
// flush barrier.
// ---------------------------------------------------------------------------

TEST(WriteBackCachePipeline, DirtyFramesSurviveBackpressureAndDrainFlushes) {
  TestRig rig(8);
  BlockCache cache(*rig.device, *rig.memory, 32,
                   BlockCache::WritePolicy::kWriteBack);
  GeneralConfig cfg;
  cfg.expected_n = 512;
  cfg.target_load = 0.5;
  auto table = makeTable(TableKind::kChaining, rig.context(), cfg);
  table->attachCache(&cache);

  pipeline::PipelineConfig pc;
  pc.batch_capacity = 16;      // many small windows ...
  pc.max_pending_batches = 1;  // ... through a depth-1 queue: stalls happen
  pipeline::IngestPipeline pipe(*table, pc);
  const auto keys = distinctKeys(512);
  for (std::size_t i = 0; i < keys.size(); ++i) pipe.insert(keys[i], i + 1);
  pipe.drain();

  // drain() is a flush barrier: nothing may still be dirty, and the
  // device must now be authoritative — detach the cache and re-read
  // everything straight from disk.
  EXPECT_EQ(cache.dirtyBlocks(), 0u);
  table->attachCache(nullptr);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table->lookup(keys[i]), std::optional<std::uint64_t>(i + 1))
        << "dirty frame lost across backpressure stalls";
  }
}

// ---------------------------------------------------------------------------
// Sharded façade: auto-attached per-shard caches (TSAN-gated via the CI
// regex matching "Sharded").
// ---------------------------------------------------------------------------

TEST(ShardedWriteBackCacheTest, AutoAttachChargesSharedBudgetAndAggregates) {
  TestRig rig(8);
  ShardedTableConfig cfg;
  cfg.shards = 4;
  cfg.inner = TableKind::kChaining;
  cfg.inner_config.expected_n = 1024;
  cfg.inner_config.target_load = 0.5;
  cfg.threads = 2;
  cfg.cache_frames = 256;  // 64 per shard: the whole primary area fits
  cfg.cache_policy = BlockCache::WritePolicy::kWriteBack;

  const std::size_t budget_before = rig.memory->used();
  ShardedTable table(rig.context(), cfg);
  // 64 frames per shard, charged to the CALLER's budget.
  const std::size_t words = rig.device->wordsPerBlock();
  EXPECT_EQ(rig.memory->used() - budget_before, 4 * 64 * words);
  for (std::size_t s = 0; s < table.shardCount(); ++s) {
    ASSERT_NE(table.shardCache(s), nullptr);
    EXPECT_EQ(table.shardCache(s)->capacityBlocks(), 64u);
    EXPECT_EQ(table.shardCache(s)->policy(),
              BlockCache::WritePolicy::kWriteBack);
  }

  const auto keys = distinctKeys(1024);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(Op::insertOp(keys[i], i + 1));
  }
  table.applyBatch(ops);
  table.flushCache();

  std::vector<std::optional<std::uint64_t>> out(keys.size());
  table.lookupBatch(keys, out);  // hits the flushed-but-resident frames
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], std::optional<std::uint64_t>(i + 1));
  }
  const auto stats = table.ioStats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_writebacks, 0u);
}

TEST(ShardedWriteBackCacheTest, PipelinedIngestStaysCoherent) {
  TestRig rig(8);
  GeneralConfig cfg;
  cfg.expected_n = 2048;
  cfg.target_load = 0.5;
  cfg.shards = 4;
  cfg.sharded_inner = TableKind::kChaining;
  cfg.shard_threads = 4;
  cfg.shard_cache_frames = 64;
  cfg.shard_cache_write_back = true;
  auto table = makeTable(TableKind::kSharded, rig.context(), cfg);

  pipeline::PipelineConfig pc;
  pc.batch_capacity = 128;
  pc.max_pending_batches = 2;
  pipeline::IngestPipeline pipe(*table, pc);
  const auto keys = distinctKeys(2048);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    pipe.insert(keys[i], i + 1);
    if (i % 3 == 0) {
      // Interleave read-your-writes lookups with the concurrent applies.
      auto fut = pipe.submitLookup(keys[i]);
      ASSERT_EQ(fut.get(), std::optional<std::uint64_t>(i + 1));
    }
  }
  pipe.drain();  // flush barrier across every shard cache

  auto* sharded = dynamic_cast<ShardedTable*>(table.get());
  ASSERT_NE(sharded, nullptr);
  for (std::size_t s = 0; s < sharded->shardCount(); ++s) {
    EXPECT_EQ(sharded->shardCache(s)->dirtyBlocks(), 0u);
  }
  std::vector<std::optional<std::uint64_t>> out(keys.size());
  table->lookupBatch(keys, out);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], std::optional<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(table->size(), keys.size());
}

// runMeasurement's checkpoint flushes must charge flushed dirty writes to
// the insert phase: after the run nothing is dirty and tu reflects at
// least one device write per eventual block.
TEST(WriteBackCacheRunner, MeasurementFlushesAtDrainPoints) {
  TestRig rig(8);
  BlockCache cache(*rig.device, *rig.memory, 16,
                   BlockCache::WritePolicy::kWriteBack);
  GeneralConfig cfg;
  cfg.expected_n = 512;
  cfg.target_load = 0.5;
  auto table = makeTable(TableKind::kChaining, rig.context(), cfg);
  table->attachCache(&cache);

  workload::MeasurementConfig mc;
  mc.n = 512;
  mc.queries_per_checkpoint = 32;
  mc.checkpoints = 4;
  mc.seed = 9;
  workload::DistinctKeyStream keys(3);
  const auto m = workload::runMeasurement(*table, keys, mc);
  EXPECT_EQ(cache.dirtyBlocks(), 0u);
  EXPECT_GT(m.insert_io.writes, 0u) << "flushed writes were not charged";
  EXPECT_GT(m.tu, 0.0);
}

}  // namespace
}  // namespace exthash::tables
