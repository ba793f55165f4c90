// Mutation tests for the structural invariant auditor (util/audit.h).
//
// Pattern: build a structure, assert its audit is green (and actually ran
// checks), seed one targeted corruption — either through the AuditPeer
// backdoor into private bookkeeping or by mutating raw device words — and
// assert the audit reports it under the right component. Every corruption
// is restored afterwards so teardown (and the audited/ASan CI lanes) never
// walks a corrupted structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "extmem/block_cache.h"
#include "extmem/block_device.h"
#include "extmem/bucket_page.h"
#include "extmem/memory_arbiter.h"
#include "extmem/memory_budget.h"
#include "extmem/record.h"
#include "pipeline/ingest_pipeline.h"
#include "table_test_util.h"
#include "tables/buffer_btree_table.h"
#include "tables/chaining_table.h"
#include "tables/extendible_table.h"
#include "tables/factory.h"
#include "tables/linear_hash_table.h"
#include "tables/log_method_table.h"
#include "tables/lsm_table.h"
#include "tables/sharded_table.h"
#include "util/assert.h"
#include "util/audit.h"

// ---------------------------------------------------------------------------
// AuditPeer: the test-only corruption hooks the library classes befriend.
// Each struct lives in the class's own namespace; production code never
// defines or touches them.

namespace exthash::tables {

struct AuditPeer {
  static std::size_t& size(ChainingHashTable& t) { return t.size_; }
  static std::size_t& size(ExtendibleHashTable& t) { return t.size_; }
  static std::uint64_t& splitPointer(LinearHashTable& t) {
    return t.split_pointer_;
  }
  static extmem::BlockId firstRunExtent(const LsmTable& t) {
    for (const auto& level : t.levels_) {
      if (!level.empty()) return level.front().extent;
    }
    return extmem::kInvalidBlock;
  }
  static std::uint64_t& nodeBlocks(BufferBTreeTable& t) {
    return t.node_blocks_;
  }
  static ChainingHashTable* firstLevel(LogMethodTable& t) {
    for (auto& level : t.levels_) {
      if (level) return level.get();
    }
    return nullptr;
  }
};

}  // namespace exthash::tables

namespace exthash::extmem {

struct AuditPeer {
  static std::size_t& dirtyBlocks(BlockCache& c) { return c.dirty_blocks_; }
  static MemoryCharge& charge(BlockCache& c) { return c.charge_; }
  /// Desync the cache-vs-policy partition: one entry loses its frame
  /// while it stays on a resident queue. The cache must not be used again
  /// afterwards (only audited and destroyed; flush() skips frameless
  /// entries).
  static void dropOneFrame(BlockCache& c) {
    for (auto& entry : c.dir_.cells()) {
      if (entry.resident()) {
        entry.slot = CacheDirectory::kNoSlot;
        return;
      }
    }
    ADD_FAILURE() << "no resident frame to drop";
  }
};

}  // namespace exthash::extmem

namespace exthash::pipeline {

struct AuditPeer {
  static void bumpSubmitted(IngestPipeline& p, std::uint64_t delta) {
    util::MutexLock lock(p.mutex_);
    p.stats_.ops_submitted += delta;
  }
  static void unbumpSubmitted(IngestPipeline& p, std::uint64_t delta) {
    util::MutexLock lock(p.mutex_);
    p.stats_.ops_submitted -= delta;
  }
  static void zeroStagingCharge(IngestPipeline& p) {
    util::MutexLock lock(p.mutex_);
    p.staging_charge_.resize(0);
  }
  static void restoreStagingCharge(IngestPipeline& p) {
    util::MutexLock lock(p.mutex_);
    p.rechargeStagingLocked();
  }
};

}  // namespace exthash::pipeline

namespace {

using exthash::AuditReport;
using exthash::Record;
using exthash::extmem::BlockCache;
using exthash::extmem::BlockDevice;
using exthash::extmem::BlockId;
using exthash::extmem::kInvalidBlock;
using exthash::extmem::MemoryArbiter;
using exthash::extmem::MemoryBudget;
using exthash::extmem::Word;
using exthash::extmem::wordsForRecordCapacity;
using exthash::pipeline::IngestPipeline;
using exthash::pipeline::PipelineConfig;
using exthash::tables::BufferBTreeTable;
using exthash::tables::ChainingHashTable;
using exthash::tables::ExtendibleHashTable;
using exthash::tables::GeneralConfig;
using exthash::tables::LinearHashTable;
using exthash::tables::LogMethodTable;
using exthash::tables::LsmTable;
using exthash::tables::ShardedTable;
using exthash::tables::TableKind;
using exthash::testing::distinctKeys;
using exthash::testing::TestRig;

AuditReport auditOf(const exthash::tables::ExternalHashTable& table) {
  AuditReport report;
  table.validateLayout(report);
  return report;
}

void expectGreen(const AuditReport& report) {
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.checks(), 0u);
}

// ---------------------------------------------------------------------------
// Green path: a freshly built structure of every deep-audited kind passes
// its own audit, and the audit demonstrably ran checks.

TEST(Audit, CleanTablesOfEveryKindPass) {
  const TableKind kinds[] = {TableKind::kChaining, TableKind::kLinearHashing,
                             TableKind::kExtendible, TableKind::kLogMethod,
                             TableKind::kLsm, TableKind::kBufferBTree};
  const auto keys = distinctKeys(300);
  for (const TableKind kind : kinds) {
    TestRig rig(8);
    GeneralConfig config;
    config.expected_n = 256;
    config.buffer_items = 32;
    auto table = makeTable(kind, rig.context(), config);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      table->insert(keys[i], keys[i] + 1);
    }
    for (std::size_t i = 0; i < 20; ++i) table->erase(keys[i]);
    const AuditReport report = auditOf(*table);
    EXPECT_TRUE(report.ok())
        << exthash::tables::tableKindName(kind) << ": " << report.summary();
    EXPECT_GT(report.checks(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Chaining.

TEST(Audit, ChainingDetectsMisplacedRecord) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {.bucket_count = 8});
  const auto keys = distinctKeys(64);
  for (const auto k : keys) table.insert(k, k + 1);
  expectGreen(auditOf(table));

  const BlockId victim = *table.primaryBlockOf(keys[0]);
  // A key whose primary block is a different bucket.
  std::uint64_t stray = 0xABCDEF00u;
  while (*table.primaryBlockOf(stray) == victim) ++stray;

  Word saved = 0;
  rig.device->withWrite(victim, [&](std::span<Word> w) {
    saved = w[2];
    w[2] = stray;
  });
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("chaining")) << corrupted.summary();
  rig.device->withWrite(victim, [&](std::span<Word> w) { w[2] = saved; });
  expectGreen(auditOf(table));
}

TEST(Audit, ChainingDetectsOverflowingPageCount) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {.bucket_count = 8});
  for (const auto k : distinctKeys(64)) table.insert(k, k + 1);

  const BlockId victim = *table.primaryBlockOf(distinctKeys(1)[0]);
  Word saved = 0;
  rig.device->withWrite(victim, [&](std::span<Word> w) {
    saved = w[0];
    w[0] = (w[0] & ~0xffffffffULL) | 200;  // count 200 >> capacity 8
  });
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("chaining")) << corrupted.summary();
  rig.device->withWrite(victim, [&](std::span<Word> w) { w[0] = saved; });
}

TEST(Audit, ChainingDetectsSizeLedgerDrift) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {.bucket_count = 8});
  for (const auto k : distinctKeys(64)) table.insert(k, k + 1);

  ++exthash::tables::AuditPeer::size(table);
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("chaining")) << corrupted.summary();
  --exthash::tables::AuditPeer::size(table);
  expectGreen(auditOf(table));
}

// ---------------------------------------------------------------------------
// Linear hashing.

TEST(Audit, LinearHashingDetectsSplitPointerDrift) {
  TestRig rig(8);
  LinearHashTable table(rig.context(), {.initial_buckets = 4});
  for (const auto k : distinctKeys(200)) table.insert(k, k + 1);
  expectGreen(auditOf(table));

  auto& split = exthash::tables::AuditPeer::splitPointer(table);
  const std::uint64_t saved = split;
  split = saved + (std::uint64_t{4} << (table.level() + 1));
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("linear-hashing")) << corrupted.summary();
  split = saved;
  expectGreen(auditOf(table));
}

TEST(Audit, LinearHashingDetectsMisplacedRecord) {
  TestRig rig(8);
  LinearHashTable table(rig.context(), {.initial_buckets = 4});
  const auto keys = distinctKeys(200);
  for (const auto k : keys) table.insert(k, k + 1);

  const BlockId victim = *table.primaryBlockOf(keys[0]);
  std::uint64_t stray = 0xABCDEF00u;
  while (*table.primaryBlockOf(stray) == victim) ++stray;

  Word saved = 0;
  rig.device->withWrite(victim, [&](std::span<Word> w) {
    saved = w[2];
    w[2] = stray;
  });
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("linear-hashing")) << corrupted.summary();
  rig.device->withWrite(victim, [&](std::span<Word> w) { w[2] = saved; });
  expectGreen(auditOf(table));
}

// ---------------------------------------------------------------------------
// Extendible hashing.

TEST(Audit, ExtendibleDetectsLocalDepthCorruption) {
  TestRig rig(8);
  ExtendibleHashTable table(rig.context(), {.initial_global_depth = 1});
  const auto keys = distinctKeys(200);
  for (const auto k : keys) table.insert(k, k + 1);
  expectGreen(auditOf(table));
  ASSERT_GT(table.globalDepth(), 0u);

  // Stamp a local depth deeper than the directory: ℓ > g is impossible.
  const BlockId victim = *table.primaryBlockOf(keys[0]);
  const std::uint64_t bad_depth = table.globalDepth() + 1;
  Word saved = 0;
  rig.device->withWrite(victim, [&](std::span<Word> w) {
    saved = w[0];
    w[0] = (w[0] & 0xffffffffULL) | (bad_depth << 32);
  });
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("extendible")) << corrupted.summary();
  rig.device->withWrite(victim, [&](std::span<Word> w) { w[0] = saved; });
  expectGreen(auditOf(table));
}

TEST(Audit, ExtendibleDetectsSizeLedgerDrift) {
  TestRig rig(8);
  ExtendibleHashTable table(rig.context(), {.initial_global_depth = 1});
  for (const auto k : distinctKeys(200)) table.insert(k, k + 1);

  ++exthash::tables::AuditPeer::size(table);
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("extendible")) << corrupted.summary();
  --exthash::tables::AuditPeer::size(table);
  expectGreen(auditOf(table));
}

// ---------------------------------------------------------------------------
// LSM.

TEST(Audit, LsmDetectsSortOrderViolation) {
  TestRig rig(8);
  LsmTable table(rig.context(), {.memtable_capacity_items = 8});
  for (const auto k : distinctKeys(200)) table.insert(k, k + 1);
  expectGreen(auditOf(table));

  const BlockId extent = exthash::tables::AuditPeer::firstRunExtent(table);
  ASSERT_NE(extent, kInvalidBlock);
  // Swap the first two records of the run's first block: keys now out of
  // order, and the block's first key no longer matches its fence pointer.
  rig.device->withWrite(extent, [&](std::span<Word> w) {
    std::swap(w[2], w[4]);
    std::swap(w[3], w[5]);
  });
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("lsm")) << corrupted.summary();
  rig.device->withWrite(extent, [&](std::span<Word> w) {
    std::swap(w[2], w[4]);
    std::swap(w[3], w[5]);
  });
  expectGreen(auditOf(table));
}

// ---------------------------------------------------------------------------
// Buffer B-tree.

TEST(Audit, BufferBTreeDetectsNodeLedgerDrift) {
  TestRig rig(8);
  BufferBTreeTable table(rig.context());
  for (const auto k : distinctKeys(400)) table.insert(k, k + 1);
  expectGreen(auditOf(table));
  ASSERT_GE(table.height(), 2u);

  ++exthash::tables::AuditPeer::nodeBlocks(table);
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("buffer-btree")) << corrupted.summary();
  --exthash::tables::AuditPeer::nodeBlocks(table);
  expectGreen(auditOf(table));
}

TEST(Audit, BufferBTreeDetectsNodeCountCorruption) {
  TestRig rig(8);
  BufferBTreeTable table(rig.context());
  for (const auto k : distinctKeys(400)) table.insert(k, k + 1);
  ASSERT_GE(table.height(), 2u);

  // Every allocated block on this device is a tree node; blow up the
  // record/pivot count of the first one. The audit must reject it from
  // the raw header alone (it never trusts the count enough to iterate).
  std::optional<BlockId> victim;
  for (BlockId id = 0; id < rig.device->idSpaceSize(); ++id) {
    if (rig.device->isAllocated(id)) {
      victim = id;
      break;
    }
  }
  ASSERT_TRUE(victim.has_value());
  Word saved = 0;
  rig.device->withWrite(*victim, [&](std::span<Word> w) {
    saved = w[0];
    w[0] = (w[0] & ~0xffffffffULL) | 0x0fffffffULL;
  });
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("buffer-btree")) << corrupted.summary();
  rig.device->withWrite(*victim, [&](std::span<Word> w) { w[0] = saved; });
  expectGreen(auditOf(table));
}

// ---------------------------------------------------------------------------
// Logarithmic method (recursive audit of the level tables).

TEST(Audit, LogMethodDetectsLevelLedgerDrift) {
  TestRig rig(8);
  LogMethodTable table(rig.context(), {.gamma = 2, .h0_capacity_items = 8});
  for (const auto k : distinctKeys(200)) table.insert(k, k + 1);
  expectGreen(auditOf(table));

  ChainingHashTable* level = exthash::tables::AuditPeer::firstLevel(table);
  ASSERT_NE(level, nullptr);
  ++exthash::tables::AuditPeer::size(*level);
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  // The recursion surfaces the inner chaining audit's finding.
  EXPECT_TRUE(corrupted.mentions("chaining")) << corrupted.summary();
  --exthash::tables::AuditPeer::size(*level);
  expectGreen(auditOf(table));
}

// ---------------------------------------------------------------------------
// Sharded façade: the audit recurses into every shard (and their
// auto-attached caches, via the base-class hook).

TEST(Audit, ShardedRecursesIntoShardsAndCaches) {
  TestRig rig(8);
  GeneralConfig config;
  config.shards = 2;
  config.sharded_inner = TableKind::kChaining;
  config.expected_n = 256;
  config.shard_threads = 2;
  config.shard_cache_frames = 4;
  ShardedTable table(rig.context(), config);
  const auto keys = distinctKeys(200);
  for (const auto k : keys) table.insert(k, k + 1);
  for (const auto k : keys) EXPECT_TRUE(table.lookup(k).has_value());
  expectGreen(auditOf(table));

  auto& inner = dynamic_cast<ChainingHashTable&>(table.shard(0));
  ++exthash::tables::AuditPeer::size(inner);
  const AuditReport corrupted = auditOf(table);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("chaining")) << corrupted.summary();
  --exthash::tables::AuditPeer::size(inner);
  expectGreen(auditOf(table));
}

// ---------------------------------------------------------------------------
// Block cache: partition, dirty accounting, and charge reconciliation.

TEST(Audit, BlockCacheCleanAuditPasses) {
  BlockDevice dev(wordsForRecordCapacity(4));
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 4, BlockCache::WritePolicy::kWriteBack);
  for (int i = 0; i < 6; ++i) {
    const BlockId id = dev.allocate();
    cache.withWrite(id, [&](std::span<Word> w) { w[2] = 7; });
  }
  AuditReport report;
  cache.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.checks(), 0u);
}

TEST(Audit, BlockCacheDetectsDirtyCounterDrift) {
  BlockDevice dev(wordsForRecordCapacity(4));
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 4, BlockCache::WritePolicy::kWriteBack);
  const BlockId id = dev.allocate();
  cache.withWrite(id, [&](std::span<Word> w) { w[2] = 7; });

  ++exthash::extmem::AuditPeer::dirtyBlocks(cache);
  AuditReport corrupted;
  cache.audit(corrupted);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("block-cache")) << corrupted.summary();
  --exthash::extmem::AuditPeer::dirtyBlocks(cache);
  AuditReport restored;
  cache.audit(restored);
  EXPECT_TRUE(restored.ok()) << restored.summary();
}

TEST(Audit, BlockCacheDetectsPolicyPartitionDesync) {
  BlockDevice dev(wordsForRecordCapacity(4));
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 4);  // write-through: frames stay clean
  for (int i = 0; i < 3; ++i) {
    const BlockId id = dev.allocate();
    cache.withRead(id, [](std::span<const Word>) {});
  }
  AuditReport green;
  cache.audit(green);
  ASSERT_TRUE(green.ok()) << green.summary();

  exthash::extmem::AuditPeer::dropOneFrame(cache);
  AuditReport corrupted;
  cache.audit(corrupted);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("block-cache")) << corrupted.summary();
}

TEST(Audit, BlockCacheDetectsBudgetChargeDrift) {
  BlockDevice dev(wordsForRecordCapacity(4));
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 4);
  const BlockId id = dev.allocate();
  cache.withRead(id, [](std::span<const Word>) {});

  auto& charge = exthash::extmem::AuditPeer::charge(cache);
  const std::size_t saved = charge.words();
  charge.resize(1);
  AuditReport corrupted;
  cache.audit(corrupted);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("block-cache")) << corrupted.summary();
  charge.resize(saved);
  AuditReport restored;
  cache.audit(restored);
  EXPECT_TRUE(restored.ok()) << restored.summary();
}

// ---------------------------------------------------------------------------
// Memory arbiter: the conserved frame total must match real capacities.

TEST(Audit, ArbiterDetectsCapacityDrift) {
  BlockDevice dev(wordsForRecordCapacity(4));
  MemoryBudget budget(0);
  BlockCache cache(dev, budget, 4, BlockCache::WritePolicy::kWriteThrough,
                   exthash::extmem::ReplacementKind::kArc);
  MemoryArbiter arbiter;
  arbiter.addCache(&cache);
  AuditReport green;
  arbiter.audit(green);
  ASSERT_TRUE(green.ok()) << green.summary();
  EXPECT_GT(green.checks(), 0u);

  // Resize the cache behind the arbiter's back: its cache_frames_ ledger
  // no longer matches the summed real capacities.
  cache.resize(6);
  AuditReport corrupted;
  arbiter.audit(corrupted);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("memory-arbiter")) << corrupted.summary();
  cache.resize(4);
  AuditReport restored;
  arbiter.audit(restored);
  EXPECT_TRUE(restored.ok()) << restored.summary();
}

// ---------------------------------------------------------------------------
// Pipeline: operation ledger and staging-charge reconciliation.

TEST(Audit, PipelineCleanAuditPasses) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {.bucket_count = 16});
  IngestPipeline pipeline(table, {.batch_capacity = 32});
  const auto keys = distinctKeys(100);
  for (const auto k : keys) pipeline.insert(k, k + 1);
  auto hit = pipeline.submitLookup(keys[0]);
  auto miss = pipeline.submitLookup(0xD00DULL);
  pipeline.drain();
  EXPECT_TRUE(hit.get().has_value());
  EXPECT_FALSE(miss.get().has_value());

  AuditReport report;
  pipeline.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.checks(), 0u);
}

TEST(Audit, PipelineDetectsOperationLedgerDrift) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {.bucket_count = 16});
  IngestPipeline pipeline(table, {.batch_capacity = 32});
  for (const auto k : distinctKeys(100)) pipeline.insert(k, k + 1);
  pipeline.drain();

  exthash::pipeline::AuditPeer::bumpSubmitted(pipeline, 7);
  AuditReport corrupted;
  pipeline.audit(corrupted);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("pipeline")) << corrupted.summary();
  exthash::pipeline::AuditPeer::unbumpSubmitted(pipeline, 7);
  AuditReport restored;
  pipeline.audit(restored);
  EXPECT_TRUE(restored.ok()) << restored.summary();
}

TEST(Audit, PipelineDetectsStagingChargeDrift) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {.bucket_count = 16});
  PipelineConfig config;
  config.batch_capacity = 16;
  config.budget = rig.memory.get();
  IngestPipeline pipeline(table, config);
  for (const auto k : distinctKeys(40)) pipeline.insert(k, k + 1);
  pipeline.drain();
  AuditReport green;
  pipeline.audit(green);
  ASSERT_TRUE(green.ok()) << green.summary();

  exthash::pipeline::AuditPeer::zeroStagingCharge(pipeline);
  AuditReport corrupted;
  pipeline.audit(corrupted);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(corrupted.mentions("pipeline")) << corrupted.summary();
  exthash::pipeline::AuditPeer::restoreStagingCharge(pipeline);
  AuditReport restored;
  pipeline.audit(restored);
  EXPECT_TRUE(restored.ok()) << restored.summary();
}

// ---------------------------------------------------------------------------
// Report plumbing.

TEST(Audit, ThrowIfFailedCarriesTheSummary) {
  AuditReport report;
  report.tally();
  EXPECT_NO_THROW(report.throwIfFailed());
  report.fail("test-component", "x == y", "x=1 y=2");
  try {
    report.throwIfFailed();
    FAIL() << "expected CheckFailure";
  } catch (const exthash::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("test-component"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("x == y"), std::string::npos);
  }
}

}  // namespace
