// BlockCache wiring into the tables' counted access paths: with a
// write-through cache attached, grouped batch reads (chain walks, probe
// runs) hit the cache — hits cost zero counted I/Os — while every mutation
// keeps the cache coherent with the device.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "extmem/block_cache.h"
#include "table_test_util.h"
#include "tables/chaining_table.h"
#include "tables/factory.h"

namespace exthash::tables {
namespace {

using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

struct CacheCase {
  TableKind kind;
};

class CacheWiringTest : public ::testing::TestWithParam<CacheCase> {
 protected:
  static constexpr std::size_t kB = 8;

  std::unique_ptr<ExternalHashTable> make(const TestRig& rig,
                                          std::size_t expected_n) const {
    GeneralConfig cfg;
    cfg.expected_n = expected_n;
    cfg.target_load = 0.5;
    return makeTable(GetParam().kind, rig.context(), cfg);
  }
};

TEST_P(CacheWiringTest, RepeatedBatchLookupsHitTheCache) {
  TestRig rig(kB);
  // Cache big enough to keep the whole primary area resident. Declared
  // before the table: the attach contract requires the cache to outlive
  // it (the table's destructor invalidates freed blocks through it).
  extmem::BlockCache cache(*rig.device, *rig.memory, 256,
                           extmem::BlockCache::WritePolicy::kWriteThrough);
  auto table = make(rig, 256);
  const auto keys = distinctKeys(256);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(Op::insertOp(keys[i], i + 1));
  }
  table->applyBatch(ops);
  table->attachCache(&cache);

  std::vector<std::optional<std::uint64_t>> out(keys.size());
  const extmem::IoStats before_warm = table->ioStats();
  table->lookupBatch(keys, out);
  const std::uint64_t warm_cost = (table->ioStats() - before_warm).cost();

  const extmem::IoStats before_hot = table->ioStats();
  table->lookupBatch(keys, out);
  const std::uint64_t hot_cost = (table->ioStats() - before_hot).cost();

  // The second pass reads only cache-resident blocks: zero counted I/O.
  EXPECT_GT(warm_cost, 0u);
  EXPECT_EQ(hot_cost, 0u) << tableKindName(GetParam().kind);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GE(cache.hitRate(), 0.5);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], std::optional<std::uint64_t>(i + 1));
  }
}

TEST_P(CacheWiringTest, WritesKeepCachedReadsCoherent) {
  TestRig rig(kB);
  // Cache before table: it must outlive the table (see above).
  extmem::BlockCache cache(*rig.device, *rig.memory, 128,
                           extmem::BlockCache::WritePolicy::kWriteThrough);
  auto table = make(rig, 128);
  table->attachCache(&cache);

  const auto keys = distinctKeys(128);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(Op::insertOp(keys[i], i + 1));
  }
  table->applyBatch(ops);

  // Populate the cache, then mutate through every path: serial insert
  // (update), batched update, erase.
  std::vector<std::optional<std::uint64_t>> out(keys.size());
  table->lookupBatch(keys, out);
  table->insert(keys[0], 9'001);
  std::vector<Op> updates = {Op::insertOp(keys[1], 9'002),
                             Op::insertOp(keys[2], 9'003)};
  table->applyBatch(updates);
  table->erase(keys[3]);

  table->lookupBatch(keys, out);
  EXPECT_EQ(out[0], std::optional<std::uint64_t>(9'001));
  EXPECT_EQ(out[1], std::optional<std::uint64_t>(9'002));
  EXPECT_EQ(out[2], std::optional<std::uint64_t>(9'003));
  EXPECT_FALSE(out[3].has_value());
  for (std::size_t i = 4; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], std::optional<std::uint64_t>(i + 1))
        << tableKindName(GetParam().kind);
  }
  EXPECT_EQ(table->lookup(keys[0]), std::optional<std::uint64_t>(9'001));
}

INSTANTIATE_TEST_SUITE_P(
    CachedKinds, CacheWiringTest,
    ::testing::Values(CacheCase{TableKind::kChaining},
                      CacheCase{TableKind::kLinearHashing},
                      CacheCase{TableKind::kExtendible}),
    [](const ::testing::TestParamInfo<CacheCase>& info) {
      std::string name(tableKindName(info.param.kind));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Overflow-chain growth and shrink under a cache: the rewrite frees and
// reallocates overflow blocks; stale frames must never serve old data.
TEST(CacheWiringChains, ChainRewriteInvalidatesFreedBlocks) {
  TestRig rig(4);  // tiny blocks force overflow chains
  // Cache before table: it must outlive the table (see above).
  extmem::BlockCache cache(*rig.device, *rig.memory, 64,
                           extmem::BlockCache::WritePolicy::kWriteThrough);
  ChainingConfig cfg;
  cfg.bucket_count = 2;  // heavy per-bucket load
  ChainingHashTable table(rig.context(), cfg);
  table.attachCache(&cache);

  const auto keys = distinctKeys(64);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(Op::insertOp(keys[i], i + 1));
  }
  table.applyBatch(ops);  // builds chains
  std::vector<std::optional<std::uint64_t>> out(keys.size());
  table.lookupBatch(keys, out);  // caches chain blocks

  // Erase half the keys in one batch: chains rewrite, overflow blocks are
  // freed (and may be reallocated by the rewrite).
  std::vector<Op> erases;
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    erases.push_back(Op::eraseOp(keys[i]));
  }
  table.applyBatch(erases);

  table.lookupBatch(keys, out);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_FALSE(out[i].has_value()) << "stale cached chain block";
    } else {
      ASSERT_EQ(out[i], std::optional<std::uint64_t>(i + 1));
    }
  }
}

}  // namespace
}  // namespace exthash::tables
