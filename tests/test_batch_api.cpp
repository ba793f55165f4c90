// Batch-equivalence sweep: applyBatch / lookupBatch must be
// observationally equivalent to the serial insert/erase/lookup loop for
// every TableKind — including the sharded façade — under mixed
// insert/erase batches and duplicate keys within one batch.
//
// Equivalence is judged on what a caller can observe: lookup results over
// the whole op universe, size() where the structure documents it as exact,
// and visitLayout contents (full multiset equality for in-place tables;
// deferred structures keep shadowed versions, so their layout must contain
// every live pair).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "extmem/memory_budget.h"
#include "table_test_util.h"
#include "tables/batch_util.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"

namespace exthash::tables {
namespace {

using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

struct BatchCase {
  TableKind kind;
  bool supports_erase;
  /// Layout multisets match the serial loop exactly (in-place tables);
  /// deferred structures only promise the live content is present.
  bool exact_layout;
  /// size() stays exact under duplicate keys in one batch. Deferred
  /// structures count freshness against flush epochs, which batching
  /// shifts (documented contract; exact for distinct keys either way).
  bool exact_size_on_duplicates;
  /// Re-inserting a key reliably surfaces the newest value via lookup().
  /// The buffered table documents shadow-visible old versions whose
  /// choice depends on merge timing, which batching legitimately shifts.
  bool supports_update = true;
  /// Sharded inner kind (kSharded rows only).
  TableKind inner = TableKind::kChaining;
};
static_assert(exthash::testing::kPrintsStably<BatchCase>);

class PairVisitor : public LayoutVisitor {
 public:
  void memoryItem(const Record& r) override { items.emplace_back(r.key, r.value); }
  void diskItem(extmem::BlockId, const Record& r) override {
    items.emplace_back(r.key, r.value);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted() const {
    auto v = items;
    std::sort(v.begin(), v.end());
    return v;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items;
};

class BatchApiTest : public ::testing::TestWithParam<BatchCase> {
 protected:
  static constexpr std::size_t kB = 8;

  std::unique_ptr<ExternalHashTable> makeFor(const TestRig& rig,
                                             std::size_t expected_n) const {
    GeneralConfig cfg;
    cfg.expected_n = expected_n;
    cfg.target_load = 0.5;
    cfg.buffer_items = 32;
    cfg.beta = 4;
    cfg.gamma = 2;
    cfg.shards = 4;
    cfg.sharded_inner = GetParam().inner;
    cfg.shard_threads = 2;
    return makeTable(GetParam().kind, rig.context(), cfg);
  }

  /// Apply ops serially through the single-op interface.
  static void applySerial(ExternalHashTable& table,
                          const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      if (op.kind == OpKind::kInsert) table.insert(op.key, op.value);
      else table.erase(op.key);
    }
  }

  /// Apply ops through applyBatch in chunks.
  static void applyChunked(ExternalHashTable& table,
                           const std::vector<Op>& ops, std::size_t chunk) {
    for (std::size_t i = 0; i < ops.size(); i += chunk) {
      const std::size_t n = std::min(chunk, ops.size() - i);
      table.applyBatch(std::span<const Op>(ops.data() + i, n));
    }
  }

  void expectEquivalent(ExternalHashTable& serial, ExternalHashTable& batched,
                        const std::vector<std::uint64_t>& universe,
                        bool exact_size) {
    if (exact_size) {
      EXPECT_EQ(serial.size(), batched.size());
    }

    // Per-key observations agree, and lookupBatch agrees with lookup.
    std::vector<std::optional<std::uint64_t>> batch_out(universe.size());
    batched.lookupBatch(universe, batch_out);
    std::map<std::uint64_t, std::uint64_t> live;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      const auto expected = serial.lookup(universe[i]);
      ASSERT_EQ(batched.lookup(universe[i]), expected)
          << tableKindName(GetParam().kind) << " key " << universe[i];
      ASSERT_EQ(batch_out[i], expected)
          << tableKindName(GetParam().kind) << " lookupBatch key "
          << universe[i];
      if (expected) live.emplace(universe[i], *expected);
    }

    PairVisitor serial_layout, batched_layout;
    serial.visitLayout(serial_layout);
    batched.visitLayout(batched_layout);
    if (GetParam().exact_layout) {
      EXPECT_EQ(serial_layout.sorted(), batched_layout.sorted());
    } else {
      // Deferred structures: the newest version of every live pair must
      // appear somewhere in the batched table's layout.
      const auto pairs = batched_layout.sorted();
      for (const auto& [key, value] : live) {
        EXPECT_TRUE(std::binary_search(pairs.begin(), pairs.end(),
                                       std::make_pair(key, value)))
            << tableKindName(GetParam().kind) << " lost live pair ("
            << key << ", " << value << ")";
      }
    }
  }
};

TEST_P(BatchApiTest, InsertOnlyDistinctKeysEquivalent) {
  TestRig serial_rig(kB), batched_rig(kB);
  auto serial = makeFor(serial_rig, 512);
  auto batched = makeFor(batched_rig, 512);

  const auto keys = distinctKeys(512);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(Op::insertOp(keys[i], i + 1));
  }
  applySerial(*serial, ops);
  applyChunked(*batched, ops, 128);

  auto universe = keys;
  const auto absent = distinctKeys(64, /*seed=*/4242);
  universe.insert(universe.end(), absent.begin(), absent.end());
  expectEquivalent(*serial, *batched, universe, /*exact_size=*/true);
}

TEST_P(BatchApiTest, DuplicateKeysWithinBatchEquivalent) {
  if (!GetParam().supports_update) GTEST_SKIP();
  TestRig serial_rig(kB), batched_rig(kB);
  auto serial = makeFor(serial_rig, 256);
  auto batched = makeFor(batched_rig, 256);

  // Every key appears ~3 times with increasing values: the last write in
  // arrival order must win in both protocols.
  const auto keys = distinctKeys(200);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < 600; ++i) {
    ops.push_back(Op::insertOp(keys[i % keys.size()], 1000 + i));
  }
  applySerial(*serial, ops);
  applyChunked(*batched, ops, 250);

  expectEquivalent(*serial, *batched, keys,
                   GetParam().exact_size_on_duplicates);
}

TEST_P(BatchApiTest, MixedInsertEraseBatchesEquivalent) {
  if (!GetParam().supports_erase) {
    TestRig rig(kB);
    auto table = makeFor(rig, 64);
    const std::vector<Op> ops = {Op::insertOp(1, 1), Op::eraseOp(1)};
    EXPECT_THROW(table->applyBatch(ops), UnsupportedOperation);
    return;
  }

  TestRig serial_rig(kB), batched_rig(kB);
  auto serial = makeFor(serial_rig, 256);
  auto batched = makeFor(batched_rig, 256);

  // Mixed stream with duplicates: inserts, erases of live and missing
  // keys, and erase-then-reinsert of the same key inside one chunk.
  const auto keys = distinctKeys(200);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < 700; ++i) {
    const std::uint64_t key = keys[i % keys.size()];
    if (i % 7 == 3) {
      ops.push_back(Op::eraseOp(keys[(i * 3) % keys.size()]));
    } else if (i % 11 == 5) {
      ops.push_back(Op::eraseOp(key));
      ops.push_back(Op::insertOp(key, 5000 + i));
    } else {
      ops.push_back(Op::insertOp(key, 1000 + i));
    }
  }
  applySerial(*serial, ops);
  applyChunked(*batched, ops, 200);

  expectEquivalent(*serial, *batched, keys,
                   GetParam().exact_size_on_duplicates);
}

TEST_P(BatchApiTest, EmptyAndSingletonBatches) {
  TestRig rig(kB);
  auto table = makeFor(rig, 64);
  table->applyBatch({});  // no-op
  EXPECT_EQ(table->size(), 0u);
  const std::vector<Op> one = {Op::insertOp(77, 7)};
  table->applyBatch(one);
  EXPECT_EQ(table->size(), 1u);
  EXPECT_EQ(table->lookup(77).value(), 7u);
  std::vector<std::uint64_t> keys = {77, 78};
  std::vector<std::optional<std::uint64_t>> out(2);
  table->lookupBatch(keys, out);
  EXPECT_EQ(out[0], std::optional<std::uint64_t>(7));
  EXPECT_FALSE(out[1].has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, BatchApiTest,
    ::testing::Values(
        BatchCase{TableKind::kChaining, true, true, true},
        BatchCase{TableKind::kLinearProbing, true, true, true},
        BatchCase{TableKind::kExtendible, true, true, true},
        BatchCase{TableKind::kLinearHashing, true, true, true},
        BatchCase{TableKind::kLogMethod, true, false, false},
        BatchCase{TableKind::kBuffered, false, false, false, false},
        BatchCase{TableKind::kJensenPagh, true, true, true},
        BatchCase{TableKind::kBTree, true, true, true},
        BatchCase{TableKind::kLsm, true, false, false},
        BatchCase{TableKind::kCuckoo, true, true, true},
        BatchCase{TableKind::kBufferBTree, true, false, false},
        BatchCase{TableKind::kSharded, true, true, true, true,
                  TableKind::kChaining},
        BatchCase{TableKind::kSharded, false, false, false, false,
                  TableKind::kBuffered}),
    [](const ::testing::TestParamInfo<BatchCase>& info) {
      std::string name(tableKindName(info.param.kind));
      if (info.param.kind == TableKind::kSharded) {
        name += "_";
        name += tableKindName(info.param.inner);
      }
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// The point of the API: batching must be strictly cheaper where the
// structure can group work, at batch sizes >= the block capacity b.
// ---------------------------------------------------------------------------

std::vector<Op> insertOps(std::size_t n) {
  const auto keys = distinctKeys(n, /*seed=*/99);
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops.push_back(Op::insertOp(keys[i], i + 1));
  }
  return ops;
}

// The grouping every bucketed batch path shares: ascending bucket, batch
// order within a bucket — exactly a comparison sort of the (bucket, index)
// pairs, whatever the batch size and however many bucket bytes vary. The
// radix pass's second buffer is charged only while it lives.
TEST(BatchUtil, OrderByBucketMatchesSortReference) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  std::mt19937_64 rng(22);
  for (const std::size_t n : {0, 1, 2, 255, 256, 4096}) {
    std::vector<std::pair<const char*, std::vector<std::uint64_t>>> cases;
    const auto add = [&](const char* name, auto&& bucket) {
      std::vector<std::uint64_t> buckets(n);
      for (std::size_t i = 0; i < n; ++i) buckets[i] = bucket(i);
      cases.emplace_back(name, std::move(buckets));
    };
    // Uniform buckets below 1, 255, 3,691 (the thm2-ingest benchmark's
    // Ĥ), 2^20 and 2^40: zero, one, two, three and five low bytes vary.
    for (const std::uint64_t range :
         {std::uint64_t{1}, std::uint64_t{255}, std::uint64_t{3691},
          std::uint64_t{1} << 20, std::uint64_t{1} << 40}) {
      add("uniform", [&](std::size_t) { return rng() % range; });
    }
    add("full 64-bit", [&](std::size_t i) {
      return i % 5 == 0 ? kTop : i % 7 == 0 ? 0 : rng();
    });
    add("all equal", [&](std::size_t) { return kTop; });
    add("ascending", [&](std::size_t i) { return i; });
    add("descending", [&](std::size_t i) { return kTop - i; });
    add("descending, high bytes",
        [&](std::size_t i) { return (n - i) << 40; });

    for (const auto& [name, buckets] : cases) {
      std::vector<std::pair<std::uint64_t, std::size_t>> expected;
      for (std::size_t i = 0; i < n; ++i) expected.emplace_back(buckets[i], i);
      std::sort(expected.begin(), expected.end());
      extmem::MemoryBudget memory;
      const auto order = batch::orderByBucket(
          memory, n, [&](std::size_t i) { return buckets[i]; });
      EXPECT_EQ(order, expected) << name << ", n=" << n;
      const bool varies =
          std::any_of(buckets.begin(), buckets.end(),
                      [&](std::uint64_t b) { return b != buckets.front(); });
      EXPECT_EQ(memory.peak(), varies ? 2 * n : 0) << name << ", n=" << n;
      EXPECT_EQ(memory.used(), 0u) << name << ", n=" << n;
    }
  }
}

std::uint64_t costOf(TableKind kind, std::size_t b, std::size_t n,
                     std::size_t batch, const GeneralConfig& cfg) {
  TestRig rig(b);
  auto table = makeTable(kind, rig.context(), cfg);
  const auto ops = insertOps(n);
  const extmem::IoStats before = table->ioStats();
  for (std::size_t i = 0; i < ops.size(); i += batch) {
    const std::size_t len = std::min(batch, ops.size() - i);
    table->applyBatch(std::span<const Op>(ops.data() + i, len));
  }
  return (table->ioStats() - before).cost();
}

TEST(BatchBeatsSerial, ChainingAtBatchSizeB) {
  constexpr std::size_t kB = 16, kN = 4096;
  GeneralConfig cfg;
  cfg.expected_n = kN;
  cfg.target_load = 0.5;
  const std::uint64_t serial = costOf(TableKind::kChaining, kB, kN, 1, cfg);
  const std::uint64_t batched =
      costOf(TableKind::kChaining, kB, kN, 1024, cfg);
  EXPECT_LT(batched, serial) << "serial=" << serial
                             << " batched=" << batched;
}

TEST(BatchBeatsSerial, BufferedAtBatchSizeB) {
  constexpr std::size_t kB = 16, kN = 4096;
  GeneralConfig cfg;
  cfg.expected_n = kN;
  cfg.buffer_items = 64;
  cfg.beta = 4;
  const std::uint64_t serial = costOf(TableKind::kBuffered, kB, kN, 1, cfg);
  const std::uint64_t batched =
      costOf(TableKind::kBuffered, kB, kN, 1024, cfg);
  EXPECT_LT(batched, serial) << "serial=" << serial
                             << " batched=" << batched;
}

TEST(BatchBeatsSerial, CuckooAtBatchSizeB) {
  constexpr std::size_t kB = 16, kN = 4096;
  GeneralConfig cfg;
  cfg.expected_n = kN;
  cfg.target_load = 0.5;
  const std::uint64_t serial = costOf(TableKind::kCuckoo, kB, kN, 1, cfg);
  const std::uint64_t batched = costOf(TableKind::kCuckoo, kB, kN, 1024, cfg);
  EXPECT_LT(batched, serial) << "serial=" << serial
                             << " batched=" << batched;
}

TEST(BatchBeatsSerial, LinearProbingAtBatchSizeB) {
  constexpr std::size_t kB = 16, kN = 4096;
  GeneralConfig cfg;
  cfg.expected_n = kN;
  cfg.target_load = 0.5;
  const std::uint64_t serial =
      costOf(TableKind::kLinearProbing, kB, kN, 1, cfg);
  const std::uint64_t batched =
      costOf(TableKind::kLinearProbing, kB, kN, 1024, cfg);
  EXPECT_LT(batched, serial) << "serial=" << serial
                             << " batched=" << batched;
}

TEST(BatchBeatsSerial, JensenPaghAtBatchSizeB) {
  // One rmw per primary-bucket group instead of one per op; overflow-bound
  // ops ride the chaining table's own grouped batch.
  constexpr std::size_t kB = 16, kN = 4096;
  GeneralConfig cfg;
  cfg.expected_n = kN;
  const std::uint64_t serial = costOf(TableKind::kJensenPagh, kB, kN, 1, cfg);
  const std::uint64_t batched =
      costOf(TableKind::kJensenPagh, kB, kN, 1024, cfg);
  EXPECT_LT(batched, serial) << "serial=" << serial
                             << " batched=" << batched;
}

TEST(BatchBeatsSerial, BTreeAtBatchSizeB) {
  // One descent + one rmw per leaf touched instead of per op.
  constexpr std::size_t kB = 16, kN = 4096;
  GeneralConfig cfg;
  cfg.expected_n = kN;
  const std::uint64_t serial = costOf(TableKind::kBTree, kB, kN, 1, cfg);
  const std::uint64_t batched = costOf(TableKind::kBTree, kB, kN, 1024, cfg);
  EXPECT_LT(batched, serial) << "serial=" << serial
                             << " batched=" << batched;
}

// Erase-heavy batches on the deferred tables: the presence probes must be
// grouped (one bucket/block-grouped pass per level or run), not one full
// probe cascade per erased key.
std::uint64_t eraseCostOf(TableKind kind, std::size_t b, std::size_t n,
                          std::size_t batch, const GeneralConfig& cfg) {
  TestRig rig(b);
  auto table = makeTable(kind, rig.context(), cfg);
  // Identical population in both arms (batched, so the pre-erase layout
  // matches exactly); only the erase phase is measured.
  table->applyBatch(insertOps(n));
  const auto keys = distinctKeys(n, /*seed=*/99);
  const auto missing = distinctKeys(n / 4, /*seed=*/4243);
  std::vector<Op> erases;
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    erases.push_back(Op::eraseOp(keys[i]));
    if (i / 2 < missing.size()) erases.push_back(Op::eraseOp(missing[i / 2]));
  }
  const extmem::IoStats before = table->ioStats();
  for (std::size_t i = 0; i < erases.size(); i += batch) {
    const std::size_t len = std::min(batch, erases.size() - i);
    table->applyBatch(std::span<const Op>(erases.data() + i, len));
  }
  return (table->ioStats() - before).cost();
}

TEST(BatchBeatsSerial, LogMethodEraseBatchGroupsPresenceProbes) {
  constexpr std::size_t kB = 16, kN = 4096;
  GeneralConfig cfg;
  cfg.expected_n = kN;
  cfg.buffer_items = 64;
  cfg.gamma = 2;
  const std::uint64_t serial = eraseCostOf(TableKind::kLogMethod, kB, kN, 1, cfg);
  const std::uint64_t batched =
      eraseCostOf(TableKind::kLogMethod, kB, kN, 1024, cfg);
  EXPECT_LT(batched, serial) << "serial=" << serial
                             << " batched=" << batched;
}

TEST(BatchBeatsSerial, LsmEraseBatchGroupsPresenceProbes) {
  constexpr std::size_t kB = 16, kN = 4096;
  GeneralConfig cfg;
  cfg.expected_n = kN;
  cfg.buffer_items = 64;
  const std::uint64_t serial = eraseCostOf(TableKind::kLsm, kB, kN, 1, cfg);
  const std::uint64_t batched = eraseCostOf(TableKind::kLsm, kB, kN, 1024, cfg);
  EXPECT_LT(batched, serial) << "serial=" << serial
                             << " batched=" << batched;
}

TEST(ShardedTableTest, VisitLayoutNamespacesBlockIdsByShard) {
  TestRig rig(8);
  GeneralConfig cfg;
  cfg.expected_n = 512;
  cfg.shards = 4;
  cfg.sharded_inner = TableKind::kChaining;
  auto table = makeTable(TableKind::kSharded, rig.context(), cfg);
  const auto ops = insertOps(512);
  table->applyBatch(ops);

  // Collect (shard, local id) per visited disk block. Shards' private
  // devices hand out numerically colliding small ids; the namespaced ids
  // must stay distinct across shards and decode back cleanly.
  struct BlockVisitor : LayoutVisitor {
    std::map<std::size_t, std::set<extmem::BlockId>> local_ids_by_shard;
    std::set<extmem::BlockId> namespaced;
    std::size_t items = 0;
    void diskItem(extmem::BlockId block, const Record&) override {
      ++items;
      namespaced.insert(block);
      local_ids_by_shard[ShardedTable::shardOfBlockId(block)].insert(
          ShardedTable::localBlockId(block));
    }
  } visitor;
  table->visitLayout(visitor);

  EXPECT_EQ(visitor.items, 512u);
  EXPECT_EQ(visitor.local_ids_by_shard.size(), 4u);
  for (const auto& [shard, ids] : visitor.local_ids_by_shard) {
    EXPECT_LT(shard, 4u);
  }
  // The per-shard local id ranges overlap (every shard allocates from 0),
  // yet the namespaced ids are collision-free: their count equals the sum
  // of per-shard block counts.
  std::size_t total_local = 0;
  for (const auto& [shard, ids] : visitor.local_ids_by_shard) {
    total_local += ids.size();
  }
  EXPECT_EQ(visitor.namespaced.size(), total_local);
  std::set<extmem::BlockId> local_union;
  for (const auto& [shard, ids] : visitor.local_ids_by_shard) {
    local_union.insert(ids.begin(), ids.end());
  }
  EXPECT_LT(local_union.size(), total_local)
      << "shards' raw ids no longer collide; the namespacing test lost "
         "its premise";

  // primaryBlockOf is namespaced the same way and points into the owning
  // shard's visited blocks.
  for (std::size_t i = 0; i < 32; ++i) {
    const auto primary = table->primaryBlockOf(ops[i].key);
    ASSERT_TRUE(primary.has_value());
    EXPECT_LT(ShardedTable::shardOfBlockId(*primary), 4u);
  }
}

TEST(ShardedTableTest, AggregatesIoAcrossPrivateDevices) {
  TestRig rig(8);
  GeneralConfig cfg;
  cfg.expected_n = 512;
  cfg.buffer_items = 32;
  cfg.shards = 4;
  cfg.sharded_inner = TableKind::kChaining;
  auto table = makeTable(TableKind::kSharded, rig.context(), cfg);
  const auto ops = insertOps(512);
  table->applyBatch(ops);
  EXPECT_EQ(table->size(), 512u);
  // All I/O lands on the shards' private devices, none on the context one.
  EXPECT_GT(table->ioStats().cost(), 0u);
  EXPECT_EQ(rig.device->stats().cost(), 0u);

  auto* sharded = dynamic_cast<ShardedTable*>(table.get());
  ASSERT_NE(sharded, nullptr);
  extmem::IoStats sum;
  for (std::size_t s = 0; s < sharded->shardCount(); ++s) {
    sum += sharded->shardDevice(s).stats();
  }
  EXPECT_EQ(sum.cost(), table->ioStats().cost());
  EXPECT_GE(sharded->shardCount(), 4u);
}

}  // namespace
}  // namespace exthash::tables
