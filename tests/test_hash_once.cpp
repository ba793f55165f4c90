// The hash-once contract of the merge paths: h(key) is computed where a
// record enters a merge and carried from there on, so a rebuild costs a
// small constant number of hash calls per record, independent of how many
// comparisons its sorts and merges make.
#include <gtest/gtest.h>

#include "table_test_util.h"
#include "tables/chaining_table.h"
#include "tables/factory.h"

namespace exthash::tables {
namespace {

using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

/// Counts the calls made to the wrapped hash function.
class CountingHash final : public hashfn::HashFunction {
 public:
  explicit CountingHash(hashfn::HashPtr inner) : inner_(std::move(inner)) {}
  std::uint64_t operator()(std::uint64_t key) const override {
    ++calls_;
    return (*inner_)(key);
  }
  std::string_view name() const override { return inner_->name(); }
  std::uint64_t calls() const noexcept { return calls_; }
  void reset() noexcept { calls_ = 0; }

 private:
  hashfn::HashPtr inner_;
  mutable std::uint64_t calls_ = 0;
};

// scanInHashOrder hashes each record once to sort its bucket, and
// buildFromSorted once more to check the carried hash and the order.
TEST(HashOnce, ChainingRebuildMakesAtMostTwoCallsPerRecord) {
  TestRig rig(64);
  auto counting = std::make_shared<CountingHash>(rig.hash);
  TableContext ctx{rig.device.get(), rig.memory.get(), counting};
  constexpr std::size_t kRecords = 65'536;
  ChainingHashTable source(ctx, {2 * kRecords / 64, BucketIndexer{}});
  const auto keys = distinctKeys(kRecords);
  for (std::size_t i = 0; i < keys.size(); ++i) source.insert(keys[i], i);

  counting->reset();
  auto cursor = source.scanInHashOrder();
  auto rebuilt = ChainingHashTable::buildFromSorted(
      ctx, {3 * kRecords / 64, BucketIndexer{}}, *cursor);
  EXPECT_LE(counting->calls(), 2 * kRecords);

  ASSERT_EQ(rebuilt->size(), kRecords);
  for (std::size_t i = 0; i < keys.size(); i += 97) {
    ASSERT_EQ(rebuilt->lookup(keys[i]), i);
  }
}

// The Theorem-2 table in the benchmark's thm2-ingest configuration: every
// Ĥ merge, log-method migration and bulk build together stay within 13
// hash calls per insert.
TEST(HashOnce, BufferedIngestMakesAtMost13CallsPerInsert) {
  TestRig rig(64);
  auto counting = std::make_shared<CountingHash>(rig.hash);
  TableContext ctx{rig.device.get(), rig.memory.get(), counting};
  constexpr std::size_t kInserts = 131'072;
  constexpr std::size_t kBatch = 4096;
  GeneralConfig config;
  config.expected_n = kInserts;
  config.buffer_items = 4096;
  config.beta = 8;
  config.gamma = 2;
  auto table = makeTable(TableKind::kBuffered, ctx, config);

  const auto keys = distinctKeys(kInserts);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(Op::insertOp(keys[i], i + 1));
  }
  for (std::size_t off = 0; off < ops.size(); off += kBatch) {
    table->applyBatch(std::span<const Op>(ops).subspan(off, kBatch));
  }
  EXPECT_LE(counting->calls(), 13 * kInserts);

  ASSERT_EQ(table->size(), kInserts);
  for (std::size_t i = 0; i < keys.size(); i += 97) {
    ASSERT_EQ(table->lookup(keys[i]), i + 1);
  }
}

}  // namespace
}  // namespace exthash::tables
