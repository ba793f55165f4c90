// Cross-structure property tests: every dictionary in the library must
// satisfy the same functional contract regardless of its internals.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_set>

#include "lowerbound/zones.h"
#include "table_test_util.h"
#include "tables/factory.h"

namespace exthash::tables {
namespace {

using exthash::testing::CountingVisitor;
using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

struct PropertyCase {
  TableKind kind;
  bool supports_erase;
  bool supports_update;  // re-insert returns newest value via lookup()
  // size() is exact under updates. Deferred structures (log-method, LSM)
  // deliberately skip the duplicate check on insert — an I/O-free insert
  // cannot know whether the key exists on disk — so their logical size
  // over-counts re-inserted keys (documented contract).
  bool exact_size_on_update = true;
  std::uint8_t unused = 0;  // fills what would be padding (kPrintsStably)
};
static_assert(exthash::testing::kPrintsStably<PropertyCase>);

class TablePropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  static constexpr std::size_t kB = 8;

  std::unique_ptr<ExternalHashTable> makeFor(const TestRig& rig,
                                             std::size_t expected_n) const {
    GeneralConfig cfg;
    cfg.expected_n = expected_n;
    cfg.target_load = 0.5;
    cfg.buffer_items = 16;
    cfg.beta = 4;
    cfg.gamma = 2;
    return makeTable(GetParam().kind, rig.context(), cfg);
  }
};

TEST_P(TablePropertyTest, NoFalseNegativesNoFalsePositives) {
  TestRig rig(kB);
  auto table = makeFor(rig, 512);
  const auto keys = distinctKeys(512);
  const auto absent = distinctKeys(128, /*seed=*/4242);
  std::unordered_set<std::uint64_t> present(keys.begin(), keys.end());

  for (std::size_t i = 0; i < keys.size(); ++i) {
    table->insert(keys[i], i + 1);
    if (i % 64 == 63) {
      // Every inserted key findable; sampled absent keys not.
      for (std::size_t j = 0; j <= i; j += 19) {
        ASSERT_EQ(table->lookup(keys[j]).value(), j + 1)
            << tableKindName(GetParam().kind) << " lost key " << j;
      }
      for (const auto a : absent) {
        if (!present.contains(a)) {
          ASSERT_FALSE(table->lookup(a).has_value());
        }
      }
    }
  }
  EXPECT_EQ(table->size(), keys.size());
}

TEST_P(TablePropertyTest, LayoutConservesItems) {
  TestRig rig(kB);
  auto table = makeFor(rig, 300);
  const auto keys = distinctKeys(300);
  for (const auto k : keys) table->insert(k, 7);
  CountingVisitor visitor;
  table->visitLayout(visitor);
  // Disk may hold shadowed duplicates (LSM runs); distinct keys must cover
  // exactly the inserted set.
  std::unordered_set<std::uint64_t> seen(visitor.keys.begin(),
                                         visitor.keys.end());
  EXPECT_EQ(seen.size(), keys.size());
  for (const auto k : keys) EXPECT_TRUE(seen.contains(k));
}

TEST_P(TablePropertyTest, ZoneAccountingAddsUp) {
  TestRig rig(kB);
  auto table = makeFor(rig, 400);
  const auto keys = distinctKeys(400);
  for (const auto k : keys) table->insert(k, 1);
  const auto zones = lowerbound::analyzeZones(*table);
  EXPECT_EQ(zones.total_items, keys.size());
  EXPECT_EQ(zones.memory_items + zones.fast_items + zones.slow_items,
            zones.total_items);
}

TEST_P(TablePropertyTest, UpdateSemantics) {
  if (!GetParam().supports_update) GTEST_SKIP();
  TestRig rig(kB);
  auto table = makeFor(rig, 128);
  const auto keys = distinctKeys(128);
  for (const auto k : keys) table->insert(k, 1);
  for (const auto k : keys) table->insert(k, 2);
  for (const auto k : keys) {
    ASSERT_EQ(table->lookup(k).value(), 2u)
        << tableKindName(GetParam().kind);
  }
  if (GetParam().exact_size_on_update) {
    EXPECT_EQ(table->size(), keys.size());
  }
}

TEST_P(TablePropertyTest, EraseSemantics) {
  if (!GetParam().supports_erase) {
    TestRig rig(kB);
    auto table = makeFor(rig, 16);
    table->insert(1, 1);
    EXPECT_THROW(table->erase(1), UnsupportedOperation);
    return;
  }
  TestRig rig(kB);
  auto table = makeFor(rig, 256);
  const auto keys = distinctKeys(256);
  for (const auto k : keys) table->insert(k, 1);
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(table->erase(keys[i]));
    EXPECT_FALSE(table->erase(keys[i]));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table->lookup(keys[i]).has_value(), i % 2 == 1);
  }
  EXPECT_EQ(table->size(), keys.size() / 2);
}

TEST_P(TablePropertyTest, RandomizedDifferentialAgainstStdMap) {
  if (!GetParam().supports_erase || !GetParam().supports_update)
    GTEST_SKIP();
  TestRig rig(kB);
  auto table = makeFor(rig, 256);
  std::map<std::uint64_t, std::uint64_t> reference;
  Xoshiro256StarStar rng(2024);
  const auto keyspace = distinctKeys(64, /*seed=*/77);
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t key = keyspace[rng.below(keyspace.size())];
    switch (rng.below(3)) {
      case 0: {
        const std::uint64_t value = rng.below(1 << 20) + 1;
        table->insert(key, value);
        reference[key] = value;
        break;
      }
      case 1: {
        const auto got = table->lookup(key);
        const auto want = reference.find(key);
        if (want == reference.end()) {
          ASSERT_FALSE(got.has_value()) << "op " << op;
        } else {
          ASSERT_TRUE(got.has_value()) << "op " << op;
          ASSERT_EQ(*got, want->second) << "op " << op;
        }
        break;
      }
      case 2: {
        const bool got = table->erase(key);
        ASSERT_EQ(got, reference.erase(key) > 0) << "op " << op;
        break;
      }
    }
  }
  for (const auto& [k, v] : reference) {
    ASSERT_EQ(table->lookup(k).value(), v);
  }
}

TEST_P(TablePropertyTest, FactoryNameRoundTrip) {
  EXPECT_EQ(parseTableKind(std::string(tableKindName(GetParam().kind))),
            GetParam().kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllTables, TablePropertyTest,
    ::testing::Values(
        PropertyCase{TableKind::kChaining, true, true, true},
        PropertyCase{TableKind::kLinearProbing, true, true, true},
        PropertyCase{TableKind::kExtendible, true, true, true},
        PropertyCase{TableKind::kLinearHashing, true, true, true},
        PropertyCase{TableKind::kLogMethod, true, true, false},
        PropertyCase{TableKind::kBuffered, false, false, false},
        PropertyCase{TableKind::kJensenPagh, true, true, true},
        PropertyCase{TableKind::kBTree, true, true, true},
        PropertyCase{TableKind::kLsm, true, true, false},
        PropertyCase{TableKind::kCuckoo, true, true, true},
        PropertyCase{TableKind::kBufferBTree, true, true, false}),
    [](const auto& info) {
      std::string name(tableKindName(info.param.kind));
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

}  // namespace
}  // namespace exthash::tables
