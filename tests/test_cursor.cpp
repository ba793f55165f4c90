#include "tables/cursor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "hashfn/hash_family.h"
#include "util/random.h"

namespace exthash::tables {
namespace {

/// Key-ordered records carrying the key as their order value (the
/// identity hash), like the LSM's streams.
std::vector<HashedRecord> byKey(std::initializer_list<Record> rs) {
  const std::vector<Record> v(rs);
  return sortByHash(v, [](std::uint64_t key) { return key; });
}

std::unique_ptr<RecordCursor> source(std::vector<HashedRecord> records) {
  return std::make_unique<VectorCursor>(std::move(records));
}

/// Unlimited: these tests check merge results, not memory bounds.
extmem::MemoryBudget unlimited;

std::vector<HashedRecord> drain(RecordCursor& cursor) {
  std::vector<HashedRecord> out;
  forEachRecord(cursor, [&](const HashedRecord& r) { out.push_back(r); });
  return out;
}

std::vector<std::uint64_t> keysOf(const std::vector<HashedRecord>& rs) {
  std::vector<std::uint64_t> keys;
  for (const HashedRecord& r : rs) keys.push_back(r.record.key);
  return keys;
}

/// Hands out a sorted vector `chunk` records at a time.
class ChunkedCursor final : public RecordCursor {
 public:
  ChunkedCursor(std::vector<HashedRecord> records, std::size_t chunk)
      : records_(std::move(records)), chunk_(chunk) {}

  std::span<const HashedRecord> nextChunk() override {
    const std::span<const HashedRecord> all(records_);
    const std::size_t n = std::min(chunk_, all.size() - pos_);
    const auto out = all.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::vector<HashedRecord> records_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
};

TEST(VectorCursor, YieldsAllThenEmpty) {
  VectorCursor c(byKey({{1, 10}, {2, 20}}));
  const auto chunk = c.nextChunk();
  ASSERT_EQ(chunk.size(), 2u);
  EXPECT_EQ(chunk[0], (HashedRecord{1, {1, 10}}));
  EXPECT_EQ(chunk[1], (HashedRecord{2, {2, 20}}));
  EXPECT_TRUE(c.nextChunk().empty());
  EXPECT_TRUE(c.nextChunk().empty());
}

TEST(KWayMerger, MergesInOrder) {
  std::vector<std::unique_ptr<RecordCursor>> sources;
  sources.push_back(source(byKey({{1, 1}, {5, 5}, {9, 9}})));
  sources.push_back(source(byKey({{2, 2}, {6, 6}})));
  sources.push_back(source(byKey({{3, 3}, {4, 4}, {8, 8}})));
  KWayMerger merger(std::move(sources), false, unlimited);
  EXPECT_EQ(keysOf(drain(merger)),
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 8, 9}));
}

TEST(KWayMerger, NewestSourceWinsDuplicates) {
  std::vector<std::unique_ptr<RecordCursor>> sources;
  sources.push_back(source(byKey({{5, 500}})));  // source 0 = newest
  sources.push_back(source(byKey({{5, 50}, {7, 70}})));
  sources.push_back(source(byKey({{5, 5}, {7, 7}, {8, 8}})));
  KWayMerger merger(std::move(sources), false, unlimited);
  const auto out = drain(merger);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].record, (Record{5, 500}));
  EXPECT_EQ(out[1].record, (Record{7, 70}));
  EXPECT_EQ(out[2].record, (Record{8, 8}));
}

TEST(KWayMerger, DropsTombstonesWhenAsked) {
  std::vector<std::unique_ptr<RecordCursor>> sources;
  sources.push_back(source(byKey({{5, kTombstoneValue}})));
  sources.push_back(source(byKey({{5, 50}, {6, 60}})));
  KWayMerger merger(std::move(sources), true, unlimited);
  const auto out = drain(merger);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].record, (Record{6, 60}));
}

TEST(KWayMerger, KeepsTombstonesWhenNotAsked) {
  std::vector<std::unique_ptr<RecordCursor>> sources;
  sources.push_back(source(byKey({{5, kTombstoneValue}})));
  sources.push_back(source(byKey({{5, 50}})));
  KWayMerger merger(std::move(sources), false, unlimited);
  const auto out = drain(merger);
  ASSERT_EQ(out.size(), 1u);
  // The shadow survives for deeper merges.
  EXPECT_EQ(out[0].record.value, kTombstoneValue);
}

TEST(KWayMerger, HandlesEmptySources) {
  std::vector<std::unique_ptr<RecordCursor>> sources;
  sources.push_back(source({}));
  sources.push_back(source(byKey({{1, 1}})));
  sources.push_back(source({}));
  KWayMerger merger(std::move(sources), false, unlimited);
  EXPECT_EQ(keysOf(drain(merger)), (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(merger.nextChunk().empty());
}

TEST(KWayMerger, ChargesItsChunkToTheBudget) {
  extmem::MemoryBudget budget;
  {
    std::vector<std::unique_ptr<RecordCursor>> sources;
    sources.push_back(source(byKey({{1, 1}})));
    KWayMerger merger(std::move(sources), false, budget);
    EXPECT_EQ(budget.used(),
              KWayMerger::kChunkRecords * kWordsPerHashedRecord);
  }
  EXPECT_EQ(budget.used(), 0u);
}

TEST(KWayMerger, OrdersByHashNotByKey) {
  // With a real hash, output order follows h(key), not key, and every
  // record still carries its own h(key).
  auto hash = hashfn::makeHash(hashfn::HashKind::kMix, 5);
  std::vector<Record> recs;
  for (std::uint64_t k = 0; k < 50; ++k) recs.push_back({k, k});
  std::vector<std::unique_ptr<RecordCursor>> sources;
  sources.push_back(source(sortByHash(recs, *hash)));
  KWayMerger merger(std::move(sources), false, unlimited);
  std::uint64_t prev = 0;
  std::size_t n = 0;
  forEachRecord(merger, [&](const HashedRecord& r) {
    EXPECT_EQ(r.hash, (*hash)(r.record.key));
    EXPECT_GE(r.hash, prev);
    prev = r.hash;
    ++n;
  });
  EXPECT_EQ(n, 50u);
}

// Randomized property: for seeded sources (newest first) with overlapping
// keys, tombstones, and chunks of 1 or of more than the merger's own
// chunk size, the merged stream equals a newest-wins std::map reference
// in (hash, key) order, with tombstones dropped exactly when asked. The
// coarse order function makes (hash, key) ties common, so the key
// tie-break is exercised too.
TEST(KWayMerger, RandomizedMatchesNewestWinsReference) {
  const auto mix = hashfn::makeHash(hashfn::HashKind::kMix, 11);
  const std::function<std::uint64_t(std::uint64_t)> orders[] = {
      [&mix](std::uint64_t key) { return (*mix)(key); },
      [](std::uint64_t key) { return key / 8; },
  };
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Xoshiro256StarStar rng(seed);
    const auto& order = orders[seed % 2];
    const std::size_t k = 3 + rng.below(4);
    const std::uint64_t universe = 64 + rng.below(2000);

    std::vector<std::vector<HashedRecord>> inputs(k);  // newest first
    std::vector<std::size_t> chunk_sizes(k);
    for (std::size_t s = 0; s < k; ++s) {
      std::map<std::uint64_t, std::uint64_t> picked;
      const std::size_t n = rng.below(std::min<std::uint64_t>(universe, 900));
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = rng.below(universe);
        picked[key] = rng.below(8) == 0 ? kTombstoneValue : rng.below(1000);
      }
      std::vector<Record> records;
      for (const auto& [key, value] : picked) records.push_back({key, value});
      inputs[s] = sortByHash(records, order);
      // Chunks of one record, or longer than KWayMerger::kChunkRecords;
      // the first two sources take one of each.
      const bool single = s == 0 || (s > 1 && rng.below(2) == 0);
      chunk_sizes[s] =
          single ? 1 : KWayMerger::kChunkRecords + 1 + rng.below(400);
    }

    // Reference: apply sources oldest to newest; newest wins.
    std::map<std::pair<std::uint64_t, std::uint64_t>, Record> reference;
    for (std::size_t s = k; s-- > 0;) {
      for (const HashedRecord& r : inputs[s]) {
        reference[{r.hash, r.record.key}] = r.record;
      }
    }

    for (const bool drop : {false, true}) {
      std::vector<HashedRecord> expected;
      for (const auto& [hk, record] : reference) {
        if (drop && record.value == kTombstoneValue) continue;
        expected.push_back(HashedRecord{hk.first, record});
      }
      std::vector<std::unique_ptr<RecordCursor>> sources;
      for (std::size_t s = 0; s < k; ++s) {
        sources.push_back(
            std::make_unique<ChunkedCursor>(inputs[s], chunk_sizes[s]));
      }
      KWayMerger merger(std::move(sources), drop, unlimited);
      std::vector<HashedRecord> got;
      for (auto chunk = merger.nextChunk(); !chunk.empty();
           chunk = merger.nextChunk()) {
        EXPECT_LE(chunk.size(), KWayMerger::kChunkRecords);
        got.insert(got.end(), chunk.begin(), chunk.end());
      }
      ASSERT_EQ(got, expected) << "seed " << seed << " drop " << drop;
    }
  }
}

}  // namespace
}  // namespace exthash::tables
