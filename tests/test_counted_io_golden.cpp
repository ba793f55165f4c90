// Golden counted I/O of every table kind at b = 8: the chained-bucket
// kinds (chaining, linear hashing), the memtable-fronted kinds (log method,
// LSM, and the Theorem-2 table, whose buffer is a log-method table), the
// other hash tables (extendible, linear probing, cuckoo, Jensen-Pagh), the
// two B-trees, and the sharded façade over chaining.
//
// One seeded script runs on each kind: single-op inserts sized so that
// chains overflow and linear hashing splits; updates, hits, misses and
// erases; applyBatch calls of 1, 7, 64 and 512 ops, mixing in erases where
// the kind supports them; and one lookupBatch sweep. After every phase the
// phase's counters as ioStats() reports them (reads, writes, rmws, blocks
// allocated and freed, cache hits and write-backs), size() and a digest of
// the contents are compared exactly with recorded constants. A last row
// digests the layout, block ids included. The kinds that route their
// accesses through an attached cache run the script again behind a
// write-back ARC cache and behind a write-through LRU cache.
//
// Refactors of the table code must leave every constant as it is; a
// change that means to move counted I/O re-records them from the failure
// messages, which print each row as an initializer.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <tuple>
#include <vector>

#include "extmem/block_cache.h"
#include "table_test_util.h"
#include "tables/factory.h"
#include "util/random.h"

namespace exthash::tables {
namespace {

using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

constexpr std::size_t kB = 8;
constexpr std::size_t kInserts = 1000;
constexpr std::size_t kCacheFrames = 48;

struct PhaseCounts {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t rmws = 0;
  std::uint64_t allocated = 0;
  std::uint64_t freed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_writebacks = 0;
  std::uint64_t size = 0;
  std::uint64_t digest = 0;

  bool operator==(const PhaseCounts&) const = default;
};

// Printed as an initializer, so a deliberate change can re-record it.
std::ostream& operator<<(std::ostream& os, const PhaseCounts& c) {
  return os << "{" << c.reads << ", " << c.writes << ", " << c.rmws << ", "
            << c.allocated << ", " << c.freed << ", " << c.cache_hits << ", "
            << c.cache_writebacks << ", " << c.size << ", " << c.digest
            << "ULL}";
}

enum class CacheMode { kNone, kWriteBackArc, kWriteThroughLru };
constexpr const char* kCacheNames[] = {"no cache", "write-back ARC",
                                       "write-through LRU"};

struct GoldenRun {
  TableKind kind;
  CacheMode cache;
  std::vector<PhaseCounts> phases;
};

constexpr const char* kPhaseNames[] = {
    "inserts", "updates", "lookups",  "erases",      "batch-1",
    "batch-7", "batch-64", "batch-512", "lookupBatch", "layout"};

std::uint64_t fold(std::uint64_t digest, std::uint64_t word) {
  return splitmix64(digest ^ word);
}

/// Digest of every universe key's current value, absent keys included.
std::uint64_t contentsDigest(ExternalHashTable& table,
                             const std::vector<std::uint64_t>& universe) {
  std::uint64_t digest = 0;
  for (const std::uint64_t key : universe) {
    const auto value = table.lookup(key);
    digest = fold(fold(digest, key), value ? *value + 1 : 0);
  }
  return digest;
}

/// Digest of the item layout: every memory item and every disk item with
/// its block id, in a canonical order.
class LayoutDigest final : public LayoutVisitor {
 public:
  void memoryItem(const Record& r) override {
    items_.emplace_back(~std::uint64_t{0}, r.key, r.value);
  }
  void diskItem(extmem::BlockId block, const Record& r) override {
    items_.emplace_back(block, r.key, r.value);
  }
  std::uint64_t digest() {
    std::sort(items_.begin(), items_.end());
    std::uint64_t digest = items_.size();
    for (const auto& [block, key, value] : items_)
      digest = fold(fold(fold(digest, block), key), value);
    return digest;
  }

 private:
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>
      items_;
};

std::vector<PhaseCounts> runScript(TableKind kind, CacheMode mode) {
  TestRig rig(kB);
  std::unique_ptr<extmem::BlockCache> cache;
  if (mode == CacheMode::kWriteBackArc) {
    cache = std::make_unique<extmem::BlockCache>(
        *rig.device, *rig.memory, kCacheFrames,
        extmem::BlockCache::WritePolicy::kWriteBack,
        extmem::ReplacementKind::kArc);
  } else if (mode == CacheMode::kWriteThroughLru) {
    cache = std::make_unique<extmem::BlockCache>(
        *rig.device, *rig.memory, kCacheFrames,
        extmem::BlockCache::WritePolicy::kWriteThrough,
        extmem::ReplacementKind::kLru);
  }
  GeneralConfig cfg;
  cfg.expected_n = 256;  // 64 chaining buckets: chains overflow at ~2x
  cfg.target_load = 0.5;
  cfg.buffer_items = 64;
  cfg.beta = 8;
  cfg.gamma = 2;
  // The open-addressing kinds never grow: size them for every key the
  // script inserts (about 1,200).
  if (kind == TableKind::kLinearProbing || kind == TableKind::kCuckoo)
    cfg.expected_n = kInserts + kInserts / 4;
  cfg.sharded_inner = TableKind::kChaining;
  cfg.shard_storage = exthash::testing::testStorageOptions();
  auto table = makeTable(kind, rig.context(), cfg);
  if (cache) table->attachCache(cache.get());
  const bool erases = kind != TableKind::kBuffered;
  const bool updates = kind != TableKind::kBuffered;

  const auto keys = distinctKeys(2 * kInserts, /*seed=*/27);
  const auto absent = distinctKeys(200, /*seed=*/2727);
  std::vector<std::uint64_t> universe(keys);
  universe.insert(universe.end(), absent.begin(), absent.end());
  std::size_t next_fresh = kInserts;  // keys[kInserts..] are not yet used

  std::vector<PhaseCounts> phases;
  extmem::IoStats base = table->ioStats();
  std::uint64_t answers = 0;  // digest of what the phase's calls returned
  auto endPhase = [&](bool layout = false) {
    const extmem::IoStats d = table->ioStats() - base;
    PhaseCounts c{d.reads,      d.writes,          d.rmws,
                  d.allocated_blocks, d.freed_blocks, d.cache_hits,
                  d.cache_writebacks, table->size(), 0};
    if (layout) {
      LayoutDigest visitor;
      table->visitLayout(visitor);
      c.digest = visitor.digest();
    } else {
      c.digest = fold(answers, contentsDigest(*table, universe));
    }
    phases.push_back(c);
    answers = 0;
    base = table->ioStats();
  };

  for (std::size_t i = 0; i < kInserts; ++i)
    answers = fold(answers, table->insert(keys[i], keys[i] * 3 + 1));
  endPhase();

  if (updates) {
    for (std::size_t i = 0; i < kInserts; i += 4)
      answers = fold(answers, table->insert(keys[i], keys[i] * 5 + 2));
  }
  endPhase();

  for (std::size_t i = 0; i < 400; ++i) {
    const auto hit = table->lookup(keys[(i * 7) % kInserts]);
    const auto miss = table->lookup(absent[i % absent.size()]);
    answers = fold(fold(answers, hit.value_or(0)), miss.value_or(0));
  }
  endPhase();

  if (erases) {
    for (std::size_t i = 1; i < kInserts; i += 5)
      answers = fold(answers, table->erase(keys[i]));
    for (std::size_t i = 0; i < 50; ++i)
      answers = fold(answers, table->erase(absent[i]));
  }
  endPhase();

  // Each batch: fresh inserts, updates of live keys, erases of live,
  // erased and absent keys, and a key touched twice.
  for (const std::size_t size : {1, 7, 64, 512}) {
    std::vector<Op> ops;
    for (std::size_t i = 0; ops.size() < size; ++i) {
      const std::uint64_t live = keys[(i * 13 + size) % kInserts];
      switch (i % 6) {
        case 0:
        case 3:
          ops.push_back(Op::insertOp(keys[next_fresh], keys[next_fresh]));
          ++next_fresh;
          break;
        case 1:
          if (updates) ops.push_back(Op::insertOp(live, live + size));
          break;
        case 2:
          if (erases) ops.push_back(Op::eraseOp(live));
          break;
        case 4:
          if (erases) ops.push_back(Op::eraseOp(absent[(i + size) % 200]));
          break;
        case 5:
          if (updates) {
            ops.push_back(Op::insertOp(keys[next_fresh - 1], size));
          }
          break;
      }
    }
    table->applyBatch(ops);
    endPhase();
  }

  std::vector<std::optional<std::uint64_t>> out(universe.size());
  table->lookupBatch(universe, out);
  for (const auto& v : out) answers = fold(answers, v ? *v + 1 : 0);
  endPhase();

  endPhase(/*layout=*/true);
  return phases;
}

// clang-format off
const GoldenRun kGolden[] = {
    {TableKind::kChaining, CacheMode::kNone,
     {
         {494, 89, 1427, 89, 0, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {149, 0, 372, 0, 0, 0, 0, 1000, 7055992092122552582ULL},  // updates
         {1568, 0, 0, 0, 0, 0, 0, 1000, 17726769983671873646ULL},  // lookups
         {440, 0, 204, 0, 4, 0, 0, 800, 1566846920452947806ULL},  // erases
         {1, 0, 2, 0, 0, 0, 0, 801, 14096931652851798032ULL},  // batch-1
         {6, 2, 7, 1, 1, 0, 0, 803, 12530610476736263104ULL},  // batch-7
         {54, 40, 44, 22, 24, 0, 0, 818, 7822592814832386898ULL},  // batch-64
         {83, 142, 64, 82, 83, 0, 0, 939, 1522723577227300070ULL},  // batch-512
         {146, 0, 0, 0, 0, 0, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 15986972111150355694ULL},  // layout
     }},
    {TableKind::kLinearHashing, CacheMode::kNone,
     {
         {553, 441, 1301, 387, 95, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {26, 0, 276, 0, 0, 0, 0, 1000, 7055992092122552582ULL},  // updates
         {947, 0, 0, 0, 0, 0, 0, 1000, 17726769983671873646ULL},  // lookups
         {282, 0, 204, 0, 4, 0, 0, 800, 1566846920452947806ULL},  // erases
         {0, 0, 1, 0, 0, 0, 0, 801, 14096931652851798032ULL},  // batch-1
         {3, 2, 4, 1, 1, 0, 0, 803, 12530610476736263104ULL},  // batch-7
         {25, 4, 40, 2, 2, 0, 0, 818, 7822592814832386898ULL},  // batch-64
         {48, 57, 141, 24, 33, 0, 0, 939, 1522723577227300070ULL},  // batch-512
         {184, 0, 0, 0, 0, 0, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 18059632152129454268ULL},  // layout
     }},
    {TableKind::kLogMethod, CacheMode::kNone,
     {
         {438, 670, 0, 679, 438, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {98, 160, 0, 161, 98, 0, 0, 1250, 15244709756276546366ULL},  // updates
         {2203, 0, 0, 0, 0, 0, 0, 1250, 17726769983671873646ULL},  // lookups
         {790, 95, 0, 98, 48, 0, 0, 1050, 1566846920452947806ULL},  // erases
         {0, 0, 0, 0, 0, 0, 0, 1051, 14096931652851798032ULL},  // batch-1
         {9, 0, 0, 0, 0, 0, 0, 1054, 12530610476736263104ULL},  // batch-7
         {71, 31, 0, 32, 16, 0, 0, 1078, 7822592814832386898ULL},  // batch-64
         {657, 454, 0, 497, 418, 0, 0, 1269, 1522723577227300070ULL},  // batch-512
         {444, 0, 0, 0, 0, 0, 0, 1269, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 1269, 13219446953443494139ULL},  // layout
     }},
    {TableKind::kLsm, CacheMode::kNone,
     {
         {120, 240, 0, 240, 120, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {0, 32, 0, 32, 0, 0, 0, 1250, 15244709756276546366ULL},  // updates
         {4707, 0, 0, 0, 0, 0, 0, 1250, 17726769983671873646ULL},  // lookups
         {1039, 62, 0, 64, 42, 0, 0, 1050, 1566846920452947806ULL},  // erases
         {0, 0, 0, 0, 0, 0, 0, 1051, 14096931652851798032ULL},  // batch-1
         {12, 0, 0, 0, 0, 0, 0, 1054, 12530610476736263104ULL},  // batch-7
         {55, 8, 0, 8, 0, 0, 0, 1078, 7822592814832386898ULL},  // batch-64
         {403, 186, 0, 277, 328, 0, 0, 1269, 1522723577227300070ULL},  // batch-512
         {131, 0, 0, 0, 0, 0, 0, 1269, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 1269, 4005575156077944198ULL},  // layout
     }},
    {TableKind::kBuffered, CacheMode::kNone,
     {
         {794, 1023, 0, 1039, 794, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {0, 0, 0, 0, 0, 0, 0, 1000, 15189910063710094828ULL},  // updates
         {1248, 0, 0, 0, 0, 0, 0, 1000, 17520697516530546851ULL},  // lookups
         {0, 0, 0, 0, 0, 0, 0, 1000, 15189910063710094828ULL},  // erases
         {0, 0, 0, 0, 0, 0, 0, 1001, 2368772111505767684ULL},  // batch-1
         {0, 0, 0, 0, 0, 0, 0, 1008, 16608418568386242739ULL},  // batch-7
         {245, 254, 0, 259, 245, 0, 0, 1072, 6341263290122691697ULL},  // batch-64
         {880, 979, 0, 1005, 880, 0, 0, 1584, 16976383441721106879ULL},  // batch-512
         {383, 0, 0, 0, 0, 0, 0, 1584, 14577109883465420602ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 1584, 17373036203201369858ULL},  // layout
     }},
    {TableKind::kChaining, CacheMode::kWriteBackArc,
     {
         {739, 755, 0, 89, 0, 1271, 755, 1000, 13307604241079978199ULL},  // inserts
         {238, 188, 0, 0, 0, 283, 188, 1000, 7055992092122552582ULL},  // updates
         {1059, 0, 0, 0, 0, 509, 0, 1000, 17726769983671873646ULL},  // lookups
         {276, 122, 0, 0, 4, 368, 122, 800, 1566846920452947806ULL},  // erases
         {0, 0, 0, 0, 0, 3, 0, 801, 14096931652851798032ULL},  // batch-1
         {8, 0, 0, 1, 1, 7, 0, 803, 12530610476736263104ULL},  // batch-7
         {76, 27, 0, 22, 24, 62, 27, 818, 7822592814832386898ULL},  // batch-64
         {122, 99, 0, 82, 83, 167, 99, 939, 1522723577227300070ULL},  // batch-512
         {138, 0, 0, 0, 0, 8, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 15986972111150355694ULL},  // layout
     }},
    {TableKind::kLinearHashing, CacheMode::kWriteBackArc,
     {
         {617, 762, 0, 387, 95, 1678, 762, 1000, 13307604241079978199ULL},  // inserts
         {194, 153, 0, 0, 0, 108, 153, 1000, 7055992092122552582ULL},  // updates
         {687, 0, 0, 0, 0, 260, 0, 1000, 17726769983671873646ULL},  // lookups
         {196, 130, 0, 0, 4, 290, 130, 800, 1566846920452947806ULL},  // erases
         {1, 0, 0, 0, 0, 0, 0, 801, 14096931652851798032ULL},  // batch-1
         {5, 0, 0, 1, 1, 4, 0, 803, 12530610476736263104ULL},  // batch-7
         {44, 20, 0, 2, 2, 25, 20, 818, 7822592814832386898ULL},  // batch-64
         {168, 119, 0, 24, 33, 78, 119, 939, 1522723577227300070ULL},  // batch-512
         {167, 0, 0, 0, 0, 17, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 18059632152129454268ULL},  // layout
     }},
    {TableKind::kLsm, CacheMode::kWriteBackArc,
     {
         {120, 240, 0, 240, 120, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {0, 32, 0, 32, 0, 0, 0, 1250, 15244709756276546366ULL},  // updates
         {1923, 0, 0, 0, 0, 2784, 0, 1250, 17726769983671873646ULL},  // lookups
         {545, 62, 0, 64, 42, 494, 0, 1050, 1566846920452947806ULL},  // erases
         {0, 0, 0, 0, 0, 0, 0, 1051, 14096931652851798032ULL},  // batch-1
         {5, 0, 0, 0, 0, 7, 0, 1054, 12530610476736263104ULL},  // batch-7
         {39, 8, 0, 8, 0, 16, 0, 1078, 7822592814832386898ULL},  // batch-64
         {375, 186, 0, 277, 328, 28, 0, 1269, 1522723577227300070ULL},  // batch-512
         {101, 0, 0, 0, 0, 30, 0, 1269, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 1269, 4005575156077944198ULL},  // layout
     }},
    {TableKind::kChaining, CacheMode::kWriteThroughLru,
     {
         {259, 89, 1427, 89, 0, 1184, 0, 1000, 13307604241079978199ULL},  // inserts
         {104, 0, 372, 0, 0, 285, 0, 1000, 7055992092122552582ULL},  // updates
         {1092, 0, 0, 0, 0, 476, 0, 1000, 17726769983671873646ULL},  // lookups
         {263, 0, 204, 0, 4, 381, 0, 800, 1566846920452947806ULL},  // erases
         {0, 0, 2, 0, 0, 3, 0, 801, 14096931652851798032ULL},  // batch-1
         {4, 2, 7, 1, 1, 6, 0, 803, 12530610476736263104ULL},  // batch-7
         {47, 40, 44, 22, 24, 40, 0, 818, 7822592814832386898ULL},  // batch-64
         {80, 142, 64, 82, 83, 65, 0, 939, 1522723577227300070ULL},  // batch-512
         {141, 0, 0, 0, 0, 5, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 15986972111150355694ULL},  // layout
     }},
    {TableKind::kLinearHashing, CacheMode::kWriteThroughLru,
     {
         {194, 441, 1301, 387, 95, 1386, 0, 1000, 13307604241079978199ULL},  // inserts
         {21, 0, 276, 0, 0, 108, 0, 1000, 7055992092122552582ULL},  // updates
         {698, 0, 0, 0, 0, 249, 0, 1000, 17726769983671873646ULL},  // lookups
         {192, 0, 204, 0, 4, 294, 0, 800, 1566846920452947806ULL},  // erases
         {0, 0, 1, 0, 0, 0, 0, 801, 14096931652851798032ULL},  // batch-1
         {2, 2, 4, 1, 1, 4, 0, 803, 12530610476736263104ULL},  // batch-7
         {23, 4, 40, 2, 2, 18, 0, 818, 7822592814832386898ULL},  // batch-64
         {47, 57, 141, 24, 33, 48, 0, 939, 1522723577227300070ULL},  // batch-512
         {174, 0, 0, 0, 0, 10, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 18059632152129454268ULL},  // layout
     }},
    {TableKind::kLsm, CacheMode::kWriteThroughLru,
     {
         {120, 240, 0, 240, 120, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {0, 32, 0, 32, 0, 0, 0, 1250, 15244709756276546366ULL},  // updates
         {2148, 0, 0, 0, 0, 2559, 0, 1250, 17726769983671873646ULL},  // lookups
         {544, 62, 0, 64, 42, 495, 0, 1050, 1566846920452947806ULL},  // erases
         {0, 0, 0, 0, 0, 0, 0, 1051, 14096931652851798032ULL},  // batch-1
         {5, 0, 0, 0, 0, 7, 0, 1054, 12530610476736263104ULL},  // batch-7
         {40, 8, 0, 8, 0, 15, 0, 1078, 7822592814832386898ULL},  // batch-64
         {387, 186, 0, 277, 328, 16, 0, 1269, 1522723577227300070ULL},  // batch-512
         {104, 0, 0, 0, 0, 27, 0, 1269, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 1269, 4005575156077944198ULL},  // layout
     }},
};

const GoldenRun kOtherKindsGolden[] = {
    {TableKind::kExtendible, CacheMode::kNone,
     {
         {179, 358, 1179, 179, 0, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {0, 0, 250, 0, 0, 0, 0, 1000, 7055992092122552582ULL},  // updates
         {800, 0, 0, 0, 0, 0, 0, 1000, 17726769983671873646ULL},  // lookups
         {0, 0, 250, 0, 0, 0, 0, 800, 1566846920452947806ULL},  // erases
         {0, 0, 1, 0, 0, 0, 0, 801, 14096931652851798032ULL},  // batch-1
         {0, 0, 6, 0, 0, 0, 0, 803, 12530610476736263104ULL},  // batch-7
         {0, 0, 48, 0, 0, 0, 0, 818, 7822592814832386898ULL},  // batch-64
         {15, 30, 217, 15, 0, 0, 0, 939, 1522723577227300070ULL},  // batch-512
         {195, 0, 0, 0, 0, 0, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 11401776622381208753ULL},  // layout
     }},
    {TableKind::kExtendible, CacheMode::kWriteBackArc,
     {
         {376, 507, 0, 179, 0, 1340, 507, 1000, 13307604241079978199ULL},  // inserts
         {191, 157, 0, 0, 0, 59, 157, 1000, 7055992092122552582ULL},  // updates
         {566, 0, 0, 0, 0, 234, 0, 1000, 17726769983671873646ULL},  // lookups
         {173, 134, 0, 0, 0, 77, 134, 800, 1566846920452947806ULL},  // erases
         {0, 0, 0, 0, 0, 1, 0, 801, 14096931652851798032ULL},  // batch-1
         {5, 0, 0, 0, 0, 1, 0, 803, 12530610476736263104ULL},  // batch-7
         {35, 18, 0, 0, 0, 13, 18, 818, 7822592814832386898ULL},  // batch-64
         {138, 122, 0, 15, 0, 124, 122, 939, 1522723577227300070ULL},  // batch-512
         {168, 0, 0, 0, 0, 27, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 11401776622381208753ULL},  // layout
     }},
    {TableKind::kExtendible, CacheMode::kWriteThroughLru,
     {
         {0, 358, 1179, 179, 0, 1171, 0, 1000, 13307604241079978199ULL},  // inserts
         {0, 0, 250, 0, 0, 66, 0, 1000, 7055992092122552582ULL},  // updates
         {580, 0, 0, 0, 0, 220, 0, 1000, 17726769983671873646ULL},  // lookups
         {0, 0, 250, 0, 0, 74, 0, 800, 1566846920452947806ULL},  // erases
         {0, 0, 1, 0, 0, 1, 0, 801, 14096931652851798032ULL},  // batch-1
         {0, 0, 6, 0, 0, 1, 0, 803, 12530610476736263104ULL},  // batch-7
         {0, 0, 48, 0, 0, 8, 0, 818, 7822592814832386898ULL},  // batch-64
         {0, 30, 217, 15, 0, 102, 0, 939, 1522723577227300070ULL},  // batch-512
         {183, 0, 0, 0, 0, 12, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 11401776622381208753ULL},  // layout
     }},
    {TableKind::kLinearProbing, CacheMode::kNone,
     {
         {3, 0, 1003, 0, 0, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {1, 0, 251, 0, 0, 0, 0, 1000, 7055992092122552582ULL},  // updates
         {806, 0, 0, 0, 0, 0, 0, 1000, 17726769983671873646ULL},  // lookups
         {0, 0, 252, 0, 0, 0, 0, 800, 1566846920452947806ULL},  // erases
         {0, 0, 1, 0, 0, 0, 0, 801, 14096931652851798032ULL},  // batch-1
         {0, 0, 6, 0, 0, 0, 0, 803, 12530610476736263104ULL},  // batch-7
         {0, 0, 51, 0, 0, 0, 0, 818, 7822592814832386898ULL},  // batch-64
         {2, 0, 236, 0, 0, 0, 0, 939, 1522723577227300070ULL},  // batch-512
         {314, 0, 0, 0, 0, 0, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 10754020313805923737ULL},  // layout
     }},
    {TableKind::kCuckoo, CacheMode::kNone,
     {
         {0, 0, 2011, 0, 0, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {0, 0, 495, 0, 0, 0, 0, 1000, 7055992092122552582ULL},  // updates
         {1203, 0, 0, 0, 0, 0, 0, 1000, 17726769983671873646ULL},  // lookups
         {0, 0, 498, 0, 0, 0, 0, 800, 1566846920452947806ULL},  // erases
         {0, 0, 2, 0, 0, 0, 0, 801, 14096931652851798032ULL},  // batch-1
         {0, 0, 12, 0, 0, 0, 0, 803, 12530610476736263104ULL},  // batch-7
         {0, 0, 96, 0, 0, 0, 0, 818, 7822592814832386898ULL},  // batch-64
         {0, 0, 388, 0, 0, 0, 0, 939, 1522723577227300070ULL},  // batch-512
         {447, 0, 0, 0, 0, 0, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 6843338594498158330ULL},  // layout
     }},
    {TableKind::kJensenPagh, CacheMode::kNone,
     {
         {185, 277, 1034, 368, 185, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {0, 0, 255, 0, 0, 0, 0, 1000, 7055992092122552582ULL},  // updates
         {816, 0, 0, 0, 0, 0, 0, 1000, 17726769983671873646ULL},  // lookups
         {6, 0, 254, 0, 0, 0, 0, 800, 1566846920452947806ULL},  // erases
         {0, 0, 1, 0, 0, 0, 0, 801, 14096931652851798032ULL},  // batch-1
         {0, 0, 6, 0, 0, 0, 0, 803, 12530610476736263104ULL},  // batch-7
         {2, 0, 51, 0, 0, 0, 0, 818, 7822592814832386898ULL},  // batch-64
         {2, 0, 186, 0, 0, 0, 0, 939, 1522723577227300070ULL},  // batch-512
         {215, 0, 0, 0, 0, 0, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 17904284301158673034ULL},  // layout
     }},
    {TableKind::kBTree, CacheMode::kNone,
     {
         {2665, 201, 1169, 201, 0, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {750, 0, 250, 0, 0, 0, 0, 1000, 7055992092122552582ULL},  // updates
         {2400, 0, 0, 0, 0, 0, 0, 1000, 17726769983671873646ULL},  // lookups
         {750, 0, 250, 0, 0, 0, 0, 800, 1566846920452947806ULL},  // erases
         {3, 0, 1, 0, 0, 0, 0, 801, 14096931652851798032ULL},  // batch-1
         {18, 0, 6, 0, 0, 0, 0, 803, 12530610476736263104ULL},  // batch-7
         {144, 1, 49, 1, 0, 0, 0, 818, 7822592814832386898ULL},  // batch-64
         {687, 16, 245, 16, 0, 0, 0, 939, 1522723577227300070ULL},  // batch-512
         {6600, 0, 0, 0, 0, 0, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 4531527855960807589ULL},  // layout
     }},
    {TableKind::kBufferBTree, CacheMode::kNone,
     {
         {0, 714, 1706, 255, 0, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {0, 203, 573, 32, 0, 0, 0, 1250, 15244709756276546366ULL},  // updates
         {4690, 0, 0, 0, 0, 0, 0, 1250, 17726769983671873646ULL},  // lookups
         {1471, 127, 421, 4, 0, 0, 0, 1050, 1566846920452947806ULL},  // erases
         {0, 0, 0, 0, 0, 0, 0, 1051, 14096931652851798032ULL},  // batch-1
         {12, 2, 8, 0, 0, 0, 0, 1054, 12530610476736263104ULL},  // batch-7
         {121, 31, 94, 0, 0, 0, 0, 1078, 7822592814832386898ULL},  // batch-64
         {993, 122, 373, 17, 0, 0, 0, 1268, 1522723577227300070ULL},  // batch-512
         {308, 0, 0, 0, 0, 0, 0, 1268, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 1268, 6277819824282935820ULL},  // layout
     }},
    {TableKind::kSharded, CacheMode::kNone,
     {
         {487, 90, 1429, 90, 0, 0, 0, 1000, 13307604241079978199ULL},  // inserts
         {151, 0, 376, 0, 0, 0, 0, 1000, 7055992092122552582ULL},  // updates
         {1601, 0, 0, 0, 0, 0, 0, 1000, 17726769983671873646ULL},  // lookups
         {443, 0, 204, 0, 4, 0, 0, 800, 1566846920452947806ULL},  // erases
         {1, 0, 2, 0, 0, 0, 0, 801, 14096931652851798032ULL},  // batch-1
         {7, 0, 7, 0, 0, 0, 0, 803, 12530610476736263104ULL},  // batch-7
         {59, 36, 40, 20, 26, 0, 0, 818, 7822592814832386898ULL},  // batch-64
         {81, 141, 63, 81, 79, 0, 0, 939, 1522723577227300070ULL},  // batch-512
         {146, 0, 0, 0, 0, 0, 0, 939, 11892727780075287631ULL},  // lookupBatch
         {0, 0, 0, 0, 0, 0, 0, 939, 17149447486251494026ULL},  // layout
     }},
};
// clang-format on

void expectGolden(std::span<const GoldenRun> golden) {
  for (const GoldenRun& run : golden) {
    const auto got = runScript(run.kind, run.cache);
    ASSERT_EQ(got.size(), std::size(kPhaseNames));
    ASSERT_EQ(run.phases.size(), got.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      EXPECT_EQ(got[p], run.phases[p])
          << tableKindName(run.kind) << ", "
          << kCacheNames[static_cast<int>(run.cache)] << ", phase "
          << kPhaseNames[p];
    }
  }
}

TEST(CountedIoGolden, ChainedAndMemtableKindsAtB8) { expectGolden(kGolden); }

TEST(CountedIoGolden, OtherKindsAtB8) { expectGolden(kOtherKindsGolden); }

}  // namespace
}  // namespace exthash::tables
