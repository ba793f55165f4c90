#include "tables/lsm_table.h"

#include <algorithm>
#include <unordered_set>

#include "tables/meta_words.h"

namespace exthash::tables {

using extmem::BlockId;
using extmem::ConstSortedRunPage;
using extmem::SortedRunPage;
using extmem::Word;

namespace {

/// Runs are key-ordered, so the key itself is the order value every LSM
/// merge stream carries in place of a hash.
constexpr auto kKeyOrder = [](std::uint64_t key) { return key; };

}  // namespace

/// Streams one run's records in key order (counted reads, one per block),
/// one block per chunk.
class LsmTable::RunCursor final : public RecordCursor {
 public:
  RunCursor(extmem::BlockDevice& device, const Run& run)
      : device_(&device), run_(&run) {}

  std::span<const HashedRecord> nextChunk() override {
    buffer_.clear();
    while (buffer_.empty() && block_ < run_->blocks) {
      device_->withRead(run_->extent + block_++,
                        [&](std::span<const Word> data) {
                          ConstSortedRunPage page(data);
                          const std::size_t n = page.count();
                          for (std::size_t i = 0; i < n; ++i) {
                            const Record r = page.recordAt(i);
                            buffer_.push_back(HashedRecord{r.key, r});
                          }
                        });
    }
    return buffer_;
  }

 private:
  extmem::BlockDevice* device_;
  const Run* run_;
  std::size_t block_ = 0;
  std::vector<HashedRecord> buffer_;
};

LsmTable::LsmTable(TableContext ctx, LsmConfig config)
    : MemtableFront(std::move(ctx), config.memtable_capacity_items),
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())) {
  EXTHASH_CHECK(config_.memtable_capacity_items >= 1);
  EXTHASH_CHECK(config_.fanout >= 2);
  EXTHASH_CHECK(config_.fence_stride >= 1);
}

LsmTable::~LsmTable() {
  for (auto& level : levels_) {
    for (auto& run : level) freeRun(run);
  }
}

void LsmTable::freeRun(Run& run) {
  if (run.extent != extmem::kInvalidBlock && run.blocks > 0) {
    // Through io(): a compacted-away run's blocks may be resident in the
    // attached read cache, and the ids are pooled for reuse — the free
    // must invalidate them or a later run would serve stale frames.
    io().freeExtent(run.extent, run.blocks);
    run.extent = extmem::kInvalidBlock;
  }
}

LsmTable::Run LsmTable::writeRun(RecordCursor& records,
                                 std::size_t record_estimate) {
  Run run;
  const std::size_t max_blocks = std::max<std::size_t>(
      1, (record_estimate + records_per_block_ - 1) / records_per_block_);
  run.extent = ctx_.device->allocateExtent(max_blocks);
  if (config_.bloom_bits_per_key > 0) {
    run.bloom = std::make_unique<extmem::BloomFilter>(
        *ctx_.memory, std::max<std::size_t>(1, record_estimate),
        config_.bloom_bits_per_key, 0x5eed + record_estimate);
  }

  std::size_t block = 0;
  std::vector<Record> page_buf;
  bool first_record = true;
  auto flushPage = [&]() {
    if (page_buf.empty()) return;
    EXTHASH_CHECK_MSG(block < max_blocks, "run estimate too small");
    ctx_.device->withOverwrite(run.extent + block,
                               [&](std::span<Word> data) {
                                 SortedRunPage page(data);
                                 page.format();
                                 for (const Record& r : page_buf)
                                   EXTHASH_CHECK(page.append(r));
                               });
    if (block % config_.fence_stride == 0)
      run.fences.push_back(page_buf.front().key);
    run.max_key = page_buf.back().key;
    run.records += page_buf.size();
    page_buf.clear();
    ++block;
  };

  forEachRecord(records, [&](const HashedRecord& hr) {
    const Record& r = hr.record;
    if (first_record) {
      run.min_key = r.key;
      first_record = false;
    }
    if (run.bloom) run.bloom->add(r.key);
    page_buf.push_back(r);
    if (page_buf.size() == records_per_block_) flushPage();
  });
  flushPage();
  run.blocks = block;
  // Return unused tail blocks of the (over)estimated extent (through
  // io() so any cached frames on the freed ids are invalidated).
  if (run.blocks == 0) {
    io().freeExtent(run.extent, max_blocks);
    run.extent = extmem::kInvalidBlock;
  } else if (run.blocks < max_blocks) {
    io().freeExtent(run.extent + run.blocks, max_blocks - run.blocks);
  }
  run.fence_charge = extmem::MemoryCharge(*ctx_.memory, run.fences.size() + 6);
  return run;
}

void LsmTable::flushMemtable() { pushRun(memtable_.drainSorted(kKeyOrder)); }

void LsmTable::bulkSpill(std::vector<Record> records) {
  pushRun(sortByHash(records, kKeyOrder));
}

void LsmTable::pushRun(std::vector<HashedRecord> sorted) {
  const std::size_t estimate = sorted.size();
  VectorCursor cursor(std::move(sorted));
  Run run = writeRun(cursor, estimate);
  if (levels_.empty()) levels_.emplace_back();
  if (run.blocks > 0) levels_[0].insert(levels_[0].begin(), std::move(run));
  if (levels_[0].size() > config_.fanout) compactLevel(0);
}

void LsmTable::compactLevel(std::size_t level) {
  // Tiering: merge all runs of this level into one run one level deeper.
  auto& runs = levels_[level];
  if (runs.size() <= 1) return;

  const bool deeper_data = [&] {
    for (std::size_t l = level + 1; l < levels_.size(); ++l)
      if (!levels_[l].empty()) return true;
    return false;
  }();

  std::vector<std::unique_ptr<RecordCursor>> sources;
  std::size_t estimate = 0;
  for (auto& run : runs) {  // newest first already
    sources.push_back(std::make_unique<RunCursor>(*ctx_.device, run));
    estimate += run.records;
  }
  KWayMerger merged(std::move(sources), /*drop_tombstones=*/!deeper_data,
                    *ctx_.memory);
  Run big = writeRun(merged, estimate);
  for (auto& run : runs) freeRun(run);
  runs.clear();
  if (levels_.size() <= level + 1) levels_.resize(level + 2);
  if (big.blocks > 0)
    levels_[level + 1].insert(levels_[level + 1].begin(), std::move(big));
  ++compactions_;
  if (levels_[level + 1].size() > config_.fanout) compactLevel(level + 1);
}

std::optional<std::uint64_t> LsmTable::probeRun(Run& run, std::uint64_t key) {
  if (run.records == 0 || key < run.min_key || key > run.max_key)
    return std::nullopt;
  if (run.bloom && !run.bloom->mayContain(key)) return std::nullopt;
  // Fence pointers: find the last fenced group whose first key is <= key.
  const auto it =
      std::upper_bound(run.fences.begin(), run.fences.end(), key);
  if (it == run.fences.begin()) return std::nullopt;
  const std::size_t group =
      static_cast<std::size_t>(it - run.fences.begin()) - 1;
  const std::size_t first_block = group * config_.fence_stride;
  const std::size_t last_block =
      std::min(run.blocks, first_block + config_.fence_stride);
  for (std::size_t blk = first_block; blk < last_block; ++blk) {
    struct Probe {
      std::optional<std::uint64_t> value;
      bool past = false;
    };
    const Probe p = io().withRead(
        run.extent + blk, [&](std::span<const Word> data) {
          ConstSortedRunPage page(data);
          if (page.count() == 0) return Probe{std::nullopt, true};
          if (key < page.firstKey()) return Probe{std::nullopt, true};
          return Probe{page.find(key), key <= page.lastKey()};
        });
    if (p.value) return p.value;
    if (p.past) return std::nullopt;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> LsmTable::lookup(std::uint64_t key) {
  if (auto v = memtable_.find(key)) {
    if (*v == kTombstoneValue) return std::nullopt;
    return v;
  }
  for (auto& level : levels_) {
    for (auto& run : level) {  // newest first
      if (auto v = probeRun(run, key)) {
        if (*v == kTombstoneValue) return std::nullopt;
        return v;
      }
    }
  }
  return std::nullopt;
}

void LsmTable::lookupBelow(std::span<const std::uint64_t> keys,
                           std::span<std::optional<std::uint64_t>> out,
                           std::vector<std::size_t>& pending) {
  for (auto& level : levels_) {
    for (auto& run : level) {  // newest first
      if (pending.empty()) return;
      probeRunBatch(run, keys, pending, out);
    }
  }
}

void LsmTable::probeRunBatch(Run& run, std::span<const std::uint64_t> keys,
                             std::vector<std::size_t>& pending,
                             std::span<std::optional<std::uint64_t>> out) {
  if (run.records == 0 || pending.empty()) return;

  // Per-key prefilter (key range, Bloom, fence group), then group by
  // fenced block range so each touched block is read once.
  std::vector<std::pair<std::size_t, std::size_t>> cands;  // (group, idx)
  for (const std::size_t idx : pending) {
    const std::uint64_t key = keys[idx];
    if (key < run.min_key || key > run.max_key) continue;
    if (run.bloom && !run.bloom->mayContain(key)) continue;
    const auto it =
        std::upper_bound(run.fences.begin(), run.fences.end(), key);
    if (it == run.fences.begin()) continue;
    const auto group =
        static_cast<std::size_t>(it - run.fences.begin()) - 1;
    cands.emplace_back(group, idx);
  }
  std::sort(cands.begin(), cands.end());

  std::unordered_set<std::size_t> resolved;
  std::size_t i = 0;
  std::vector<std::size_t> active;
  while (i < cands.size()) {
    const std::size_t group = cands[i].first;
    std::size_t j = i;
    while (j < cands.size() && cands[j].first == group) ++j;
    active.clear();
    for (std::size_t k = i; k < j; ++k) active.push_back(cands[k].second);
    i = j;

    const std::size_t first_block = group * config_.fence_stride;
    const std::size_t last_block =
        std::min(run.blocks, first_block + config_.fence_stride);
    for (std::size_t blk = first_block;
         blk < last_block && !active.empty(); ++blk) {
      io().withRead(
          run.extent + blk, [&](std::span<const Word> data) {
            ConstSortedRunPage page(data);
            for (auto it = active.begin(); it != active.end();) {
              const std::uint64_t key = keys[*it];
              if (page.count() == 0 || key < page.firstKey()) {
                it = active.erase(it);  // past its slot: absent in this run
                continue;
              }
              if (auto v = page.find(key)) {
                out[*it] =
                    (*v == kTombstoneValue) ? std::nullopt : std::optional(*v);
                resolved.insert(*it);
                it = active.erase(it);
                continue;
              }
              if (key <= page.lastKey()) {
                it = active.erase(it);  // would be in this block: absent
                continue;
              }
              ++it;  // beyond this block: consult the next one in the group
            }
          });
    }
  }
  if (!resolved.empty()) {
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](std::size_t idx) {
                                   return resolved.contains(idx);
                                 }),
                  pending.end());
  }
}

std::size_t LsmTable::runCount() const noexcept {
  std::size_t n = 0;
  for (const auto& level : levels_) n += level.size();
  return n;
}

void LsmTable::visitLayout(LayoutVisitor& visitor) const {
  memtable_.forEach([&](const Record& r) {
    if (r.value != kTombstoneValue) visitor.memoryItem(r);
  });
  for (const auto& level : levels_) {
    for (const auto& run : level) {
      for (std::size_t blk = 0; blk < run.blocks; ++blk) {
        ConstSortedRunPage page(ctx_.device->inspect(run.extent + blk));
        const std::size_t n = page.count();
        for (std::size_t i = 0; i < n; ++i)
          visitor.diskItem(run.extent + blk, page.recordAt(i));
      }
    }
  }
}

std::string LsmTable::debugString() const {
  std::string s = "lsm{memtable=" + std::to_string(memtable_.size()) +
                  ", levels=[";
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(levels_[i].size());
  }
  s += "], compactions=" + std::to_string(compactions_) + "}";
  return s;
}

// ---------------------------------------------------------------------------
// Checkpoint metadata
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kLsmMetaMagic = 0x4C534D544D455441ULL;  // LSMTMETA
}  // namespace

std::vector<std::uint64_t> LsmTable::serializeMeta() const {
  MetaWriter w;
  w.tag(kLsmMetaMagic);
  w.u64(config_.memtable_capacity_items);
  w.u64(config_.fanout);
  w.u64(config_.fence_stride);
  w.u64(config_.bloom_bits_per_key);
  w.u64(records_per_block_);
  w.u64(live_size_);
  w.u64(compactions_);
  // Memtable contents travel in the manifest: they are memory-resident
  // state the device images cannot capture.
  std::vector<std::uint64_t> mem;
  memtable_.forEach([&](const Record& r) {
    mem.push_back(r.key);
    mem.push_back(r.value);
  });
  w.vec(mem);
  w.u64(levels_.size());
  for (const auto& level : levels_) {
    w.u64(level.size());
    for (const Run& run : level) {
      w.u64(run.extent);
      w.u64(run.blocks);
      w.u64(run.records);
      w.u64(run.min_key);
      w.u64(run.max_key);
      w.vec(run.fences);
      w.b(run.bloom != nullptr);
      if (run.bloom) {
        w.u64(run.bloom->bits());
        w.u64(run.bloom->hashCount());
        w.u64(run.bloom->seed());
        const auto bloom_words = run.bloom->wordSpan();
        w.vec(bloom_words);
      }
    }
  }
  return w.take();
}

void LsmTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kLsmMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == config_.memtable_capacity_items &&
                        r.u64() == config_.fanout &&
                        r.u64() == config_.fence_stride &&
                        r.u64() == config_.bloom_bits_per_key &&
                        r.u64() == records_per_block_,
                    "lsm checkpoint geometry mismatch");
  live_size_ = r.u64();
  compactions_ = r.u64();
  const std::vector<std::uint64_t> mem = r.vec();
  EXTHASH_CHECK(mem.size() % 2 == 0);
  memtable_.clear();
  for (std::size_t i = 0; i < mem.size(); i += 2)
    EXTHASH_CHECK(memtable_.insertOrAssign(mem[i], mem[i + 1]));
  // A freshly constructed table owns no runs; the run extents below were
  // rewound into existence by restoreImage, so no frees are due here.
  EXTHASH_CHECK_MSG(levels_.empty(),
                    "lsm restoreMeta expects a freshly constructed table");
  levels_.resize(r.u64());
  for (auto& level : levels_) {
    level.resize(r.u64());
    for (Run& run : level) {
      run.extent = r.u64();
      run.blocks = r.u64();
      run.records = r.u64();
      run.min_key = r.u64();
      run.max_key = r.u64();
      run.fences = r.vec();
      run.fence_charge =
          extmem::MemoryCharge(*ctx_.memory, run.fences.size() + 6);
      if (r.b()) {
        const std::size_t bit_count = r.u64();
        const std::size_t hash_count = r.u64();
        const std::uint64_t seed = r.u64();
        run.bloom = std::make_unique<extmem::BloomFilter>(
            *ctx_.memory, bit_count, hash_count, seed, r.vec());
      }
    }
  }
  EXTHASH_CHECK_MSG(r.done(), "trailing words in lsm checkpoint meta");
}

void LsmTable::validateLayout(AuditReport& report) const {
  ExternalHashTable::validateLayout(report);  // attached-cache audit
  flushCache();  // the inspect() reads below bypass the cache
  const char* kComponent = "lsm";

  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       memtable_.size() <= config_.memtable_capacity_items,
                       "memtable holds " << memtable_.size()
                           << " items, capacity "
                           << config_.memtable_capacity_items);

  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    // Compaction fires the moment a level exceeds its fanout, so at any
    // quiescent point every level is back within bound.
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         levels_[lvl].size() <= config_.fanout,
                         "level " << lvl << " holds " << levels_[lvl].size()
                             << " runs, fanout bound "
                             << config_.fanout);
    for (std::size_t ri = 0; ri < levels_[lvl].size(); ++ri) {
      const Run& run = levels_[lvl][ri];
      const std::string where =
          "level " + std::to_string(lvl) + " run " + std::to_string(ri);
      EXTHASH_AUDIT_EXPECT(report, kComponent, run.blocks >= 1,
                           where << " spans zero blocks");
      const std::size_t expected_fences =
          (run.blocks + config_.fence_stride - 1) / config_.fence_stride;
      EXTHASH_AUDIT_EXPECT(report, kComponent,
                           run.fences.size() == expected_fences,
                           where << " keeps " << run.fences.size()
                                 << " fences, " << run.blocks
                                 << " blocks at stride "
                                 << config_.fence_stride << " demand "
                                 << expected_fences);

      bool have_prev = false;
      std::uint64_t prev_key = 0;
      std::size_t records_seen = 0;
      for (std::size_t blk = 0; blk < run.blocks; ++blk) {
        const extmem::BlockId id = run.extent + blk;
        EXTHASH_AUDIT_EXPECT(report, kComponent,
                             ctx_.device->isAllocated(id),
                             where << " block " << id << " is freed");
        if (!ctx_.device->isAllocated(id)) break;
        ConstSortedRunPage page(ctx_.device->inspect(id));
        const std::size_t capacity = extmem::recordCapacityForWords(
            ctx_.device->wordsPerBlock());
        EXTHASH_AUDIT_EXPECT(report, kComponent, page.count() <= capacity,
                             where << " block " << id << " claims "
                                   << page.count()
                                   << " records, capacity " << capacity);
        const std::size_t n = std::min(page.count(), capacity);
        if (n > 0 && blk % config_.fence_stride == 0) {
          const std::size_t group = blk / config_.fence_stride;
          EXTHASH_AUDIT_EXPECT(
              report, kComponent,
              group < run.fences.size() &&
                  run.fences[group] == page.recordAt(0).key,
              where << " fence " << group << " disagrees with block "
                    << id << " first key " << page.recordAt(0).key);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t key = page.recordAt(i).key;
          EXTHASH_AUDIT_EXPECT(report, kComponent,
                               !have_prev || prev_key < key,
                               where << " key order broken at block " << id
                                     << " slot " << i << ": " << prev_key
                                     << " !< " << key);
          prev_key = key;
          have_prev = true;
        }
        records_seen += n;
      }
      EXTHASH_AUDIT_EXPECT(report, kComponent,
                           records_seen == run.records,
                           where << " blocks hold " << records_seen
                                 << " records, run header says "
                                 << run.records);
      if (records_seen > 0 && have_prev) {
        ConstSortedRunPage first(ctx_.device->inspect(run.extent));
        EXTHASH_AUDIT_EXPECT(report, kComponent,
                             first.count() > 0 &&
                                 run.min_key == first.recordAt(0).key,
                             where << " min_key " << run.min_key
                                   << " disagrees with first record");
        EXTHASH_AUDIT_EXPECT(report, kComponent, run.max_key == prev_key,
                             where << " max_key " << run.max_key
                                   << " disagrees with last record "
                                   << prev_key);
      }
    }
  }
}

}  // namespace exthash::tables
