#include "tables/log_method_table.h"

#include <algorithm>

#include "tables/meta_words.h"

namespace exthash::tables {

LogMethodTable::LogMethodTable(TableContext ctx, LogMethodConfig config)
    : MemtableFront(std::move(ctx), config.h0_capacity_items),
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())) {
  EXTHASH_CHECK_MSG(config_.gamma >= 2, "logarithmic method needs γ >= 2");
  EXTHASH_CHECK_MSG(config_.h0_capacity_items >= 1,
                    "H0 needs capacity >= 1 item");
}

std::size_t LogMethodTable::levelCapacity(std::size_t k) const {
  std::size_t cap = config_.h0_capacity_items;
  for (std::size_t i = 0; i < k; ++i) cap *= config_.gamma;
  return cap;
}

ChainingConfig LogMethodTable::levelConfigForSize(std::size_t items) const {
  // Every migration rebuilds the level from scratch, so the bucket array
  // can be sized for the records actually present (at load 1/2) instead of
  // the level's worst-case capacity. This keeps the build cost at
  // O(items/b) writes even when the level is far below capacity — without
  // it, sparse rebuilds pay one write per nearly-empty bucket and the
  // Lemma 5 constant doubles for large γ.
  const std::size_t buckets = std::max<std::size_t>(
      1, (2 * items + records_per_block_ - 1) / records_per_block_);
  return ChainingConfig{buckets, BucketIndexer{IndexKind::kRange, 1.0}};
}

std::size_t LogMethodTable::nonemptyLevels() const noexcept {
  std::size_t n = 0;
  for (const auto& level : levels_)
    if (level) ++n;
  return n;
}

std::size_t LogMethodTable::bufferedRecords() const noexcept {
  std::size_t n = memtable_.size();
  for (const auto& level : levels_)
    if (level) n += level->size();
  return n;
}

std::vector<HashedRecord> LogMethodTable::drainH0() {
  const hashfn::HashFunction& h = *ctx_.hash;
  return memtable_.drainSorted([&h](std::uint64_t key) { return h(key); });
}

void LogMethodTable::flushMemtable() { mergeDown(drainH0()); }

void LogMethodTable::bulkSpill(std::vector<Record> records) {
  mergeDown(sortByHash(records, *ctx_.hash));
}

void LogMethodTable::mergeDown(std::vector<HashedRecord> newest) {
  // Find the shallowest level k whose capacity can absorb the incoming
  // records plus every shallower level; merge them all into k with one
  // streaming pass.
  // UNCACHED BY DESIGN: the consumed levels are each read exactly once
  // and then destroyed — zero reuse, so these reads are tallied as
  // deliberate bypasses (IoStats::cache_bypass_reads), not cache misses.
  extmem::CacheBypassScope merge_bypass(*ctx_.device);
  std::size_t carried = newest.size();
  std::size_t k = 1;
  std::size_t incoming = carried;
  while (true) {
    const std::size_t existing =
        (k <= levels_.size() && levels_[k - 1]) ? levels_[k - 1]->size() : 0;
    if (carried + existing <= levelCapacity(k)) {
      incoming = carried + existing;
      break;
    }
    carried += existing;
    ++k;
  }

  // Sources newest-first: the incoming records, then H1, ..., level k.
  std::vector<std::unique_ptr<RecordCursor>> sources;
  sources.push_back(std::make_unique<VectorCursor>(std::move(newest)));
  std::vector<std::unique_ptr<ChainingHashTable>> consumed;
  const std::size_t deepest = std::min(k, levels_.size());
  for (std::size_t j = 1; j <= deepest; ++j) {
    if (!levels_[j - 1]) continue;
    sources.push_back(levels_[j - 1]->scanInHashOrder());
    consumed.push_back(std::move(levels_[j - 1]));
  }

  // Tombstones may be dropped only when nothing older remains below k.
  bool older_below = false;
  for (std::size_t j = k + 1; j <= levels_.size(); ++j) {
    if (levels_[j - 1]) older_below = true;
  }

  KWayMerger merged(std::move(sources), /*drop_tombstones=*/!older_below,
                    *ctx_.memory);
  auto rebuilt = ChainingHashTable::buildFromSorted(
      ctx_, levelConfigForSize(incoming), merged);

  // Release the merged-away levels' blocks, then install the new level.
  for (auto& table : consumed) table->destroy();
  consumed.clear();
  if (levels_.size() < k) levels_.resize(k);
  levels_[k - 1] = std::move(rebuilt);
  ++merges_;
}

std::optional<std::uint64_t> LogMethodTable::lookup(std::uint64_t key) {
  if (auto v = memtable_.find(key)) {
    if (*v == kTombstoneValue) return std::nullopt;
    return v;
  }
  for (const auto& level : levels_) {
    if (!level) continue;
    if (auto v = level->lookup(key)) {
      if (*v == kTombstoneValue) return std::nullopt;
      return v;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Batch API
// ---------------------------------------------------------------------------

void LogMethodTable::lookupBelow(std::span<const std::uint64_t> keys,
                                 std::span<std::optional<std::uint64_t>> out,
                                 std::vector<std::size_t>& pending) {
  // Each disk level resolves its whole subgroup with one bucket-grouped
  // pass, newest level first.
  std::vector<std::uint64_t> sub_keys;
  std::vector<std::optional<std::uint64_t>> sub_out;
  for (const auto& level : levels_) {
    if (!level || pending.empty()) continue;
    sub_keys.clear();
    for (const std::size_t idx : pending) sub_keys.push_back(keys[idx]);
    sub_out.assign(sub_keys.size(), std::nullopt);
    level->lookupBatch(sub_keys, sub_out);
    std::vector<std::size_t> still;
    for (std::size_t s = 0; s < pending.size(); ++s) {
      if (sub_out[s].has_value()) {
        out[pending[s]] = (*sub_out[s] == kTombstoneValue)
                              ? std::nullopt
                              : sub_out[s];
      } else {
        still.push_back(pending[s]);
      }
    }
    pending = std::move(still);
  }
}

void LogMethodTable::visitLayout(LayoutVisitor& visitor) const {
  memtable_.forEach([&](const Record& r) {
    if (r.value != kTombstoneValue) visitor.memoryItem(r);
  });
  for (const auto& level : levels_) {
    if (level) level->visitLayout(visitor);
  }
}

std::optional<extmem::BlockId> LogMethodTable::primaryBlockOf(
    std::uint64_t key) const {
  // The best memory-computable address function points into the largest
  // level (the majority of buffered items); items elsewhere are slow-zone.
  const ChainingHashTable* largest = nullptr;
  for (const auto& level : levels_) {
    if (level && (!largest || level->size() > largest->size()))
      largest = level.get();
  }
  if (!largest) return std::nullopt;
  return largest->primaryBlockOf(key);
}

std::string LogMethodTable::debugString() const {
  std::string s = "log-method{γ=" + std::to_string(config_.gamma) +
                  ", h0=" + std::to_string(memtable_.size()) + "/" +
                  std::to_string(memtable_.capacityItems()) + ", levels=[";
  for (std::size_t k = 1; k <= levels_.size(); ++k) {
    if (k > 1) s += ",";
    s += levels_[k - 1] ? std::to_string(levels_[k - 1]->size()) : "-";
  }
  s += "], merges=" + std::to_string(merges_) + "}";
  return s;
}

// ---------------------------------------------------------------------------
// Checkpoint metadata
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kLogMethodMetaMagic = 0x4C4F474D4D455441ULL;  // LOGMMETA
}  // namespace

std::vector<std::uint64_t> LogMethodTable::serializeMeta() const {
  MetaWriter w;
  w.tag(kLogMethodMetaMagic);
  w.u64(config_.gamma);
  w.u64(config_.h0_capacity_items);
  w.u64(records_per_block_);
  w.u64(live_size_);
  w.u64(merges_);
  // H0 contents (tombstones included) live only in memory, so they travel
  // in the manifest alongside the structural state.
  std::vector<std::uint64_t> mem;
  memtable_.forEach([&](const Record& r) {
    mem.push_back(r.key);
    mem.push_back(r.value);
  });
  w.vec(mem);
  // Each nonempty level embeds its own tagged chaining section, complete
  // with the level's ACTUAL bucket geometry (levels are rebuilt sized for
  // their contents, so it cannot be derived from levelCapacity alone).
  w.u64(levels_.size());
  for (const auto& level : levels_) {
    w.b(level != nullptr);
    if (level) level->serializeMetaInto(w);
  }
  return w.take();
}

void LogMethodTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kLogMethodMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == config_.gamma &&
                        r.u64() == config_.h0_capacity_items &&
                        r.u64() == records_per_block_,
                    "log-method checkpoint geometry mismatch");
  live_size_ = r.u64();
  merges_ = r.u64();
  const std::vector<std::uint64_t> mem = r.vec();
  EXTHASH_CHECK(mem.size() % 2 == 0);
  memtable_.clear();
  for (std::size_t i = 0; i < mem.size(); i += 2)
    EXTHASH_CHECK(memtable_.insertOrAssign(mem[i], mem[i + 1]));
  // The restored levels' extents were rewound into existence by
  // restoreImage; a fresh table owns no levels, so nothing is freed here.
  EXTHASH_CHECK_MSG(levels_.empty(),
                    "log-method restoreMeta expects a freshly constructed "
                    "table");
  levels_.resize(r.u64());
  for (auto& level : levels_) {
    if (r.b()) level = ChainingHashTable::restoreFromMeta(ctx_, r);
  }
  EXTHASH_CHECK_MSG(r.done(), "trailing words in log-method checkpoint meta");
}

void LogMethodTable::validateLayout(AuditReport& report) const {
  ExternalHashTable::validateLayout(report);  // attached-cache audit
  const char* kComponent = "log-method";

  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       memtable_.size() <= config_.h0_capacity_items,
                       "H0 holds " << memtable_.size() << " items, capacity "
                                   << config_.h0_capacity_items);
  for (std::size_t k = 1; k <= levels_.size(); ++k) {
    if (!levels_[k - 1]) continue;
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         levels_[k - 1]->size() <= levelCapacity(k),
                         "level " << k << " holds "
                             << levels_[k - 1]->size()
                             << " records, geometric capacity "
                             << levelCapacity(k));
    // Each level is a chaining table; recurse into its deep audit so a
    // corrupted chain inside a level surfaces under "chaining".
    levels_[k - 1]->validateLayout(report);
  }
}

// ---------------------------------------------------------------------------
// drainAll — hand the full buffered contents to a caller-side merge.
// ---------------------------------------------------------------------------

namespace {

/// Owns the drained level tables for the lifetime of the merge, destroying
/// (freeing) them when the cursor is dropped.
class DrainCursor final : public RecordCursor {
 public:
  DrainCursor(std::unique_ptr<KWayMerger> merger,
              std::vector<std::unique_ptr<ChainingHashTable>> owned)
      : merger_(std::move(merger)), owned_(std::move(owned)) {}

  ~DrainCursor() override {
    for (auto& table : owned_) table->destroy();
  }

  std::span<const HashedRecord> nextChunk() override {
    return merger_->nextChunk();
  }

 private:
  std::unique_ptr<KWayMerger> merger_;
  std::vector<std::unique_ptr<ChainingHashTable>> owned_;
};

}  // namespace

std::unique_ptr<RecordCursor> LogMethodTable::drainAll() {
  std::vector<std::unique_ptr<RecordCursor>> sources;
  sources.push_back(std::make_unique<VectorCursor>(drainH0()));
  std::vector<std::unique_ptr<ChainingHashTable>> owned;
  for (auto& level : levels_) {
    if (!level) continue;
    sources.push_back(level->scanInHashOrder());
    owned.push_back(std::move(level));
  }
  levels_.clear();
  live_size_ = 0;
  auto merger = std::make_unique<KWayMerger>(
      std::move(sources), /*drop_tombstones=*/false, *ctx_.memory);
  return std::make_unique<DrainCursor>(std::move(merger), std::move(owned));
}

}  // namespace exthash::tables
