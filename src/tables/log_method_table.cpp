#include "tables/log_method_table.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "tables/meta_words.h"

namespace exthash::tables {

LogMethodTable::LogMethodTable(TableContext ctx, LogMethodConfig config)
    : ExternalHashTable(std::move(ctx)),
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())),
      h0_(*ctx_.memory, config.h0_capacity_items) {
  EXTHASH_CHECK_MSG(config_.gamma >= 2, "logarithmic method needs γ >= 2");
  EXTHASH_CHECK_MSG(config_.h0_capacity_items >= 1,
                    "H0 needs capacity >= 1 item");
}

std::size_t LogMethodTable::levelCapacity(std::size_t k) const {
  std::size_t cap = config_.h0_capacity_items;
  for (std::size_t i = 0; i < k; ++i) cap *= config_.gamma;
  return cap;
}

ChainingConfig LogMethodTable::levelConfig(std::size_t k) const {
  // Level k holds up to levelCapacity(k) items at load <= 1/2.
  const std::size_t buckets = std::max<std::size_t>(
      1, (2 * levelCapacity(k) + records_per_block_ - 1) / records_per_block_);
  return ChainingConfig{buckets, BucketIndexer{IndexKind::kRange, 1.0}};
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
  std::size_t n = h0_.size();
  for (const auto& level : levels_)
    if (level) n += level->size();
  return n;
}

bool LogMethodTable::insert(std::uint64_t key, std::uint64_t value) {
  EXTHASH_CHECK_MSG(value != kTombstoneValue,
                    "value collides with the tombstone sentinel");
  if (h0_.full()) flush();
  const bool new_in_h0 = !h0_.contains(key);
  EXTHASH_CHECK(h0_.insertOrAssign(key, value));
  if (new_in_h0) ++live_size_;  // exact under distinct-key workloads
  return new_in_h0;
}

std::vector<HashedRecord> LogMethodTable::drainH0() {
  const hashfn::HashFunction& h = *ctx_.hash;
  return h0_.drainSorted([&h](std::uint64_t key) { return h(key); });
}

void LogMethodTable::flush() { mergeDown(drainH0()); }

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
  if (auto v = h0_.find(key)) {
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

bool LogMethodTable::erase(std::uint64_t key) {
  // The lookup is needed to report presence; it also keeps live_size_
  // exact. Costs one query's worth of reads, as documented.
  if (!lookup(key).has_value()) return false;
  if (h0_.full()) flush();
  EXTHASH_CHECK(h0_.insertOrAssign(key, kTombstoneValue));
  --live_size_;
  return true;
}

// ---------------------------------------------------------------------------
// Batch API
// ---------------------------------------------------------------------------

void LogMethodTable::applyBatch(std::span<const Op> ops) {
  for (const Op& op : ops) {
    if (op.kind == OpKind::kErase) {
      // A singleton batch IS the serial protocol; anything larger gets
      // its presence probes grouped instead of paying one full query
      // cascade per erased key.
      if (ops.size() < 2) {
        ExternalHashTable::applyBatch(ops);
      } else {
        applyBatchWithErases(ops);
      }
      return;
    }
  }
  // Small batches fit into H0 without any flush (the serial loop is
  // free), and a singleton batch IS the serial protocol.
  if (ops.size() < 2 || h0_.size() + ops.size() <= h0_.capacityItems()) {
    ExternalHashTable::applyBatch(ops);
    return;
  }

  // live_size_ mirrors the serial loop exactly: an insert is "fresh" iff
  // its key is absent from H0 at that moment, and H0 empties on overflow.
  // The simulation is memory-only — no I/O, charged as scratch. (This
  // whole method parallels LsmTable::applyBatch with H0 in place of the
  // memtable; keep the two in step.)
  extmem::MemoryCharge scratch(*ctx_.memory, 3 * (h0_.size() + ops.size()));
  {
    std::unordered_set<std::uint64_t> sim;
    sim.reserve(h0_.capacityItems());
    h0_.forEach([&](const Record& r) { sim.insert(r.key); });
    for (const Op& op : ops) {
      EXTHASH_CHECK_MSG(op.value != kTombstoneValue,
                        "value collides with the tombstone sentinel");
      if (sim.size() >= h0_.capacityItems()) sim.clear();
      if (sim.insert(op.key).second) ++live_size_;
    }
  }

  // Physical path: updates to keys already in H0 are free, exactly as in
  // the serial loop; only genuinely fresh keys (newest-wins within the
  // batch) need disk work — one sort, one streaming merge down, instead
  // of one cascade per H0 fill. H0 stays resident: fresh keys are
  // disjoint from it, so version order is unaffected.
  std::unordered_map<std::uint64_t, std::uint64_t> fresh;
  fresh.reserve(ops.size());
  for (const Op& op : ops) {
    if (h0_.contains(op.key)) {
      EXTHASH_CHECK(h0_.insertOrAssign(op.key, op.value));
    } else {
      fresh[op.key] = op.value;
    }
  }
  // Fill H0's free space first, so a hot set stays memory-resident across
  // batches and keeps absorbing repeats for free; only the spill needs
  // disk work.
  std::vector<Record> spill;
  for (const auto& [key, value] : fresh) {
    if (!h0_.full()) {
      EXTHASH_CHECK(h0_.insertOrAssign(key, value));
    } else {
      spill.push_back(Record{key, value});
    }
  }
  if (spill.empty()) return;

  if (spill.size() <= h0_.capacityItems()) {
    // Small spill: keep the serial granularity (fill H0, flush on
    // overflow — at most one cascade). live_size_ was settled above.
    for (const Record& r : spill) {
      if (h0_.full()) flush();
      EXTHASH_CHECK(h0_.insertOrAssign(r.key, r.value));
    }
    return;
  }

  // Large spill: one bulk merge of H0 + spill replaces the
  // ceil(spill/h0) cascading flushes the serial loop would pay. H0
  // empties here and refills from the next batch's fresh keys.
  std::vector<Record> newest;
  newest.reserve(h0_.size() + spill.size());
  h0_.forEach([&](const Record& r) { newest.push_back(r); });
  h0_.clear();
  newest.insert(newest.end(), spill.begin(), spill.end());
  mergeDown(sortByHash(newest, *ctx_.hash));
}

std::vector<bool> LogMethodTable::levelsLiveBatch(
    const std::vector<std::uint64_t>& keys) {
  std::vector<bool> live(keys.size(), false);
  std::vector<std::size_t> pending(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) pending[i] = i;

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
        live[pending[s]] = *sub_out[s] != kTombstoneValue;
      } else {
        still.push_back(pending[s]);
      }
    }
    pending = std::move(still);
  }
  return live;  // keys resolved nowhere are absent: false already
}

void LogMethodTable::applyBatchWithErases(std::span<const Op> ops) {
  // Pass 1 — resolve every erase's presence WITHOUT touching the
  // structure. The presence an erase observes in the serial loop is
  // "newest-wins over (initial state + the batch prefix before it)", and
  // flushes only move versions down without reordering them, so the
  // initial-state part is flush-invariant: earlier batch ops answer from
  // an overlay, the initial H0 answers in memory, and only first-touch
  // erases of keys H0 has never seen need disk — those probe the levels
  // bucket-grouped, one pass per level, instead of one query per key.
  extmem::MemoryCharge scratch(*ctx_.memory, 4 * ops.size());
  enum class State : std::uint8_t { kLive, kDead };
  struct EraseSource {
    bool from_probe = false;
    bool live = false;       // valid when !from_probe
    std::size_t probe = 0;   // valid when from_probe
  };
  std::unordered_map<std::uint64_t, State> overlay;  // state after prefix
  std::unordered_map<std::uint64_t, std::size_t> probe_index;
  std::vector<std::uint64_t> probe_keys;
  std::vector<EraseSource> sources;  // one per erase op, in batch order
  for (const Op& op : ops) {
    if (op.kind == OpKind::kInsert) {
      EXTHASH_CHECK_MSG(op.value != kTombstoneValue,
                        "value collides with the tombstone sentinel");
      overlay[op.key] = State::kLive;
      continue;
    }
    EraseSource src;
    if (const auto it = overlay.find(op.key); it != overlay.end()) {
      src.live = it->second == State::kLive;
    } else if (auto v = h0_.find(op.key)) {
      src.live = *v != kTombstoneValue;
    } else {
      src.from_probe = true;
      const auto [pit, fresh] =
          probe_index.try_emplace(op.key, probe_keys.size());
      if (fresh) probe_keys.push_back(op.key);
      src.probe = pit->second;
    }
    sources.push_back(src);
    // Whether or not the key was present, it is absent afterwards.
    overlay[op.key] = State::kDead;
  }
  const std::vector<bool> probe_live = levelsLiveBatch(probe_keys);

  // Pass 2 — replay with serial semantics (same flush points, same
  // live_size_ accounting), the disk probes replaced by the resolutions.
  std::size_t e = 0;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kInsert) {
      if (h0_.full()) flush();
      const bool new_in_h0 = !h0_.contains(op.key);
      EXTHASH_CHECK(h0_.insertOrAssign(op.key, op.value));
      if (new_in_h0) ++live_size_;
      continue;
    }
    const EraseSource src = sources[e++];
    const bool present = src.from_probe ? probe_live[src.probe] : src.live;
    if (!present) continue;  // serial erase writes no tombstone either
    if (h0_.full()) flush();
    EXTHASH_CHECK(h0_.insertOrAssign(op.key, kTombstoneValue));
    --live_size_;
  }
}

void LogMethodTable::lookupBatch(std::span<const std::uint64_t> keys,
                                 std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(keys.size() == out.size());
  // H0 answers for free; each disk level then resolves its whole subgroup
  // with one bucket-grouped pass, newest level first.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (auto v = h0_.find(keys[i])) {
      out[i] = (*v == kTombstoneValue) ? std::nullopt : std::optional(*v);
    } else {
      pending.push_back(i);
    }
  }

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
  for (const std::size_t idx : pending) out[idx] = std::nullopt;
}

void LogMethodTable::visitLayout(LayoutVisitor& visitor) const {
  h0_.forEach([&](const Record& r) {
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
                  ", h0=" + std::to_string(h0_.size()) + "/" +
                  std::to_string(h0_.capacityItems()) + ", levels=[";
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
  h0_.forEach([&](const Record& r) {
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
  h0_.clear();
  for (std::size_t i = 0; i < mem.size(); i += 2)
    EXTHASH_CHECK(h0_.insertOrAssign(mem[i], mem[i + 1]));
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
                       h0_.size() <= config_.h0_capacity_items,
                       "H0 holds " << h0_.size() << " items, capacity "
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
