#include "core/buffered_hash_table.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "tables/meta_words.h"

namespace exthash::core {

using tables::ChainingConfig;
using tables::ChainingHashTable;
using tables::KWayMerger;
using tables::LogMethodConfig;

BufferedConfig BufferedConfig::forQueryExponent(double c, std::size_t b,
                                                std::size_t h0_capacity_items,
                                                std::size_t gamma) {
  EXTHASH_CHECK_MSG(c > 0.0 && c < 1.0, "Theorem 2 needs 0 < c < 1");
  BufferedConfig cfg;
  cfg.beta = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::ceil(std::pow(static_cast<double>(b), c))));
  cfg.beta = std::min(cfg.beta, b);  // the paper requires β <= b
  cfg.gamma = gamma;
  cfg.h0_capacity_items = h0_capacity_items;
  return cfg;
}

BufferedConfig BufferedConfig::forInsertBudget(double epsilon, std::size_t b,
                                               std::size_t h0_capacity_items,
                                               std::size_t gamma) {
  EXTHASH_CHECK_MSG(epsilon > 0.0, "insert budget must be positive");
  BufferedConfig cfg;
  // Each round reads and writes Ĥ about β times per |Ĥ| inserts, i.e.
  // ~2β/b I/Os amortized per insert from merging; budget half of ε for
  // that and leave the rest for the buffer's own merges.
  cfg.beta = std::max<std::size_t>(
      2, static_cast<std::size_t>(epsilon * static_cast<double>(b) / 4.0));
  cfg.beta = std::min(cfg.beta, b);
  cfg.gamma = gamma;
  cfg.h0_capacity_items = h0_capacity_items;
  return cfg;
}

BufferedHashTable::BufferedHashTable(tables::TableContext ctx,
                                     BufferedConfig config)
    : ExternalHashTable(ctx),  // keep a copy; buffer_ shares the context
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx.device->wordsPerBlock())),
      buffer_(ctx, LogMethodConfig{config.gamma, config.h0_capacity_items}) {
  EXTHASH_CHECK_MSG(config_.beta >= 2, "β must be at least 2");
}

std::size_t BufferedHashTable::mergeThreshold() const {
  // Merge every |Ĥ|/β inserts; before Ĥ exists, the first merge happens
  // once the buffer outgrows a few H0 flushes (the paper dumps the first
  // m items straight into Ĥ — same effect).
  const std::size_t floor_items = 2 * config_.h0_capacity_items;
  if (!hhat_) return floor_items;
  return std::max(floor_items, hhat_->size() / config_.beta);
}

bool BufferedHashTable::insert(std::uint64_t key, std::uint64_t value) {
  EXTHASH_CHECK_MSG(value != kTombstoneValue,
                    "value collides with the tombstone sentinel");
  const bool fresh = buffer_.insert(key, value);
  if (buffer_.bufferedRecords() >= mergeThreshold()) mergeIntoHhat();
  return fresh;
}

void BufferedHashTable::mergeIntoHhat() { mergeIntoHhatWith({}); }

void BufferedHashTable::mergeIntoHhatWith(std::vector<HashedRecord> newest) {
  // One hash-ordered streaming pass over (batch newest, buffer next,
  // Ĥ oldest) rebuilds Ĥ at load <= 1/2. Every input is read once; the
  // new Ĥ is written once — the paper's O(|Ĥ|/b) scan per merge.
  // UNCACHED BY DESIGN: a one-pass stream has no reuse for a cache to
  // capture, and admitting it would only evict hot frames. Ĥ rebuilds run
  // on fresh ChainingHashTables with no cache attached, so the scope just
  // attributes the device reads (IoStats::cache_bypass_reads) as
  // deliberate bypasses rather than cache misses.
  extmem::CacheBypassScope merge_bypass(*ctx_.device);
  // Size the bucket array for the incoming total at load 1/2 (estimated
  // before draining; tombstones make this a slight overestimate).
  const std::size_t total_estimate = newest.size() +
                                     buffer_.bufferedRecords() +
                                     (hhat_ ? hhat_->size() : 0);
  std::vector<std::unique_ptr<tables::RecordCursor>> sources;
  if (!newest.empty()) {
    sources.push_back(
        std::make_unique<tables::VectorCursor>(std::move(newest)));
  }
  sources.push_back(buffer_.drainAll());
  std::unique_ptr<ChainingHashTable> old = std::move(hhat_);
  if (old) sources.push_back(old->scanInHashOrder());

  KWayMerger merged(std::move(sources), /*drop_tombstones=*/true,
                    *ctx_.memory);
  const std::size_t buckets = std::max<std::size_t>(
      1,
      (2 * std::max<std::size_t>(total_estimate, 1) + records_per_block_ - 1) /
          records_per_block_);
  hhat_ = ChainingHashTable::buildFromSorted(
      ctx_, ChainingConfig{buckets, tables::BucketIndexer{}}, merged);
  if (old) old->destroy();
  ++merges_;
}

void BufferedHashTable::applyBatch(std::span<const tables::Op> ops) {
  for (const tables::Op& op : ops) {
    if (op.kind == tables::OpKind::kErase) {
      throw tables::UnsupportedOperation(
          "buffered does not support erase (insert-only model)");
    }
    EXTHASH_CHECK_MSG(op.value != kTombstoneValue,
                      "value collides with the tombstone sentinel");
  }
  // Updates to keys already in H0 stay free (the buffer absorbs them);
  // the genuinely fresh keys decide the strategy. When they push the
  // buffer past the merge threshold — i.e. exactly when the serial loop
  // would merge mid-batch — the fresh prefix up to the crossing joins the
  // Ĥ merge directly, sparing those records the round-trip through the
  // buffer's disk levels, and the tail refills the emptied buffer.
  const auto& h0 = buffer_.memoryTable();
  std::vector<Record> fresh;  // arrival order, newest value per key
  std::unordered_map<std::uint64_t, std::size_t> fresh_pos;
  std::vector<tables::Op> updates;
  for (const tables::Op& op : ops) {
    if (h0.contains(op.key)) {
      updates.push_back(op);
      continue;
    }
    const auto [it, inserted] = fresh_pos.try_emplace(op.key, fresh.size());
    if (inserted) fresh.push_back(Record{op.key, op.value});
    else fresh[it->second].value = op.value;
  }
  const std::size_t threshold = mergeThreshold();
  const std::size_t buffered = buffer_.bufferedRecords();
  if (ops.size() >= 2 && !fresh.empty() &&
      buffered + fresh.size() >= threshold) {
    if (!updates.empty()) buffer_.applyBatch(updates);  // free: all in H0
    const std::size_t need =
        threshold > buffered ? threshold - buffered : 1;
    std::vector<Record> head(
        fresh.begin(),
        fresh.begin() + static_cast<std::ptrdiff_t>(
                            std::min(need, fresh.size())));
    std::vector<tables::Op> tail;
    for (std::size_t i = head.size(); i < fresh.size(); ++i) {
      tail.push_back(tables::Op::insertOp(fresh[i].key, fresh[i].value));
    }
    extmem::MemoryCharge scratch(*ctx_.memory,
                                 fresh.size() * kWordsPerHashedRecord);
    mergeIntoHhatWith(sortByHash(head, *ctx_.hash));
    if (!tail.empty()) applyBatch(tail);  // buffer is empty now
    return;
  }
  buffer_.applyBatch(ops);
  if (buffer_.bufferedRecords() >= mergeThreshold()) mergeIntoHhat();
}

void BufferedHashTable::lookupBatch(std::span<const std::uint64_t> keys,
                                    std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(keys.size() == out.size());
  // Ĥ first: this is what achieves 1 + O(1/β) on the paper's distinct-key
  // successful lookups, since >= (1 - 1/β) of items are in Ĥ. Tombstone
  // hits resolve to absent without consulting the buffer; the misses go
  // to the buffer.
  std::vector<std::size_t> pending;
  if (hhat_) {
    std::vector<std::optional<std::uint64_t>> hhat_out(keys.size());
    hhat_->lookupBatch(keys, hhat_out);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (hhat_out[i].has_value()) {
        out[i] = (*hhat_out[i] == kTombstoneValue) ? std::nullopt
                                                   : hhat_out[i];
      } else {
        pending.push_back(i);
      }
    }
  } else {
    for (std::size_t i = 0; i < keys.size(); ++i) pending.push_back(i);
  }
  if (pending.empty()) return;
  std::vector<std::uint64_t> sub_keys;
  sub_keys.reserve(pending.size());
  for (const std::size_t idx : pending) sub_keys.push_back(keys[idx]);
  std::vector<std::optional<std::uint64_t>> sub_out(sub_keys.size());
  buffer_.lookupBatch(sub_keys, sub_out);
  for (std::size_t s = 0; s < pending.size(); ++s) out[pending[s]] = sub_out[s];
}

std::optional<std::uint64_t> BufferedHashTable::strictLookup(
    std::uint64_t key) {
  if (auto v = buffer_.lookup(key)) return v;
  if (hhat_) {
    if (auto v = hhat_->lookup(key)) {
      if (*v == kTombstoneValue) return std::nullopt;
      return v;
    }
  }
  return std::nullopt;
}

std::size_t BufferedHashTable::size() const {
  return (hhat_ ? hhat_->size() : 0) + buffer_.size();
}

void BufferedHashTable::visitLayout(tables::LayoutVisitor& visitor) const {
  buffer_.visitLayout(visitor);
  if (hhat_) hhat_->visitLayout(visitor);
}

std::optional<extmem::BlockId> BufferedHashTable::primaryBlockOf(
    std::uint64_t key) const {
  // The address function f points into Ĥ: the (1 - 1/β) majority of items
  // are reachable there in one I/O; buffered disk items are slow-zone —
  // exactly the |S| <= m + δk budget of inequality (1).
  if (!hhat_) return std::nullopt;
  return hhat_->primaryBlockOf(key);
}

std::string BufferedHashTable::debugString() const {
  return "buffered{β=" + std::to_string(config_.beta) +
         ", Ĥ=" + std::to_string(hhatSize()) +
         ", buffer=" + std::to_string(bufferSize()) +
         ", merges=" + std::to_string(merges_) + "}";
}

// ---------------------------------------------------------------------------
// Checkpoint metadata
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kBufferedMetaMagic = 0x425546464D455441ULL;  // BUFFMETA
}  // namespace

std::vector<std::uint64_t> BufferedHashTable::serializeMeta() const {
  tables::MetaWriter w;
  w.tag(kBufferedMetaMagic);
  w.u64(config_.beta);
  w.u64(config_.gamma);
  w.u64(config_.h0_capacity_items);
  w.u64(records_per_block_);
  w.u64(merges_);
  // The buffer's section is length-prefixed so its format can evolve
  // independently of this wrapper.
  w.vec(buffer_.serializeMeta());
  w.b(hhat_ != nullptr);
  if (hhat_) hhat_->serializeMetaInto(w);
  return w.take();
}

void BufferedHashTable::restoreMeta(std::span<const std::uint64_t> words) {
  tables::MetaReader r(words);
  r.expectTag(kBufferedMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == config_.beta && r.u64() == config_.gamma &&
                        r.u64() == config_.h0_capacity_items &&
                        r.u64() == records_per_block_,
                    "buffered checkpoint geometry mismatch");
  merges_ = r.u64();
  const std::vector<std::uint64_t> buffer_meta = r.vec();
  buffer_.restoreMeta(buffer_meta);
  if (hhat_) hhat_->abandon();  // blocks belong to the restored image
  hhat_.reset();
  if (r.b()) hhat_ = tables::ChainingHashTable::restoreFromMeta(ctx_, r);
  EXTHASH_CHECK_MSG(r.done(), "trailing words in buffered checkpoint meta");
}

}  // namespace exthash::core
