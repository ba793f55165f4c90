#include "tables/jensen_pagh_table.h"

#include <algorithm>
#include <cmath>

#include "extmem/block_device.h"
#include "tables/batch_util.h"
#include "tables/meta_words.h"

namespace exthash::tables {

using extmem::BlockId;
using extmem::BucketPage;
using extmem::ConstBucketPage;
using extmem::Word;

namespace {
/// Primary bucket count for `capacity` items at per-bucket load 1 - 1/√b.
std::uint64_t bucketsFor(std::size_t capacity, std::size_t b) {
  const double per_bucket =
      static_cast<double>(b) * (1.0 - 1.0 / std::sqrt(static_cast<double>(b)));
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(static_cast<double>(capacity) / per_bucket)));
}
}  // namespace

JensenPaghTable::JensenPaghTable(TableContext ctx, JensenPaghConfig config)
    : ExternalHashTable(std::move(ctx)),
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())),
      meta_charge_(*ctx_.memory, 12) {
  EXTHASH_CHECK(config_.initial_capacity >= 1);
  initArrays(config_.initial_capacity);
}

JensenPaghTable::~JensenPaghTable() {
  if (extent_ != extmem::kInvalidBlock)
    ctx_.device->freeExtent(extent_, bucket_count_);
}

void JensenPaghTable::initArrays(std::size_t capacity) {
  capacity_target_ = capacity;
  bucket_count_ = bucketsFor(capacity, records_per_block_);
  extent_ = ctx_.device->allocateExtent(bucket_count_);
  // Overflow expects a Θ(1/√b) fraction of items; size its bucket array
  // tightly (chains absorb the tail) so the overall load factor stays at
  // the promised 1 - O(1/√b).
  const double expected_overflow =
      static_cast<double>(capacity) /
      std::sqrt(static_cast<double>(records_per_block_));
  const std::uint64_t ov_buckets = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(
             expected_overflow / static_cast<double>(records_per_block_))));
  overflow_ = std::make_unique<ChainingHashTable>(
      ctx_, ChainingConfig{ov_buckets, BucketIndexer{}});
}

std::uint64_t JensenPaghTable::bucketOf(std::uint64_t key) const {
  return hashfn::rangeBucket(hash()(key), bucket_count_);
}

std::optional<extmem::BlockId> JensenPaghTable::primaryBlockOf(
    std::uint64_t key) const {
  return extent_ + bucketOf(key);
}

double JensenPaghTable::loadFactor() const {
  const std::uint64_t blocks_used =
      bucket_count_ + overflow_->bucketCount() + overflow_->overflowBlocks();
  return static_cast<double>(size_) /
         (static_cast<double>(blocks_used) *
          static_cast<double>(records_per_block_));
}

bool JensenPaghTable::insert(std::uint64_t key, std::uint64_t value) {
  struct Outcome {
    bool done = false;
    bool inserted_new = false;
    bool check_overflow = false;
  };
  const BlockId block = extent_ + bucketOf(key);
  const Outcome o = ctx_.device->withWrite(block, [&](std::span<Word> data) {
    BucketPage page(data);
    if (auto idx = page.indexOf(key)) {
      page.setValueAt(*idx, value);
      return Outcome{true, false, false};
    }
    if ((page.flags() & kHasOverflowFlag) != 0) {
      // The key might live in the overflow table; fall through.
      return Outcome{false, false, true};
    }
    if (page.append(Record{key, value})) return Outcome{true, true, false};
    page.setFlags(page.flags() | kHasOverflowFlag);
    return Outcome{false, false, false};
  });

  bool inserted_new;
  if (o.done) {
    inserted_new = o.inserted_new;
  } else {
    // Goes to (or updates in) the shared overflow table.
    inserted_new = overflow_->insert(key, value);
  }
  if (inserted_new) {
    ++size_;
    if (size_ > capacity_target_) rebuild(capacity_target_ * 2);
  }
  return inserted_new;
}

bool JensenPaghTable::erase(std::uint64_t key) {
  struct Probe {
    bool removed = false;
    bool overflowed = false;
  };
  const Probe p = ctx_.device->withWrite(
      extent_ + bucketOf(key), [&](std::span<Word> data) {
        BucketPage page(data);
        if (auto idx = page.indexOf(key)) {
          page.removeAt(*idx);
          return Probe{true, false};
        }
        return Probe{false, (page.flags() & kHasOverflowFlag) != 0};
      });
  if (p.removed) {
    --size_;
    return true;
  }
  if (!p.overflowed) return false;
  if (overflow_->erase(key)) {
    --size_;
    return true;
  }
  return false;
}

void JensenPaghTable::applyBatch(std::span<const Op> ops) {
  if (ops.size() < 2) {
    for (const Op& op : ops) {
      if (op.kind == OpKind::kInsert) insert(op.key, op.value);
      else erase(op.key);
    }
    return;
  }
  // Group by primary bucket and replay each group's ops in arrival order
  // inside ONE rmw (the serial loop pays one rmw per op). Ops the page
  // cannot resolve — key absent with the overflow flag set, or the page
  // filling up — are forwarded, still in order, to the overflow table's
  // own grouped applyBatch. Buckets partition keys, so cross-group order
  // is irrelevant and the result matches the serial replay exactly.
  extmem::MemoryCharge scratch(*ctx_.memory, 2 * ops.size());
  const auto order =
      batch::orderByBucket(*ctx_.memory, ops.size(), [&](std::size_t i) {
        return bucketOf(ops[i].key);
      });
  std::vector<Op> overflow_ops;
  std::size_t g = 0;
  while (g < order.size()) {
    std::size_t e = g;
    while (e < order.size() && order[e].first == order[g].first) ++e;
    overflow_ops.clear();
    const std::ptrdiff_t primary_delta = ctx_.device->withWrite(
        extent_ + order[g].first, [&](std::span<Word> data) {
          BucketPage page(data);
          std::ptrdiff_t delta = 0;
          for (std::size_t k = g; k < e; ++k) {
            const Op& op = ops[order[k].second];
            if (op.kind == OpKind::kInsert) {
              if (auto idx = page.indexOf(op.key)) {
                page.setValueAt(*idx, op.value);
              } else if ((page.flags() & kHasOverflowFlag) != 0) {
                overflow_ops.push_back(op);
              } else if (page.append(Record{op.key, op.value})) {
                ++delta;
              } else {
                page.setFlags(page.flags() | kHasOverflowFlag);
                overflow_ops.push_back(op);
              }
            } else if (auto idx = page.indexOf(op.key)) {
              page.removeAt(*idx);
              --delta;
            } else if ((page.flags() & kHasOverflowFlag) != 0) {
              overflow_ops.push_back(op);
            }
          }
          return delta;
        });
    size_ = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(size_) +
                                     primary_delta);
    if (!overflow_ops.empty()) {
      const std::size_t before = overflow_->size();
      overflow_->applyBatch(overflow_ops);
      size_ += overflow_->size() - before;
    }
    g = e;
    if (size_ > capacity_target_) {
      // Same growth rule as the serial path, at group granularity: double
      // until the target covers the current size, rebuild once, then
      // re-dispatch the remaining ops — the bucket mapping changed, so
      // their grouping is stale. Arrival order within a key survives
      // (orderByBucket is stable, and indices are restored ascending).
      std::size_t target = capacity_target_;
      while (size_ > target) target *= 2;
      rebuild(target);
      if (g < order.size()) {
        std::vector<std::size_t> remaining;
        remaining.reserve(order.size() - g);
        for (std::size_t k = g; k < order.size(); ++k)
          remaining.push_back(order[k].second);
        std::sort(remaining.begin(), remaining.end());
        std::vector<Op> rest;
        rest.reserve(remaining.size());
        for (const std::size_t idx : remaining) rest.push_back(ops[idx]);
        applyBatch(rest);
      }
      return;
    }
  }
}

void JensenPaghTable::lookupBatch(std::span<const std::uint64_t> keys,
                                  std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(keys.size() == out.size());
  // One read per distinct primary bucket; only keys that miss a FLAGGED
  // bucket consult the overflow table (a miss in an un-overflowed bucket
  // ends the query at one I/O).
  const auto scratch = batch::lookupScratch(*ctx_.memory, keys.size());
  const auto order =
      batch::orderByBucket(*ctx_.memory, keys.size(), [&](std::size_t i) {
        return bucketOf(keys[i]);
      });
  std::vector<std::size_t> to_overflow;
  batch::forEachGroup(order, [&](std::uint64_t bucket, std::size_t begin,
                                 std::size_t end) {
    ctx_.device->withRead(extent_ + bucket, [&](std::span<const Word> data) {
      ConstBucketPage page(data);
      const bool flagged = (page.flags() & kHasOverflowFlag) != 0;
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t i = order[k].second;
        out[i] = page.find(keys[i]);
        if (!out[i] && flagged) to_overflow.push_back(i);
      }
    });
  });
  if (to_overflow.empty()) return;
  std::vector<std::uint64_t> sub_keys;
  sub_keys.reserve(to_overflow.size());
  for (const std::size_t idx : to_overflow) sub_keys.push_back(keys[idx]);
  std::vector<std::optional<std::uint64_t>> sub_out(sub_keys.size());
  overflow_->lookupBatch(sub_keys, sub_out);
  for (std::size_t s = 0; s < to_overflow.size(); ++s)
    out[to_overflow[s]] = sub_out[s];
}

void JensenPaghTable::rebuild(std::size_t new_capacity) {
  // UNCACHED BY DESIGN: the rebuild is a one-pass stream over the old
  // layout into the new one — no block is touched twice, so there is no
  // reuse for a cache to capture, and admitting the scan would only evict
  // hot frames. The scope attributes these device reads as deliberate
  // bypasses (IoStats::cache_bypass_reads) rather than cache misses.
  extmem::CacheBypassScope rebuild_bypass(*ctx_.device);
  // Stream every record in hash order (primary buckets are range-indexed,
  // so ascending buckets = ascending hash; the overflow table scans in
  // hash order natively) and redistribute into the doubled layout.
  // The primary scan snapshots the OLD extent geometry: initArrays()
  // below re-points extent_/bucket_count_ at the new layout while the
  // scan is still draining the old one.
  std::vector<std::unique_ptr<RecordCursor>> sources;
  sources.push_back(std::make_unique<BucketScanCursor>(
      ctx_, extmem::CachedBlockIo(*ctx_.device), extent_, bucket_count_));
  sources.push_back(overflow_->scanInHashOrder());
  KWayMerger merged(std::move(sources), /*drop_tombstones=*/false,
                    *ctx_.memory);

  // Stash old layout for freeing after the stream completes.
  const BlockId old_extent = extent_;
  const std::uint64_t old_buckets = bucket_count_;
  std::unique_ptr<ChainingHashTable> old_overflow = std::move(overflow_);
  const std::size_t old_size = size_;

  initArrays(new_capacity);
  size_ = 0;

  // Write new primary buckets sequentially; spill per-bucket excess into
  // the new overflow table (an O(1/√b) fraction, one rmw each).
  std::vector<Record> bucket_buf;
  std::uint64_t current_bucket = 0;
  auto flushBucket = [&]() {
    if (bucket_buf.empty()) return;
    ctx_.device->withOverwrite(
        extent_ + current_bucket, [&](std::span<Word> data) {
          BucketPage page(data);
          page.format();
          std::size_t i = 0;
          for (; i < bucket_buf.size() && i < records_per_block_; ++i)
            EXTHASH_CHECK(page.append(bucket_buf[i]));
          if (i < bucket_buf.size())
            page.setFlags(page.flags() | kHasOverflowFlag);
        });
    for (std::size_t i = records_per_block_; i < bucket_buf.size(); ++i)
      overflow_->insert(bucket_buf[i].key, bucket_buf[i].value);
    size_ += bucket_buf.size();
    bucket_buf.clear();
  };

  forEachRecord(merged, [&](const HashedRecord& r) {
    const std::uint64_t j = hashfn::rangeBucket(r.hash, bucket_count_);
    if (j != current_bucket) {
      flushBucket();
      current_bucket = j;
    }
    bucket_buf.push_back(r.record);
  });
  flushBucket();
  EXTHASH_CHECK_MSG(size_ == old_size,
                    "rebuild dropped records: " << size_ << " != " << old_size);

  old_overflow->destroy();
  old_overflow.reset();
  ctx_.device->freeExtent(old_extent, old_buckets);
  ++rebuilds_;
}

void JensenPaghTable::visitLayout(LayoutVisitor& visitor) const {
  for (std::uint64_t j = 0; j < bucket_count_; ++j) {
    ConstBucketPage page(ctx_.device->inspect(extent_ + j));
    const std::size_t n = page.count();
    for (std::size_t i = 0; i < n; ++i)
      visitor.diskItem(extent_ + j, page.recordAt(i));
  }
  overflow_->visitLayout(visitor);
}

std::string JensenPaghTable::debugString() const {
  return "jensen-pagh{buckets=" + std::to_string(bucket_count_) +
         ", size=" + std::to_string(size_) +
         ", overflow=" + std::to_string(overflowItems()) +
         ", load=" + std::to_string(loadFactor()) +
         ", rebuilds=" + std::to_string(rebuilds_) + "}";
}

namespace {
constexpr std::uint64_t kJensenPaghMetaMagic = 0x4A504D4554414442ULL;
}  // namespace

std::vector<std::uint64_t> JensenPaghTable::serializeMeta() const {
  MetaWriter w;
  w.tag(kJensenPaghMetaMagic);
  w.u64(records_per_block_);
  w.u64(capacity_target_);
  w.u64(bucket_count_);
  w.u64(extent_);
  w.u64(size_);
  w.u64(rebuilds_);
  overflow_->serializeMetaInto(w);
  return w.take();
}

void JensenPaghTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kJensenPaghMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == records_per_block_,
                    "jensen-pagh checkpoint geometry mismatch");
  capacity_target_ = r.u64();
  bucket_count_ = r.u64();
  extent_ = r.u64();
  size_ = r.u64();
  rebuilds_ = r.u64();
  // The fresh constructor's overflow table owns blocks that predate the
  // image restore; disown it before the checkpointed one takes its place.
  if (overflow_) overflow_->abandon();
  overflow_ = ChainingHashTable::restoreFromMeta(ctx_, r);
  EXTHASH_CHECK_MSG(r.done(), "trailing words in jensen-pagh meta");
}

}  // namespace exthash::tables
