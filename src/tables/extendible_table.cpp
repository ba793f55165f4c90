#include "tables/extendible_table.h"

#include <algorithm>
#include <vector>

#include "tables/batch_util.h"
#include "tables/meta_words.h"

namespace exthash::tables {

using extmem::BlockId;
using extmem::BucketPage;
using extmem::ConstBucketPage;
using extmem::Word;

namespace {
// Safety rail for skewed hashes: the directory never grows past
// 2^kMaxGlobalDepth entries.
constexpr std::uint32_t kMaxGlobalDepth = 32;
}  // namespace

ExtendibleHashTable::ExtendibleHashTable(TableContext ctx,
                                         ExtendibleConfig config)
    : ExternalHashTable(std::move(ctx)),
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())),
      global_depth_(config.initial_global_depth),
      dir_charge_(*ctx_.memory, 0) {
  EXTHASH_CHECK(config.initial_global_depth <= kMaxGlobalDepth);
  directory_.resize(std::size_t{1} << global_depth_);
  dir_charge_.resize(directory_.size() + 8);
  // All directory entries initially share one depth-0 bucket.
  const BlockId first = io().allocate();
  ++bucket_blocks_;
  for (auto& entry : directory_) entry = first;
}

ExtendibleHashTable::~ExtendibleHashTable() {
  // Free each distinct bucket once (entries alias).
  BlockId last_freed = extmem::kInvalidBlock;
  for (std::size_t i = 0; i < directory_.size(); ++i) {
    const BlockId id = directory_[i];
    if (id != last_freed) {
      io().free(id);
      last_freed = id;
    }
  }
}

std::size_t ExtendibleHashTable::dirIndex(std::uint64_t key) const {
  if (global_depth_ == 0) return 0;
  return static_cast<std::size_t>(hash()(key) >> (64 - global_depth_));
}

std::optional<extmem::BlockId> ExtendibleHashTable::primaryBlockOf(
    std::uint64_t key) const {
  return directory_[dirIndex(key)];
}

double ExtendibleHashTable::loadFactor() const noexcept {
  const double capacity = static_cast<double>(bucket_blocks_) *
                          static_cast<double>(records_per_block_);
  return capacity > 0 ? static_cast<double>(size_) / capacity : 0.0;
}

void ExtendibleHashTable::doubleDirectory() {
  EXTHASH_CHECK_MSG(global_depth_ < kMaxGlobalDepth,
                    "extendible directory exceeded max depth "
                        << kMaxGlobalDepth);
  std::vector<BlockId> bigger(directory_.size() * 2);
  for (std::size_t i = 0; i < directory_.size(); ++i) {
    bigger[2 * i] = directory_[i];
    bigger[2 * i + 1] = directory_[i];
  }
  directory_ = std::move(bigger);
  ++global_depth_;
  dir_charge_.resize(directory_.size() + 8);
}

bool ExtendibleHashTable::splitBucket(std::size_t idx) {
  const BlockId old_block = directory_[idx];
  std::uint32_t local_depth = 0;
  std::vector<Record> records;
  io().withRead(old_block, [&](std::span<const Word> data) {
    ConstBucketPage page(data);
    local_depth = page.flags();
    const std::size_t n = page.count();
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) records.push_back(page.recordAt(i));
  });
  if (local_depth >= global_depth_) {
    if (global_depth_ >= kMaxGlobalDepth) return false;
    doubleDirectory();
    idx *= 2;  // same bucket, re-anchored in the doubled directory
  }

  // Partition by the (local_depth)-th bit below the top of the hash.
  const std::uint32_t new_depth = local_depth + 1;
  const int bit_shift = 64 - static_cast<int>(new_depth);
  std::vector<Record> zeros, ones;
  for (const Record& r : records) {
    if ((hash()(r.key) >> bit_shift) & 1) ones.push_back(r);
    else zeros.push_back(r);
  }

  const BlockId one_block = io().allocate();
  ++bucket_blocks_;
  io().withOverwrite(old_block, [&](std::span<Word> data) {
    BucketPage page(data);
    page.format();
    page.setFlags(new_depth);
    for (const Record& r : zeros) EXTHASH_CHECK(page.append(r));
  });
  io().withOverwrite(one_block, [&](std::span<Word> data) {
    BucketPage page(data);
    page.format();
    page.setFlags(new_depth);
    for (const Record& r : ones) EXTHASH_CHECK(page.append(r));
  });

  // Re-point the directory range that the old bucket served: the upper
  // half (bit = 1) now maps to the new block.
  const std::size_t range = std::size_t{1} << (global_depth_ - new_depth);
  const std::size_t base = (idx >> (global_depth_ - local_depth))
                           << (global_depth_ - local_depth);
  for (std::size_t i = 0; i < range; ++i) {
    directory_[base + range + i] = one_block;
  }
  return true;
}

bool ExtendibleHashTable::insert(std::uint64_t key, std::uint64_t value) {
  for (int attempt = 0; attempt < 72; ++attempt) {
    const std::size_t idx = dirIndex(key);
    struct Outcome {
      bool done = false;
      bool inserted_new = false;
    };
    const Outcome o = io().withWrite(
        directory_[idx], [&](std::span<Word> data) {
          BucketPage page(data);
          if (auto at = page.indexOf(key)) {
            page.setValueAt(*at, value);
            return Outcome{true, false};
          }
          if (page.append(Record{key, value}))
            return Outcome{true, true};
          return Outcome{false, false};
        });
    if (o.done) {
      if (o.inserted_new) ++size_;
      return o.inserted_new;
    }
    EXTHASH_CHECK_MSG(splitBucket(idx),
                      "extendible bucket cannot split further (hash "
                      "collisions beyond max depth)");
  }
  EXTHASH_CHECK_MSG(false, "extendible insert did not converge");
  return false;
}

bool ExtendibleHashTable::erase(std::uint64_t key) {
  const bool removed = io().withWrite(
      directory_[dirIndex(key)], [&](std::span<Word> data) {
        BucketPage page(data);
        if (auto idx = page.indexOf(key)) {
          page.removeAt(*idx);
          return true;
        }
        return false;
      });
  if (removed) --size_;
  return removed;
}

// ---------------------------------------------------------------------------
// Batch API
// ---------------------------------------------------------------------------

void ExtendibleHashTable::applyBatch(std::span<const Op> ops) {
  // Group by the bucket block serving each key right now. Groups are
  // independent: splitting one bucket never re-routes keys of another, so
  // the grouping stays valid even when a group's overflow falls back to
  // the splitting serial path.
  extmem::MemoryCharge scratch(*ctx_.memory, 2 * ops.size());
  const auto order =
      batch::orderByBucket(*ctx_.memory, ops.size(), [&](std::size_t i) {
        return static_cast<std::uint64_t>(directory_[dirIndex(ops[i].key)]);
      });

  std::vector<Op> deferred;
  batch::forEachGroup(order, [&](std::uint64_t bucket, std::size_t i,
                                 std::size_t j) {
    const auto block = static_cast<extmem::BlockId>(bucket);
    if (j - i == 1) {
      const Op& op = ops[order[i].second];
      if (op.kind == OpKind::kInsert) insert(op.key, op.value);
      else erase(op.key);
      return;
    }

    // One rmw replays the group. Appends that would overflow the page are
    // deferred — and once one op is deferred, every later op of the group
    // follows it, so per-key operation order survives the fallback.
    deferred.clear();
    std::ptrdiff_t delta = 0;
    io().withWrite(block, [&](std::span<Word> data) {
      BucketPage page(data);
      bool deferring = false;
      for (std::size_t k = i; k < j; ++k) {
        const Op& op = ops[order[k].second];
        if (deferring) {
          deferred.push_back(op);
          continue;
        }
        if (op.kind == OpKind::kInsert) {
          if (auto at = page.indexOf(op.key)) {
            page.setValueAt(*at, op.value);
          } else if (page.append(Record{op.key, op.value})) {
            ++delta;
          } else {
            deferring = true;
            deferred.push_back(op);
          }
        } else if (auto at = page.indexOf(op.key)) {
          page.removeAt(*at);
          --delta;
        }
      }
    });
    size_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(size_) + delta);
    for (const Op& op : deferred) {
      if (op.kind == OpKind::kInsert) insert(op.key, op.value);
      else erase(op.key);
    }
  });
}

void ExtendibleHashTable::lookupBatch(
    std::span<const std::uint64_t> keys,
    std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(keys.size() == out.size());
  const auto scratch = batch::lookupScratch(*ctx_.memory, keys.size());
  const auto order =
      batch::orderByBucket(*ctx_.memory, keys.size(), [&](std::size_t i) {
        return static_cast<std::uint64_t>(directory_[dirIndex(keys[i])]);
      });

  batch::forEachGroup(order, [&](std::uint64_t bucket, std::size_t i,
                                 std::size_t j) {
    io().withRead(
        static_cast<extmem::BlockId>(bucket),
        [&](std::span<const Word> data) {
          ConstBucketPage page(data);
          for (std::size_t k = i; k < j; ++k) {
            out[order[k].second] = page.find(keys[order[k].second]);
          }
        });
  });
}

void ExtendibleHashTable::visitLayout(LayoutVisitor& visitor) const {
  flushCache();  // the inspect() reads below bypass the cache
  BlockId last_seen = extmem::kInvalidBlock;
  for (std::size_t i = 0; i < directory_.size(); ++i) {
    const BlockId id = directory_[i];
    if (id == last_seen) continue;  // depth-< g buckets alias entries
    last_seen = id;
    ConstBucketPage page(ctx_.device->inspect(id));
    const std::size_t n = page.count();
    for (std::size_t r = 0; r < n; ++r) visitor.diskItem(id, page.recordAt(r));
  }
}

std::string ExtendibleHashTable::debugString() const {
  return "extendible{depth=" + std::to_string(global_depth_) +
         ", dir=" + std::to_string(directory_.size()) +
         ", buckets=" + std::to_string(bucket_blocks_) +
         ", size=" + std::to_string(size_) +
         ", load=" + std::to_string(loadFactor()) + "}";
}

void ExtendibleHashTable::validateLayout(AuditReport& report) const {
  ExternalHashTable::validateLayout(report);  // attached-cache audit
  flushCache();  // the inspect() reads below bypass the cache
  const char* kComponent = "extendible";

  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       directory_.size() ==
                           (std::size_t{1} << global_depth_),
                       "directory holds " << directory_.size()
                           << " entries, global depth " << global_depth_
                           << " demands " << (std::size_t{1} << global_depth_));
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       global_depth_ <= kMaxGlobalDepth,
                       "global depth " << global_depth_ << " exceeds cap "
                                       << kMaxGlobalDepth);

  // Walk the directory as runs of aliased pointers. Each distinct bucket
  // must serve exactly one aligned run of 2^(g-ℓ) entries — the pointer
  // sharing that makes a depth-ℓ bucket addressable from every hash
  // prefix it still covers.
  std::size_t distinct = 0;
  std::size_t records_seen = 0;
  std::size_t i = 0;
  while (i < directory_.size()) {
    const BlockId id = directory_[i];
    std::size_t run = 1;
    while (i + run < directory_.size() && directory_[i + run] == id) ++run;
    ++distinct;
    EXTHASH_AUDIT_EXPECT(report, kComponent, ctx_.device->isAllocated(id),
                         "directory entries [" << i << ", " << i + run
                             << ") point at freed block " << id);
    if (ctx_.device->isAllocated(id)) {
      ConstBucketPage page(ctx_.device->inspect(id));
      const std::uint32_t local_depth = page.flags();
      EXTHASH_AUDIT_EXPECT(report, kComponent, local_depth <= global_depth_,
                           "bucket " << id << " local depth " << local_depth
                               << " exceeds global depth " << global_depth_);
      if (local_depth <= global_depth_) {
        const std::size_t expected_run =
            std::size_t{1} << (global_depth_ - local_depth);
        EXTHASH_AUDIT_EXPECT(report, kComponent,
                             run == expected_run && i % expected_run == 0,
                             "bucket " << id << " at depth " << local_depth
                                 << " serves entries [" << i << ", "
                                 << i + run << "), expected an aligned run"
                                 << " of " << expected_run);
      }
      EXTHASH_AUDIT_EXPECT(report, kComponent, !page.hasNext(),
                           "bucket " << id
                               << " carries an overflow link; extendible"
                               << " buckets never chain");
      EXTHASH_AUDIT_EXPECT(report, kComponent,
                           page.count() <= page.capacity(),
                           "bucket " << id << " claims " << page.count()
                               << " records, capacity " << page.capacity());
      const std::size_t n = std::min(page.count(), page.capacity());
      for (std::size_t r = 0; r < n; ++r) {
        const std::uint64_t key = page.recordAt(r).key;
        const std::size_t idx = dirIndex(key);
        EXTHASH_AUDIT_EXPECT(report, kComponent, idx >= i && idx < i + run,
                             "key " << key << " stored in bucket " << id
                                 << " but addresses directory entry " << idx
                                 << " outside [" << i << ", " << i + run
                                 << ")");
      }
      records_seen += n;
    }
    i += run;
  }
  EXTHASH_AUDIT_EXPECT(report, kComponent, distinct == bucket_blocks_,
                       "directory reaches " << distinct
                           << " distinct buckets, counter says "
                           << bucket_blocks_);
  EXTHASH_AUDIT_EXPECT(report, kComponent, records_seen == size_,
                       "buckets hold " << records_seen
                           << " records, size() reports " << size_);
}

namespace {
constexpr std::uint64_t kExtendibleMetaMagic = 0x455854444D455441ULL;
}  // namespace

std::vector<std::uint64_t> ExtendibleHashTable::serializeMeta() const {
  MetaWriter w;
  w.tag(kExtendibleMetaMagic);
  w.u64(records_per_block_);
  w.u64(global_depth_);
  w.vec(directory_);
  w.u64(bucket_blocks_);
  w.u64(size_);
  return w.take();
}

void ExtendibleHashTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kExtendibleMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == records_per_block_,
                    "extendible checkpoint geometry mismatch");
  global_depth_ = static_cast<std::uint32_t>(r.u64());
  directory_ = r.vec();
  EXTHASH_CHECK(directory_.size() == (std::size_t{1} << global_depth_));
  bucket_blocks_ = r.u64();
  size_ = r.u64();
  dir_charge_.resize(directory_.size() + 8);
  EXTHASH_CHECK_MSG(r.done(), "trailing words in extendible meta");
}

}  // namespace exthash::tables
