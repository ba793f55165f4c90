#include "tables/chaining_table.h"

#include <algorithm>
#include <vector>

#include "tables/batch_util.h"

namespace exthash::tables {

using extmem::BlockId;
using extmem::BucketPage;
using extmem::ConstBucketPage;
using extmem::kInvalidBlock;
using extmem::Word;

namespace {
// O(1) in-memory state of the table: extent base, bucket count, size,
// overflow counter, config. Charged against the budget so the claim
// "f is computable with O(1) memory" is enforced, not asserted.
constexpr std::size_t kMetaWords = 8;
}  // namespace

ChainingHashTable::ChainingHashTable(TableContext ctx, ChainingConfig config)
    : ExternalHashTable(std::move(ctx)),
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())),
      meta_charge_(*ctx_.memory, kMetaWords) {
  EXTHASH_CHECK_MSG(config_.bucket_count >= 1, "need at least one bucket");
  extent_ = ctx_.device->allocateExtent(config_.bucket_count);
}

ChainingHashTable::ChainingHashTable(RestoreTag, TableContext ctx,
                                     ChainingConfig config)
    : ExternalHashTable(std::move(ctx)),
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())),
      meta_charge_(*ctx_.memory, kMetaWords) {
  EXTHASH_CHECK_MSG(config_.bucket_count >= 1, "need at least one bucket");
  // No extent allocation: restoreMetaFrom adopts the image-restored one.
}

ChainingHashTable::~ChainingHashTable() {
  if (!destroyed_) destroy();
}

void ChainingHashTable::destroy() {
  if (destroyed_) return;
  // Runs from the destructor, possibly mid-unwind on a dying device
  // (frozen devices serve inspect() from the last-known frames; a live
  // file backend can still fail a real read here). An I/O error only
  // cuts the chain walk short — freeing is in-process bookkeeping, so
  // leaking ids on a failing device beats terminating the process.
  try {
    // Flush barrier: the inspect() walk below reads the device directly,
    // and under a write-back cache the dirty frames hold the live chain
    // pointers — without the flush we would free along stale chains.
    flushCache();
    // Uncounted traversal: deallocation is metadata bookkeeping, not data
    // transfer (the owner of a real disk would drop the whole file).
    for (std::uint64_t j = 0; j < config_.bucket_count; ++j) {
      BlockId id = primaryBlock(j);
      ConstBucketPage page(ctx_.device->inspect(id));
      BlockId overflow = page.hasNext() ? page.next() : kInvalidBlock;
      while (overflow != kInvalidBlock) {
        ConstBucketPage opage(ctx_.device->inspect(overflow));
        const BlockId next = opage.hasNext() ? opage.next() : kInvalidBlock;
        io().free(overflow);
        overflow = next;
      }
    }
  } catch (const extmem::IoError&) {
    // Walked as far as the device allowed.
  }
  io().freeExtent(extent_, config_.bucket_count);
  destroyed_ = true;
  size_ = 0;
  overflow_blocks_ = 0;
}

std::uint64_t ChainingHashTable::bucketOf(std::uint64_t key) const {
  return config_.indexer(hash()(key), config_.bucket_count);
}

std::optional<extmem::BlockId> ChainingHashTable::primaryBlockOf(
    std::uint64_t key) const {
  return primaryBlock(bucketOf(key));
}

double ChainingHashTable::loadFactor() const noexcept {
  return static_cast<double>(size_) /
         (static_cast<double>(config_.bucket_count) *
          static_cast<double>(records_per_block_));
}

bool ChainingHashTable::insert(std::uint64_t key, std::uint64_t value) {
  EXTHASH_CHECK(!destroyed_);
  const BlockId primary = primaryBlock(bucketOf(key));

  // Fast path: single-block bucket. One rmw covers update, append, and
  // first-overflow creation (the new block is written inside the same
  // guarded scope; block storage is chunk-stable, so the span stays valid).
  struct FastResult {
    bool handled = false;
    bool inserted_new = false;
    bool primary_full = false;
    BlockId next = kInvalidBlock;
  };
  const FastResult fast =
      io().withWrite(primary, [&](std::span<Word> data) {
        BucketPage page(data);
        FastResult r;
        if (auto idx = page.indexOf(key)) {
          page.setValueAt(*idx, value);
          r.handled = true;
          return r;
        }
        if (page.hasNext()) {  // long chain: general path below
          r.primary_full = page.full();
          r.next = page.next();
          return r;
        }
        if (page.append(Record{key, value})) {
          r.handled = r.inserted_new = true;
          return r;
        }
        const BlockId fresh = io().allocate();
        io().withOverwrite(fresh, [&](std::span<Word> fresh_data) {
          BucketPage fresh_page(fresh_data);
          fresh_page.format();
          EXTHASH_CHECK(fresh_page.append(Record{key, value}));
        });
        page.setNext(fresh);
        ++overflow_blocks_;
        r.handled = r.inserted_new = true;
        return r;
      });
  if (fast.handled) {
    if (fast.inserted_new) ++size_;
    return fast.inserted_new;
  }

  // General path (bucket has overflow blocks, probability 1/2^Ω(b) at
  // load < 1/2): walk the chain past the primary block, looking for the
  // key and remembering the first block with free space.
  BlockId current = fast.next;
  BlockId first_with_space = fast.primary_full ? kInvalidBlock : primary;
  BlockId last = primary;
  while (current != kInvalidBlock) {
    struct ChainInfo {
      bool found = false;
      bool full = true;
      BlockId next = kInvalidBlock;
    };
    const ChainInfo info =
        io().withRead(current, [&](std::span<const Word> data) {
          ConstBucketPage page(data);
          ChainInfo ci;
          ci.found = page.indexOf(key).has_value();
          ci.full = page.full();
          ci.next = page.next();
          return ci;
        });
    if (info.found) {
      io().withWrite(current, [&](std::span<Word> data) {
        BucketPage page(data);
        const auto idx = page.indexOf(key);
        EXTHASH_CHECK(idx.has_value());
        page.setValueAt(*idx, value);
      });
      return false;
    }
    if (!info.full && first_with_space == kInvalidBlock)
      first_with_space = current;
    last = current;
    current = info.next;
  }

  if (first_with_space != kInvalidBlock) {
    io().withWrite(first_with_space, [&](std::span<Word> data) {
      EXTHASH_CHECK(BucketPage(data).append(Record{key, value}));
    });
  } else {
    const BlockId fresh = io().allocate();
    io().withOverwrite(fresh, [&](std::span<Word> data) {
      BucketPage page(data);
      page.format();
      EXTHASH_CHECK(page.append(Record{key, value}));
    });
    io().withWrite(last, [&](std::span<Word> data) {
      BucketPage(data).setNext(fresh);
    });
    ++overflow_blocks_;
  }
  ++size_;
  return true;
}

std::optional<std::uint64_t> ChainingHashTable::lookup(std::uint64_t key) {
  EXTHASH_CHECK(!destroyed_);
  BlockId current = primaryBlock(bucketOf(key));
  while (current != kInvalidBlock) {
    struct Result {
      std::optional<std::uint64_t> value;
      BlockId next = kInvalidBlock;
    };
    const Result r =
        io().withRead(current, [&](std::span<const Word> data) {
          ConstBucketPage page(data);
          return Result{page.find(key), page.next()};
        });
    if (r.value) return r.value;
    current = r.next;
  }
  return std::nullopt;
}

bool ChainingHashTable::erase(std::uint64_t key) {
  EXTHASH_CHECK(!destroyed_);
  const BlockId primary = primaryBlock(bucketOf(key));
  BlockId prev = kInvalidBlock;
  BlockId current = primary;
  while (current != kInvalidBlock) {
    struct Info {
      std::optional<std::size_t> index;
      std::size_t count = 0;
      BlockId next = kInvalidBlock;
    };
    const Info info =
        io().withRead(current, [&](std::span<const Word> data) {
          ConstBucketPage page(data);
          return Info{page.indexOf(key), page.count(), page.next()};
        });
    if (info.index) {
      io().withWrite(current, [&](std::span<Word> data) {
        BucketPage page(data);
        const auto idx = page.indexOf(key);
        EXTHASH_CHECK(idx.has_value());
        page.removeAt(*idx);
      });
      // Unlink a now-empty overflow block to keep chains tight.
      if (current != primary && info.count == 1) {
        io().withWrite(prev, [&](std::span<Word> data) {
          BucketPage(data).setNext(info.next);
        });
        io().free(current);
        --overflow_blocks_;
      }
      --size_;
      return true;
    }
    prev = current;
    current = info.next;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Batch API
// ---------------------------------------------------------------------------

void ChainingHashTable::applyOpsToBucket(std::uint64_t bucket,
                                         std::span<const Op> ops) {
  const std::ptrdiff_t delta = batch::applyOpsToChain(
      io(), primaryBlock(bucket), ops, overflow_blocks_);
  size_ = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(size_) + delta);
}

void ChainingHashTable::applyBatch(std::span<const Op> ops) {
  EXTHASH_CHECK(!destroyed_);
  // The grouping index is merge scratch, charged like every other
  // in-memory working set.
  extmem::MemoryCharge scratch(*ctx_.memory, 2 * ops.size());
  const auto order =
      batch::orderByBucket(*ctx_.memory, ops.size(), [&](std::size_t i) {
        return bucketOf(ops[i].key);
      });

  std::vector<Op> group;
  batch::forEachGroup(order, [&](std::uint64_t bucket, std::size_t i,
                                 std::size_t j) {
    if (j - i == 1) {
      // Lone op: the serial path is already optimal (one rmw).
      const Op& op = ops[order[i].second];
      if (op.kind == OpKind::kInsert) insert(op.key, op.value);
      else erase(op.key);
      return;
    }
    group.clear();
    for (std::size_t k = i; k < j; ++k) group.push_back(ops[order[k].second]);
    applyOpsToBucket(bucket, group);
  });
}

void ChainingHashTable::lookupBatch(std::span<const std::uint64_t> keys,
                                    std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(!destroyed_);
  EXTHASH_CHECK(keys.size() == out.size());
  extmem::MemoryCharge scratch(*ctx_.memory, 2 * keys.size());
  const auto order =
      batch::orderByBucket(*ctx_.memory, keys.size(), [&](std::size_t i) {
        return bucketOf(keys[i]);
      });

  std::vector<std::size_t> pending;
  batch::forEachGroup(order, [&](std::uint64_t bucket, std::size_t i,
                                 std::size_t j) {
    pending.clear();
    for (std::size_t k = i; k < j; ++k) pending.push_back(order[k].second);
    batch::lookupInChain(io(), primaryBlock(bucket), keys, out, pending);
  });
}

void ChainingHashTable::visitLayout(LayoutVisitor& visitor) const {
  if (destroyed_) return;
  flushCache();  // the inspect() reads below bypass the cache
  for (std::uint64_t j = 0; j < config_.bucket_count; ++j) {
    BlockId current = primaryBlock(j);
    while (current != kInvalidBlock) {
      ConstBucketPage page(ctx_.device->inspect(current));
      const std::size_t n = page.count();
      for (std::size_t i = 0; i < n; ++i) {
        visitor.diskItem(current, page.recordAt(i));
      }
      current = page.next();
    }
  }
}

std::string ChainingHashTable::debugString() const {
  return "chaining{buckets=" + std::to_string(config_.bucket_count) +
         ", size=" + std::to_string(size_) +
         ", overflow_blocks=" + std::to_string(overflow_blocks_) +
         ", load=" + std::to_string(loadFactor()) + "}";
}

void ChainingHashTable::validateLayout(AuditReport& report) const {
  ExternalHashTable::validateLayout(report);  // attached-cache audit
  if (destroyed_) return;
  flushCache();  // the inspect() reads below bypass the cache
  const char* kComponent = "chaining";

  // Any chain longer than primary + every overflow block the table ever
  // counted must contain a cycle; stop walking there instead of hanging.
  const std::uint64_t max_chain = 1 + overflow_blocks_;
  std::size_t records_seen = 0;
  std::uint64_t overflow_seen = 0;
  std::vector<std::uint64_t> chain_keys;
  for (std::uint64_t j = 0; j < config_.bucket_count; ++j) {
    chain_keys.clear();
    BlockId current = primaryBlock(j);
    std::uint64_t hops = 0;
    while (current != kInvalidBlock) {
      if (hops > max_chain) {
        report.fail(kComponent, "chain acyclic",
                    "bucket " + std::to_string(j) + " chain exceeds " +
                        std::to_string(max_chain) + " blocks (cycle?)");
        break;
      }
      EXTHASH_AUDIT_EXPECT(report, kComponent,
                           ctx_.device->isAllocated(current),
                           "bucket " << j << " chain links freed block "
                                     << current);
      if (!ctx_.device->isAllocated(current)) break;
      ConstBucketPage page(ctx_.device->inspect(current));
      // Clamp before iterating: a corrupted header must produce a
      // finding, not out-of-range record reads.
      EXTHASH_AUDIT_EXPECT(report, kComponent,
                           page.count() <= page.capacity(),
                           "block " << current << " claims " << page.count()
                               << " records, capacity " << page.capacity());
      const std::size_t n = std::min(page.count(), page.capacity());
      for (std::size_t i = 0; i < n; ++i) {
        const Record r = page.recordAt(i);
        EXTHASH_AUDIT_EXPECT(report, kComponent, bucketOf(r.key) == j,
                             "key " << r.key << " stored in bucket " << j
                                    << " but hashes to bucket "
                                    << bucketOf(r.key));
        chain_keys.push_back(r.key);
      }
      records_seen += n;
      if (hops > 0) ++overflow_seen;
      ++hops;
      current = page.next();
    }
    std::sort(chain_keys.begin(), chain_keys.end());
    EXTHASH_AUDIT_EXPECT(
        report, kComponent,
        std::adjacent_find(chain_keys.begin(), chain_keys.end()) ==
            chain_keys.end(),
        "bucket " << j << " chain stores a key twice");
  }
  EXTHASH_AUDIT_EXPECT(report, kComponent, records_seen == size_,
                       "blocks hold " << records_seen
                           << " records, size() reports " << size_);
  EXTHASH_AUDIT_EXPECT(report, kComponent, overflow_seen == overflow_blocks_,
                       "chains link " << overflow_seen
                           << " overflow blocks, counter says "
                           << overflow_blocks_);
}

// ---------------------------------------------------------------------------
// Checkpoint metadata
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kChainingMetaMagic = 0x4348414E4D455441ULL;  // CHANMETA
}  // namespace

void ChainingHashTable::serializeMetaInto(MetaWriter& w) const {
  EXTHASH_CHECK_MSG(!destroyed_, "cannot checkpoint a destroyed table");
  w.tag(kChainingMetaMagic);
  w.u64(config_.bucket_count);
  w.u64(static_cast<std::uint64_t>(config_.indexer.kind));
  w.dbl(config_.indexer.power);
  w.u64(records_per_block_);
  w.u64(extent_);
  w.u64(size_);
  w.u64(overflow_blocks_);
}

void ChainingHashTable::restoreMetaFrom(MetaReader& r) {
  r.expectTag(kChainingMetaMagic);
  const std::uint64_t buckets = r.u64();
  const auto kind = static_cast<IndexKind>(r.u64());
  const double power = r.dbl();
  const std::uint64_t rpb = r.u64();
  EXTHASH_CHECK_MSG(buckets == config_.bucket_count &&
                        kind == config_.indexer.kind &&
                        rpb == records_per_block_,
                    "chaining checkpoint geometry mismatch");
  config_.indexer.power = power;
  extent_ = r.u64();
  size_ = r.u64();
  overflow_blocks_ = r.u64();
  destroyed_ = false;
}

std::vector<std::uint64_t> ChainingHashTable::serializeMeta() const {
  MetaWriter w;
  serializeMetaInto(w);
  return w.take();
}

void ChainingHashTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  restoreMetaFrom(r);
  EXTHASH_CHECK_MSG(r.done(), "trailing words in chaining checkpoint meta");
}

std::unique_ptr<ChainingHashTable> ChainingHashTable::restoreFromMeta(
    TableContext ctx, MetaReader& r) {
  // Peek the geometry out of the stream to build a matching config, then
  // let restoreMetaFrom consume the section normally.
  MetaReader peek = r;
  peek.expectTag(kChainingMetaMagic);
  ChainingConfig config;
  config.bucket_count = peek.u64();
  config.indexer.kind = static_cast<IndexKind>(peek.u64());
  config.indexer.power = peek.dbl();
  auto table = std::unique_ptr<ChainingHashTable>(
      new ChainingHashTable(RestoreTag{}, std::move(ctx), config));
  table->restoreMetaFrom(r);
  return table;
}

// ---------------------------------------------------------------------------
// Bulk build
// ---------------------------------------------------------------------------

std::unique_ptr<ChainingHashTable> ChainingHashTable::buildFromSorted(
    TableContext ctx, ChainingConfig config, RecordCursor& records) {
  EXTHASH_CHECK_MSG(config.indexer.monotone(),
                    "bulk build requires a monotone bucket indexer");
  auto table = std::make_unique<ChainingHashTable>(ctx, config);
  const std::size_t cap = table->records_per_block_;
  const auto& h = *ctx.hash;

  std::vector<Record> bucket_records;
  std::vector<BlockId> chain;
  // Scratch for one bucket's records, charged against the memory budget
  // (this is the merge working set; it stays O(b) except for pathological
  // skew).
  extmem::MemoryCharge scratch(*ctx.memory, 0);

  std::uint64_t last_bucket = 0;
  bool first = true;
  auto flushBucket = [&](std::uint64_t j) {
    if (bucket_records.empty()) return;
    // Chain blocks for bucket j: primary holds the first `cap` records,
    // each overflow block the next `cap`. Every block is written once.
    const std::size_t blocks =
        (bucket_records.size() + cap - 1) / cap;
    chain.assign(blocks, kInvalidBlock);
    chain[0] = table->primaryBlock(j);
    for (std::size_t i = 1; i < blocks; ++i) {
      chain[i] = ctx.device->allocate();
      ++table->overflow_blocks_;
    }
    for (std::size_t i = 0; i < blocks; ++i) {
      ctx.device->withOverwrite(chain[i], [&](std::span<Word> data) {
        BucketPage page(data);
        page.format();
        const std::size_t begin = i * cap;
        const std::size_t end =
            std::min(bucket_records.size(), begin + cap);
        for (std::size_t r = begin; r < end; ++r) {
          EXTHASH_CHECK(page.append(bucket_records[r]));
        }
        if (i + 1 < blocks) page.setNext(chain[i + 1]);
      });
    }
    table->size_ += bucket_records.size();
    bucket_records.clear();
  };

  std::uint64_t prev_hash = 0;
  forEachRecord(records, [&](const HashedRecord& r) {
    // The two Release checks cost one hash call per record: the carried
    // hash is h(key), and the stream never goes backwards.
    EXTHASH_CHECK_MSG(h(r.record.key) == r.hash,
                      "buildFromSorted input carries a wrong hash");
    EXTHASH_CHECK_MSG(first || r.hash >= prev_hash,
                      "buildFromSorted input not in hash order");
    prev_hash = r.hash;
    const std::uint64_t j = config.indexer(r.hash, config.bucket_count);
    if (!first && j != last_bucket) flushBucket(last_bucket);
    first = false;
    last_bucket = j;
    bucket_records.push_back(r.record);
    if (bucket_records.size() * kWordsPerRecord > scratch.words()) {
      scratch.resize(bucket_records.size() * kWordsPerRecord);
    }
  });
  if (!first) flushBucket(last_bucket);
  return table;
}

// ---------------------------------------------------------------------------
// Hash-ordered scan
// ---------------------------------------------------------------------------

BucketScanCursor::BucketScanCursor(const TableContext& ctx,
                                   extmem::CachedBlockIo io, BlockId extent,
                                   std::uint64_t bucket_count)
    : io_(io),
      hash_(ctx.hash),
      extent_(extent),
      bucket_count_(bucket_count),
      scratch_(*ctx.memory, 0) {}

std::span<const HashedRecord> BucketScanCursor::nextChunk() {
  sorted_.clear();
  while (sorted_.empty() && bucket_ < bucket_count_) {
    records_.clear();
    BlockId current = extent_ + bucket_++;
    while (current != kInvalidBlock) {
      current = io_.withRead(current, [&](std::span<const Word> data) {
        ConstBucketPage page(data);
        const std::size_t n = page.count();
        for (std::size_t i = 0; i < n; ++i)
          records_.push_back(page.recordAt(i));
        return page.next();
      });
    }
    sorted_ = sortByHash(records_, *hash_);
  }
  if (sorted_.size() * kWordsPerHashedRecord > scratch_.words()) {
    scratch_.resize(sorted_.size() * kWordsPerHashedRecord);
  }
  return sorted_;
}

std::unique_ptr<RecordCursor> ChainingHashTable::scanInHashOrder() {
  EXTHASH_CHECK(!destroyed_);
  EXTHASH_CHECK_MSG(config_.indexer.monotone(),
                    "hash-ordered scan requires a monotone indexer");
  return std::make_unique<BucketScanCursor>(ctx_, io(), extent_,
                                            config_.bucket_count);
}

}  // namespace exthash::tables
