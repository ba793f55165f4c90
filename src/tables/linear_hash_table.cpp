#include "tables/linear_hash_table.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "tables/batch_util.h"
#include "tables/meta_words.h"

namespace exthash::tables {

using extmem::BlockId;
using extmem::BucketPage;
using extmem::ConstBucketPage;
using extmem::kInvalidBlock;
using extmem::Word;

LinearHashTable::LinearHashTable(TableContext ctx, LinearHashConfig config)
    : ExternalHashTable(std::move(ctx)),
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())),
      meta_charge_(*ctx_.memory, 48) {  // segment bases + scalars
  EXTHASH_CHECK(config_.initial_buckets >= 1);
  EXTHASH_CHECK(config_.max_load > 0.0 && config_.max_load <= 1.0);
  segments_.push_back(
      ctx_.device->allocateExtent(config_.initial_buckets));
}

LinearHashTable::~LinearHashTable() {
  // Flush barrier: the inspect() walk below reads the device directly;
  // under a write-back cache the dirty frames hold the live chain links.
  flushCache();
  // Free overflow chains, then the segment extents.
  const std::uint64_t live = bucketCountLive();
  for (std::uint64_t j = 0; j < live; ++j) {
    ConstBucketPage page(ctx_.device->inspect(blockOfBucket(j)));
    BlockId overflow = page.next();
    while (overflow != kInvalidBlock) {
      ConstBucketPage opage(ctx_.device->inspect(overflow));
      const BlockId next = opage.next();
      io().free(overflow);
      overflow = next;
    }
  }
  const std::uint64_t n0 = config_.initial_buckets;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const std::uint64_t span = s == 0 ? n0 : n0 << (s - 1);
    io().freeExtent(segments_[s], span);
  }
}

std::uint64_t LinearHashTable::bucketOf(std::uint64_t key) const {
  const std::uint64_t hv = hash()(key);
  const std::uint64_t round_buckets = config_.initial_buckets << level_;
  std::uint64_t j = hv % round_buckets;
  if (j < split_pointer_) j = hv % (round_buckets << 1);
  return j;
}

BlockId LinearHashTable::blockOfBucket(std::uint64_t bucket) const {
  const std::uint64_t n0 = config_.initial_buckets;
  if (bucket < n0) return segments_[0] + bucket;
  // bucket is in segment s >= 1 covering [n0·2^(s-1), n0·2^s).
  const std::uint64_t q = bucket / n0;  // >= 1
  const std::uint32_t s = std::bit_width(q);  // floor(log2(q)) + 1
  const std::uint64_t seg_base = n0 << (s - 1);
  EXTHASH_CHECK_MSG(s < segments_.size(),
                    "bucket " << bucket << " beyond allocated segments");
  return segments_[s] + (bucket - seg_base);
}

void LinearHashTable::ensureSegmentFor(std::uint64_t bucket) {
  const std::uint64_t n0 = config_.initial_buckets;
  while (true) {
    // Highest bucket currently addressable.
    const std::uint64_t covered =
        segments_.size() == 1 ? n0 : n0 << (segments_.size() - 1);
    if (bucket < covered) return;
    const std::uint64_t span = n0 << (segments_.size() - 1);
    segments_.push_back(ctx_.device->allocateExtent(span));
    meta_charge_.resize(40 + segments_.size());
  }
}

std::optional<extmem::BlockId> LinearHashTable::primaryBlockOf(
    std::uint64_t key) const {
  return blockOfBucket(bucketOf(key));
}

double LinearHashTable::loadFactor() const noexcept {
  return static_cast<double>(size_) /
         (static_cast<double>(bucketCountLive()) *
          static_cast<double>(records_per_block_));
}

std::vector<Record> LinearHashTable::drainBucket(std::uint64_t bucket) {
  std::vector<Record> records;
  const BlockId primary = blockOfBucket(bucket);
  BlockId current = primary;
  while (current != kInvalidBlock) {
    const BlockId next =
        io().withRead(current, [&](std::span<const Word> data) {
          ConstBucketPage page(data);
          const std::size_t n = page.count();
          for (std::size_t i = 0; i < n; ++i)
            records.push_back(page.recordAt(i));
          return page.next();
        });
    if (current != primary) {
      io().free(current);
      --overflow_blocks_;
    }
    current = next;
  }
  return records;
}

void LinearHashTable::writeBucket(std::uint64_t bucket,
                                  const std::vector<Record>& records) {
  const std::size_t cap = records_per_block_;
  const std::size_t blocks =
      records.empty() ? 1 : (records.size() + cap - 1) / cap;
  std::vector<BlockId> chain(blocks);
  chain[0] = blockOfBucket(bucket);
  for (std::size_t i = 1; i < blocks; ++i) {
    chain[i] = io().allocate();
    ++overflow_blocks_;
  }
  for (std::size_t i = 0; i < blocks; ++i) {
    io().withOverwrite(chain[i], [&](std::span<Word> data) {
      BucketPage page(data);
      page.format();
      const std::size_t begin = i * cap;
      const std::size_t end = std::min(records.size(), begin + cap);
      for (std::size_t r = begin; r < end; ++r)
        EXTHASH_CHECK(page.append(records[r]));
      if (i + 1 < blocks) page.setNext(chain[i + 1]);
    });
  }
}

void LinearHashTable::splitOne() {
  const std::uint64_t round_buckets = config_.initial_buckets << level_;
  const std::uint64_t source = split_pointer_;
  const std::uint64_t target = round_buckets + split_pointer_;
  ensureSegmentFor(target);

  std::vector<Record> records = drainBucket(source);
  std::vector<Record> stay, move;
  const std::uint64_t mod = round_buckets << 1;
  for (const Record& r : records) {
    if (hash()(r.key) % mod == source) stay.push_back(r);
    else move.push_back(r);
  }
  writeBucket(source, stay);
  writeBucket(target, move);

  ++split_pointer_;
  ++splits_;
  if (split_pointer_ == round_buckets) {
    split_pointer_ = 0;
    ++level_;
  }
}

void LinearHashTable::maybeSplit() {
  while (loadFactor() > config_.max_load) splitOne();
}

bool LinearHashTable::insert(std::uint64_t key, std::uint64_t value) {
  const bool inserted_new = insertNoSplit(key, value);
  if (inserted_new) maybeSplit();
  return inserted_new;
}

bool LinearHashTable::insertNoSplit(std::uint64_t key, std::uint64_t value) {
  const std::uint64_t bucket = bucketOf(key);
  const BlockId primary = blockOfBucket(bucket);

  // Same chained-bucket insert as ChainingHashTable, inlined against the
  // split-aware addressing.
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
        if (page.hasNext()) {
          r.primary_full = page.full();
          r.next = page.next();
          return r;
        }
        if (page.append(Record{key, value})) {
          r.handled = r.inserted_new = true;
          return r;
        }
        const BlockId fresh = io().allocate();
        io().withOverwrite(fresh, [&](std::span<Word> fd) {
          BucketPage fp(fd);
          fp.format();
          EXTHASH_CHECK(fp.append(Record{key, value}));
        });
        page.setNext(fresh);
        ++overflow_blocks_;
        r.handled = r.inserted_new = true;
        return r;
      });
  bool inserted_new = fast.inserted_new;
  if (!fast.handled) {
    BlockId current = fast.next;
    BlockId first_with_space = fast.primary_full ? kInvalidBlock : primary;
    BlockId last = primary;
    bool updated = false;
    while (current != kInvalidBlock) {
      struct Info {
        bool found = false;
        bool full = true;
        BlockId next = kInvalidBlock;
      };
      const Info info =
          io().withRead(current, [&](std::span<const Word> data) {
            ConstBucketPage page(data);
            return Info{page.indexOf(key).has_value(), page.full(),
                        page.next()};
          });
      if (info.found) {
        io().withWrite(current, [&](std::span<Word> data) {
          BucketPage page(data);
          const auto idx = page.indexOf(key);
          EXTHASH_CHECK(idx.has_value());
          page.setValueAt(*idx, value);
        });
        updated = true;
        break;
      }
      if (!info.full && first_with_space == kInvalidBlock)
        first_with_space = current;
      last = current;
      current = info.next;
    }
    if (!updated) {
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
      inserted_new = true;
    }
  }

  if (inserted_new) ++size_;
  return inserted_new;
}

std::optional<std::uint64_t> LinearHashTable::lookup(std::uint64_t key) {
  BlockId current = blockOfBucket(bucketOf(key));
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

bool LinearHashTable::erase(std::uint64_t key) {
  const BlockId primary = blockOfBucket(bucketOf(key));
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

void LinearHashTable::applyBatch(std::span<const Op> ops) {
  // Group under the addressing in force now; splits are deferred to the
  // end of the batch so the precomputed buckets stay valid throughout.
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
      if (op.kind == OpKind::kInsert) insertNoSplit(op.key, op.value);
      else erase(op.key);
      return;
    }
    group.clear();
    for (std::size_t k = i; k < j; ++k) group.push_back(ops[order[k].second]);
    const std::ptrdiff_t delta = batch::applyOpsToChain(
        io(), blockOfBucket(bucket), group, overflow_blocks_);
    size_ =
        static_cast<std::size_t>(static_cast<std::ptrdiff_t>(size_) + delta);
  });
  maybeSplit();
}

void LinearHashTable::lookupBatch(std::span<const std::uint64_t> keys,
                                  std::span<std::optional<std::uint64_t>> out) {
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
    batch::lookupInChain(io(), blockOfBucket(bucket), keys, out, pending);
  });
}

void LinearHashTable::visitLayout(LayoutVisitor& visitor) const {
  flushCache();  // the inspect() reads below bypass the cache
  const std::uint64_t live = bucketCountLive();
  for (std::uint64_t j = 0; j < live; ++j) {
    BlockId current = blockOfBucket(j);
    while (current != kInvalidBlock) {
      ConstBucketPage page(ctx_.device->inspect(current));
      const std::size_t n = page.count();
      for (std::size_t i = 0; i < n; ++i)
        visitor.diskItem(current, page.recordAt(i));
      current = page.next();
    }
  }
}

std::string LinearHashTable::debugString() const {
  return "linear-hashing{level=" + std::to_string(level_) +
         ", split_ptr=" + std::to_string(split_pointer_) +
         ", buckets=" + std::to_string(bucketCountLive()) +
         ", size=" + std::to_string(size_) +
         ", load=" + std::to_string(loadFactor()) + "}";
}

void LinearHashTable::validateLayout(AuditReport& report) const {
  ExternalHashTable::validateLayout(report);  // attached-cache audit
  flushCache();  // the inspect() reads below bypass the cache
  const char* kComponent = "linear-hashing";

  // Split state: the pointer stays inside the current round (splitOne
  // wraps it to 0 and bumps level_ at the round boundary), and the
  // geometric segments must cover every live bucket.
  const std::uint64_t round_buckets = config_.initial_buckets << level_;
  EXTHASH_AUDIT_EXPECT(report, kComponent, split_pointer_ < round_buckets,
                       "split pointer " << split_pointer_
                           << " outside round of " << round_buckets
                           << " buckets");
  const std::uint64_t live = bucketCountLive();
  std::uint64_t covered = config_.initial_buckets;  // segment 0
  for (std::size_t s = 1; s < segments_.size(); ++s) {
    covered += config_.initial_buckets << (s - 1);
  }
  EXTHASH_AUDIT_EXPECT(report, kComponent, covered >= live,
                       segments_.size() << " segments cover " << covered
                           << " buckets, " << live << " are live");
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         ctx_.device->isAllocated(segments_[s]),
                         "segment " << s << " base block " << segments_[s]
                                    << " is not allocated");
  }
  if (covered < live) return;  // chain walks below would index past the end

  // Chain walks: placement, counts, per-chain key uniqueness, acyclicity,
  // and the size / overflow ledgers.
  const std::uint64_t max_chain = 1 + overflow_blocks_;
  std::size_t records_seen = 0;
  std::uint64_t overflow_seen = 0;
  std::vector<std::uint64_t> chain_keys;
  for (std::uint64_t j = 0; j < live; ++j) {
    chain_keys.clear();
    BlockId current = blockOfBucket(j);
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
      EXTHASH_AUDIT_EXPECT(report, kComponent,
                           page.count() <= page.capacity(),
                           "block " << current << " claims " << page.count()
                               << " records, capacity " << page.capacity());
      const std::size_t n = std::min(page.count(), page.capacity());
      for (std::size_t i = 0; i < n; ++i) {
        const Record r = page.recordAt(i);
        EXTHASH_AUDIT_EXPECT(report, kComponent, bucketOf(r.key) == j,
                             "key " << r.key << " stored in bucket " << j
                                    << " but addresses to bucket "
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

namespace {
constexpr std::uint64_t kLinearHashMetaMagic = 0x4C494E484D455441ULL;
}  // namespace

std::vector<std::uint64_t> LinearHashTable::serializeMeta() const {
  MetaWriter w;
  w.tag(kLinearHashMetaMagic);
  w.u64(config_.initial_buckets);
  w.dbl(config_.max_load);
  w.u64(records_per_block_);
  w.u64(level_);
  w.u64(split_pointer_);
  w.u64(size_);
  w.u64(overflow_blocks_);
  w.u64(splits_);
  w.vec(segments_);
  return w.take();
}

void LinearHashTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kLinearHashMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == config_.initial_buckets,
                    "linear-hashing checkpoint geometry mismatch");
  config_.max_load = r.dbl();
  EXTHASH_CHECK(r.u64() == records_per_block_);
  level_ = static_cast<std::uint32_t>(r.u64());
  split_pointer_ = r.u64();
  size_ = r.u64();
  overflow_blocks_ = r.u64();
  splits_ = r.u64();
  segments_ = r.vec();
  meta_charge_.resize(40 + segments_.size());
  EXTHASH_CHECK_MSG(r.done(), "trailing words in linear-hashing meta");
}

}  // namespace exthash::tables
