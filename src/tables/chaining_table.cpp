#include "tables/chaining_table.h"

#include <vector>

#include "tables/bucket_chain.h"

namespace exthash::tables {

using extmem::BlockId;
using extmem::kInvalidBlock;

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
  chain::freeOverflow(io(), config_.bucket_count,
                      [&](std::uint64_t j) { return primaryBlock(j); });
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
  const bool inserted_new = chain::insert(io(), primaryBlock(bucketOf(key)),
                                          key, value, overflow_blocks_);
  if (inserted_new) ++size_;
  return inserted_new;
}

bool ChainingHashTable::erase(std::uint64_t key) {
  EXTHASH_CHECK(!destroyed_);
  const bool erased = chain::erase(io(), primaryBlock(bucketOf(key)), key,
                                   overflow_blocks_);
  if (erased) --size_;
  return erased;
}

// ---------------------------------------------------------------------------
// Batch API
// ---------------------------------------------------------------------------

void ChainingHashTable::applyBatch(std::span<const Op> ops) {
  EXTHASH_CHECK(!destroyed_);
  chain::applyBatch(
      io(), *ctx_.memory, ops, [&](std::uint64_t key) { return bucketOf(key); },
      [&](std::uint64_t bucket) { return primaryBlock(bucket); }, size_,
      overflow_blocks_);
}

void ChainingHashTable::lookupBatch(std::span<const std::uint64_t> keys,
                                    std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(!destroyed_);
  chain::lookupBatch(
      io(), *ctx_.memory, keys, out,
      [&](std::uint64_t key) { return bucketOf(key); },
      [&](std::uint64_t bucket) { return primaryBlock(bucket); });
}

void ChainingHashTable::visitLayout(LayoutVisitor& visitor) const {
  if (destroyed_) return;
  chain::visit(io(), config_.bucket_count,
               [&](std::uint64_t j) { return primaryBlock(j); }, visitor);
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
  chain::audit(
      report, "chaining", io(), config_.bucket_count,
      [&](std::uint64_t j) { return primaryBlock(j); },
      [&](std::uint64_t key) { return bucketOf(key); }, size_,
      overflow_blocks_);
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
  const auto& h = *ctx.hash;

  std::vector<Record> bucket_records;
  // Scratch for one bucket's records, charged against the memory budget
  // (this is the merge working set; it stays O(b) except for pathological
  // skew).
  extmem::MemoryCharge scratch(*ctx.memory, 0);

  std::uint64_t last_bucket = 0;
  bool first = true;
  auto flushBucket = [&](std::uint64_t j) {
    if (bucket_records.empty()) return;
    chain::write(*ctx.device, table->primaryBlock(j), bucket_records,
                 table->overflow_blocks_);
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
      current = chain::readRecords(io_, current, records_);
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
