#include "tables/linear_hash_table.h"

#include <bit>
#include <vector>

#include "tables/bucket_chain.h"
#include "tables/meta_words.h"

namespace exthash::tables {

using extmem::BlockId;

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
  chain::freeOverflow(io(), bucketCountLive(),
                      [&](std::uint64_t j) { return blockOfBucket(j); });
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

void LinearHashTable::splitOne() {
  const std::uint64_t round_buckets = config_.initial_buckets << level_;
  const std::uint64_t source = split_pointer_;
  const std::uint64_t target = round_buckets + split_pointer_;
  ensureSegmentFor(target);

  // Read the whole source chain (one read per block, overflow freed),
  // then write each half as a fresh chain (one write per block).
  std::vector<Record> records;
  const BlockId overflow =
      chain::readRecords(io(), blockOfBucket(source), records);
  chain::drainOverflow(io(), overflow, records, overflow_blocks_);
  std::vector<Record> stay, move;
  const std::uint64_t mod = round_buckets << 1;
  for (const Record& r : records) {
    if (hash()(r.key) % mod == source) stay.push_back(r);
    else move.push_back(r);
  }
  chain::write(io(), blockOfBucket(source), stay, overflow_blocks_);
  chain::write(io(), blockOfBucket(target), move, overflow_blocks_);

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
  const bool inserted_new = chain::insert(io(), blockOfBucket(bucketOf(key)),
                                          key, value, overflow_blocks_);
  if (inserted_new) ++size_;
  return inserted_new;
}

std::optional<std::uint64_t> LinearHashTable::lookup(std::uint64_t key) {
  return chain::lookup(io(), blockOfBucket(bucketOf(key)), key);
}

bool LinearHashTable::erase(std::uint64_t key) {
  const bool erased = chain::erase(io(), blockOfBucket(bucketOf(key)), key,
                                   overflow_blocks_);
  if (erased) --size_;
  return erased;
}

// ---------------------------------------------------------------------------
// Batch API
// ---------------------------------------------------------------------------

void LinearHashTable::applyBatch(std::span<const Op> ops) {
  // Group under the addressing in force now; splits are deferred to the
  // end of the batch so the precomputed buckets stay valid throughout.
  chain::applyBatch(
      io(), *ctx_.memory, ops, [&](std::uint64_t key) { return bucketOf(key); },
      [&](std::uint64_t bucket) { return blockOfBucket(bucket); }, size_,
      overflow_blocks_);
  maybeSplit();
}

void LinearHashTable::lookupBatch(std::span<const std::uint64_t> keys,
                                  std::span<std::optional<std::uint64_t>> out) {
  chain::lookupBatch(
      io(), *ctx_.memory, keys, out,
      [&](std::uint64_t key) { return bucketOf(key); },
      [&](std::uint64_t bucket) { return blockOfBucket(bucket); });
}

void LinearHashTable::visitLayout(LayoutVisitor& visitor) const {
  chain::visit(io(), bucketCountLive(),
               [&](std::uint64_t j) { return blockOfBucket(j); }, visitor);
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
  if (covered < live) return;  // the chain walks would index past the end
  chain::audit(
      report, kComponent, io(), live,
      [&](std::uint64_t j) { return blockOfBucket(j); },
      [&](std::uint64_t key) { return bucketOf(key); }, size_,
      overflow_blocks_);
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
