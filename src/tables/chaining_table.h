// The standard external hash table with chained overflow blocks — the
// structure behind Knuth's 1 + 1/2^Ω(b) analysis [13] and the paper's
// upper bound for the tq = 1 + O(1/b^c), c > 1 regime.
//
// Layout: `bucket_count` primary blocks in one contiguous extent, so the
// primary block of key x is `extent_base + index(h(x))` — an address
// computable with O(1) words of memory, as the paper's model requires of
// the function f. Overflow blocks are allocated individually and linked
// through page headers.
//
// Costs (load factor α < 1, ideal hash):
//   successful lookup    1 + 1/2^Ω(b) reads
//   unsuccessful lookup  1 + 1/2^Ω(b) reads (whole chain)
//   insert               1 + 1/2^Ω(b) I/Os (one rmw on the common path)
//
// This class is also the building block for the composite structures: the
// logarithmic-method levels and the Theorem-2 big table Ĥ are chaining
// tables bulk-built from hash-ordered record streams.
#pragma once

#include <memory>

#include "extmem/bucket_page.h"
#include "tables/bucket_indexer.h"
#include "tables/cursor.h"
#include "tables/hash_table.h"
#include "tables/meta_words.h"

namespace exthash::tables {

struct ChainingConfig {
  std::uint64_t bucket_count = 0;
  BucketIndexer indexer = {};  // default: range indexing (monotone)
};

/// Counted, hash-ordered scan of a range-indexed bucket array whose bucket
/// j's chain starts at block `extent + j`: reads each block once through
/// `io` and hands out one nonempty bucket per chunk, each record hashed
/// once and the bucket sorted by (h(key), key) in scratch charged to the
/// budget at kWordsPerHashedRecord per record. Chaining tables and the
/// Jensen–Pagh primary array are both scanned this way.
class BucketScanCursor final : public RecordCursor {
 public:
  BucketScanCursor(const TableContext& ctx, extmem::CachedBlockIo io,
                   extmem::BlockId extent, std::uint64_t bucket_count);

  std::span<const HashedRecord> nextChunk() override;

 private:
  extmem::CachedBlockIo io_;
  hashfn::HashPtr hash_;
  extmem::BlockId extent_;
  std::uint64_t bucket_count_;
  std::uint64_t bucket_ = 0;
  extmem::MemoryCharge scratch_;
  std::vector<Record> records_;
  std::vector<HashedRecord> sorted_;
};

class ChainingHashTable final : public ExternalHashTable {
 public:
  ChainingHashTable(TableContext ctx, ChainingConfig config);
  ~ChainingHashTable() override;

  /// Stream-build a table from records in nondecreasing (h, key) order
  /// (any hash-ordered cursor; requires a monotone indexer). Costs one
  /// write per nonempty block, and one hash call per record to check the
  /// carried hash and the order. Records are stored verbatim (including
  /// tombstones — filter with KWayMerger beforehand if needed).
  static std::unique_ptr<ChainingHashTable> buildFromSorted(
      TableContext ctx, ChainingConfig config, RecordCursor& records);

  bool insert(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> lookup(std::uint64_t key) override;
  bool erase(std::uint64_t key) override;
  /// Batch fast path: ops grouped by bucket, one chain pass per bucket —
  /// k ops against a single-block bucket cost one rmw instead of k.
  void applyBatch(std::span<const Op> ops) override;
  /// Batched lookups grouped by bucket: one chain pass answers every key
  /// that hashes to the same bucket.
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  std::size_t size() const override { return size_; }
  std::string_view name() const override { return "chaining"; }
  void visitLayout(LayoutVisitor& visitor) const override;
  std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override;
  std::string debugString() const override;
  /// Deep structural audit: walks every bucket chain on the device and
  /// checks record placement (bucketOf agreement), per-page counts,
  /// per-chain key uniqueness, chain acyclicity, and that the size_ /
  /// overflow_blocks_ bookkeeping matches what the blocks actually hold.
  void validateLayout(AuditReport& report) const override;

  std::uint64_t bucketCount() const noexcept { return config_.bucket_count; }
  const BucketIndexer& indexer() const noexcept { return config_.indexer; }
  std::size_t recordsPerBlock() const noexcept { return records_per_block_; }
  std::uint64_t overflowBlocks() const noexcept { return overflow_blocks_; }

  /// n / (bucket_count · b): the paper's load factor measured against the
  /// primary area.
  double loadFactor() const noexcept;

  /// Counted, hash-ordered scan of all records (a BucketScanCursor).
  /// Requires a monotone indexer. The cursor must not outlive the table
  /// and the table must not be modified while a scan is live.
  std::unique_ptr<RecordCursor> scanInHashOrder();

  /// Free every block owned by the table; the table becomes empty and
  /// unusable. Called by composite structures when a level is merged away
  /// (and by the destructor).
  void destroy();

  // ---- Checkpoint metadata (durability/) --------------------------------
  //
  // Chaining is both a standalone kind and the component table of the
  // composites (log method, Theorem 2), so its meta round-trips in two
  // forms: the ExternalHashTable overrides for standalone use, and the
  // *Into/*From pair composites embed in their own streams.
  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;
  void serializeMetaInto(MetaWriter& w) const;
  /// Overwrite this table's in-memory state from a stream positioned at
  /// its section (devices already image-restored). Construction geometry
  /// (bucket count, indexer kind, records/block) must match — checked.
  void restoreMetaFrom(MetaReader& r);
  /// Rebuild a component table from a stream section WITHOUT touching the
  /// device: the restore-tagged constructor allocates nothing (the blocks
  /// it adopts were re-allocated wholesale by the image restore).
  static std::unique_ptr<ChainingHashTable> restoreFromMeta(TableContext ctx,
                                                            MetaReader& r);
  /// Disown every block: the destructor becomes a no-op. Used on a fresh
  /// constructor's component tables before restoreMeta replaces them —
  /// their extents predate the image restore and may no longer be
  /// allocated, so destroy()'s chain walk must never run.
  void abandon() noexcept { destroyed_ = true; }

 private:
  /// Restore-path constructor: adopts geometry without allocating the
  /// primary extent (restoreMetaFrom supplies it).
  struct RestoreTag {};
  ChainingHashTable(RestoreTag, TableContext ctx, ChainingConfig config);

  // Test-only corruption hook for the invariant auditor.
  friend struct AuditPeer;

  std::uint64_t bucketOf(std::uint64_t key) const;
  extmem::BlockId primaryBlock(std::uint64_t bucket) const {
    return extent_ + bucket;
  }

  ChainingConfig config_;
  std::size_t records_per_block_;
  extmem::BlockId extent_ = extmem::kInvalidBlock;
  std::size_t size_ = 0;
  std::uint64_t overflow_blocks_ = 0;
  extmem::MemoryCharge meta_charge_;
  bool destroyed_ = false;
};

}  // namespace exthash::tables
