// The folklore logarithmic-method hash table of Lemma 5 (Bentley's
// logarithmic method [5] applied to hashing).
//
// A memory-resident table H0 of capacity ~m/2 items absorbs insertions for
// free; disk levels H1, H2, ... are chaining hash tables where level k has
// capacity γ^k · |H0| items at load factor <= 1/2 (bucket count γ^k · m/b,
// exactly the paper's construction). When H0 fills, levels are migrated
// downward; we use the classic optimization of merging H0 and levels
// 1..k-1 into the first level k where the union fits, via one k-way
// hash-ordered streaming merge (see README, "Merges").
//
// Costs (Lemma 5): insert amortized O((γ/b) · log_γ(n/m)) I/Os; lookup
// O(log_γ(n/m)) reads — one per nonempty level, newest first.
//
// Deletions are tombstones (value = kTombstoneValue) that annihilate older
// versions at merge time; lookups resolve newest-first so the tombstone
// shadows correctly.
#pragma once

#include <memory>
#include <vector>

#include "tables/chaining_table.h"
#include "tables/memtable_front.h"

namespace exthash::tables {

struct LogMethodConfig {
  std::size_t gamma = 2;              // level size ratio (the paper's γ >= 2)
  std::size_t h0_capacity_items = 0;  // memory buffer capacity (~m/4 words·2)
};

/// H0 is the memtable of the MemtableFront (tables/memtable_front.h), which
/// implements insert, erase, applyBatch and lookupBatch's memory phase.
/// An insert-only batch larger than H0's free space is merged with H0 and
/// pushed down in a single streaming pass, instead of cascading one
/// H0-flush per h0_capacity items; erase presence probes and the disk
/// phase of lookupBatch go down the levels bucket-grouped, one pass per
/// level, newest level first.
class LogMethodTable final : public MemtableFront<LogMethodTable> {
 public:
  LogMethodTable(TableContext ctx, LogMethodConfig config);

  std::string_view name() const override { return "log-method"; }
  void visitLayout(LayoutVisitor& visitor) const override;
  std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override;
  std::string debugString() const override;
  /// Deep structural audit: H0 within its capacity, every nonempty level
  /// within its geometric capacity, and a recursive chaining audit of
  /// each level table.
  void validateLayout(AuditReport& report) const override;

  std::size_t levelCount() const noexcept { return levels_.size(); }
  std::size_t nonemptyLevels() const noexcept;
  std::uint64_t merges() const noexcept { return merges_; }

  /// Capacity (items) of disk level k (1-based).
  std::size_t levelCapacity(std::size_t k) const;

  /// Records currently buffered (H0 + all levels), including tombstones.
  std::size_t bufferedRecords() const noexcept;

  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;

  /// Drain every record (newest-first deduplicated, tombstones INCLUDED)
  /// as one hash-ordered cursor, leaving the structure empty. Used by the
  /// Theorem-2 table when merging the buffer into Ĥ. The returned cursor
  /// owns the level tables and frees their blocks when destroyed.
  std::unique_ptr<RecordCursor> drainAll();

 private:
  // Test-only corruption hook for the invariant auditor.
  friend struct AuditPeer;
  friend class MemtableFront<LogMethodTable>;

  /// Empty H0 into a hash-ordered vector, hashing each record once.
  std::vector<HashedRecord> drainH0();
  // The MemtableFront hooks.
  /// Migrate H0 (and any levels that must cascade) downward.
  void flushMemtable();
  /// Hash-sort `records` and merge them down (see mergeDown).
  void bulkSpill(std::vector<Record> records);
  /// One bucket-grouped lookupBatch per nonempty level, newest first.
  void lookupBelow(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out,
                   std::vector<std::size_t>& pending);
  /// Merge `newest` (hash-ordered, deduplicated, newer than every level)
  /// plus any levels that must cascade into the shallowest level that
  /// fits. The single streaming pass behind flushMemtable() and
  /// bulkSpill().
  void mergeDown(std::vector<HashedRecord> newest);
  ChainingConfig levelConfigForSize(std::size_t items) const;

  LogMethodConfig config_;
  std::size_t records_per_block_;
  // levels_[k-1] = H_k; null when empty.
  std::vector<std::unique_ptr<ChainingHashTable>> levels_;
  std::uint64_t merges_ = 0;
};

}  // namespace exthash::tables
