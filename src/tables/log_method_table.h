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

#include "extmem/memtable.h"
#include "tables/chaining_table.h"
#include "tables/hash_table.h"

namespace exthash::tables {

struct LogMethodConfig {
  std::size_t gamma = 2;              // level size ratio (the paper's γ >= 2)
  std::size_t h0_capacity_items = 0;  // memory buffer capacity (~m/4 words·2)
};

class LogMethodTable final : public ExternalHashTable {
 public:
  LogMethodTable(TableContext ctx, LogMethodConfig config);

  bool insert(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> lookup(std::uint64_t key) override;
  bool erase(std::uint64_t key) override;
  /// Batch fast path for insert-only batches: H0 and the batch are merged
  /// once and pushed down in a single streaming pass, instead of cascading
  /// one H0-flush per h0_capacity items. Batches containing erases resolve
  /// every erase's presence probe up front — earlier batch ops and H0
  /// answer in memory, the rest go down the levels bucket-grouped (one
  /// pass per level) — then replay the ops with serial semantics and zero
  /// per-key disk probes.
  void applyBatch(std::span<const Op> ops) override;
  /// Batched lookups: H0 is free; each disk level answers its whole
  /// subgroup with one bucket-grouped pass (newest level wins).
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  /// Logical size: inserts minus erases of present keys. Exact under the
  /// distinct-key workloads of the paper; see class comment.
  std::size_t size() const override { return live_size_; }
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
  const extmem::MemTable& memoryTable() const noexcept { return h0_; }

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

  /// Empty H0 into a hash-ordered vector, hashing each record once.
  std::vector<HashedRecord> drainH0();
  /// Migrate H0 (and any levels that must cascade) downward.
  void flush();
  /// Mixed insert/erase batch: grouped presence probes + serial replay
  /// (see applyBatch). Requires ops.size() >= 2.
  void applyBatchWithErases(std::span<const Op> ops);
  /// Liveness below H0 for each key: true iff the newest version in the
  /// disk levels exists and is not a tombstone. One bucket-grouped pass
  /// per level, exactly like lookupBatch's disk phase.
  std::vector<bool> levelsLiveBatch(const std::vector<std::uint64_t>& keys);
  /// Merge `newest` (hash-ordered, deduplicated, newer than every level)
  /// plus any levels that must cascade into the shallowest level that
  /// fits. The single streaming pass behind both flush() and applyBatch().
  void mergeDown(std::vector<HashedRecord> newest);
  ChainingConfig levelConfig(std::size_t k) const;
  ChainingConfig levelConfigForSize(std::size_t items) const;

  LogMethodConfig config_;
  std::size_t records_per_block_;
  extmem::MemTable h0_;
  // levels_[k-1] = H_k; null when empty.
  std::vector<std::unique_ptr<ChainingHashTable>> levels_;
  std::size_t live_size_ = 0;
  std::uint64_t merges_ = 0;
};

}  // namespace exthash::tables
