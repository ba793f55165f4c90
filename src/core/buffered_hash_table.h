// The paper's primary contribution (Theorem 2): a dynamic external hash
// table whose insertion cost is o(1) I/Os while successful lookups stay
// within 1 + O(1/b^c) I/Os, for any constant c < 1.
//
// Construction (Section 3 of the paper):
//  * A single big chaining table Ĥ at load factor <= 1/2 holds at least a
//    (1 - 1/β) fraction of all items.
//  * Recent insertions accumulate in a logarithmic-method buffer
//    (memory-resident H0 plus geometric disk levels, Lemma 5).
//  * Whenever the buffer holds |Ĥ|/β items, it is merged into Ĥ by one
//    hash-ordered streaming pass that rebuilds Ĥ (the paper's "Ĥ is
//    scanned β times per doubling round" charging argument; our ranges-
//    as-buckets layout makes the scan literally single-pass, README
//    "Merges"). Rounds double implicitly: the merge threshold scales
//    with |Ĥ|.
//
// Query cost for a uniformly random successful lookup:
//    1·(1 - 1/β) + O(1)·(1/β) = 1 + O(1/β);
// with β = b^c this is 1 + O(1/b^c). Insertion cost:
//    O((β + γ·log(n/m)) / b) = O(b^(c-1))              (Theorem 2)
// and with β = Θ(εb), insertion costs ε I/Os with queries 1 + O(1/b).
//
// Contract: the paper's model is insert-only with distinct keys. insert()
// of a key already buried in Ĥ leaves the old version shadow-visible to
// lookup() (which probes Ĥ first to meet the query bound); strictLookup()
// checks the buffer first and always returns the newest version at a
// higher average cost. erase() throws UnsupportedOperation.
#pragma once

#include <memory>

#include "tables/chaining_table.h"
#include "tables/hash_table.h"
#include "tables/log_method_table.h"

namespace exthash::core {

struct BufferedConfig {
  /// The paper's β ∈ [2, b]: merge the buffer into Ĥ every |Ĥ|/β inserts.
  std::size_t beta = 2;
  /// The logarithmic-method ratio γ >= 2.
  std::size_t gamma = 2;
  /// Capacity (items) of the memory-resident H0.
  std::size_t h0_capacity_items = 0;

  /// β = ceil(b^c): targets tq = 1 + O(1/b^c) for c < 1 (Theorem 2).
  static BufferedConfig forQueryExponent(double c, std::size_t b,
                                         std::size_t h0_capacity_items,
                                         std::size_t gamma = 2);

  /// β = max(2, round(ε·b/2)): targets insert cost ~ε with tq = 1+O(1/b).
  static BufferedConfig forInsertBudget(double epsilon, std::size_t b,
                                        std::size_t h0_capacity_items,
                                        std::size_t gamma = 2);
};

class BufferedHashTable final : public tables::ExternalHashTable {
 public:
  BufferedHashTable(tables::TableContext ctx, BufferedConfig config);

  bool insert(std::uint64_t key, std::uint64_t value) override;
  /// Batch fast path: the whole batch enters the buffer through the
  /// logarithmic method's one-pass bulk merge, and the buffer-into-Ĥ
  /// merge threshold is checked once at the end — so k inserts cost one
  /// streaming pass instead of k/h0 cascading flushes. Erase batches
  /// throw (insert-only model), as erase() does.
  void applyBatch(std::span<const tables::Op> ops) override;
  /// Batched lookups: Ĥ answers the (1 - 1/β) majority with one
  /// bucket-grouped pass; only the misses walk the buffer levels.
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  std::size_t size() const override;
  std::string_view name() const override { return "buffered"; }
  void visitLayout(tables::LayoutVisitor& visitor) const override;
  std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override;
  std::string debugString() const override;

  /// Newest-version lookup (buffer first, then Ĥ); average cost is higher
  /// by O(#levels/β)... use when keys may be re-inserted with new values.
  std::optional<std::uint64_t> strictLookup(std::uint64_t key);

  std::size_t beta() const noexcept { return config_.beta; }
  std::uint64_t merges() const noexcept { return merges_; }
  std::size_t hhatSize() const noexcept { return hhat_ ? hhat_->size() : 0; }
  std::size_t bufferSize() const noexcept { return buffer_.bufferedRecords(); }
  const tables::ChainingHashTable* hhat() const noexcept {
    return hhat_.get();
  }

  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;

 private:
  void mergeIntoHhat();
  /// The merge pass behind mergeIntoHhat(), with an optional batch of
  /// records newer than the whole buffer (hash-ordered, deduplicated)
  /// joining the merge directly — the applyBatch path, which spares those
  /// records a round-trip through the buffer's disk levels.
  void mergeIntoHhatWith(std::vector<HashedRecord> newest);
  std::size_t mergeThreshold() const;

  BufferedConfig config_;
  std::size_t records_per_block_;
  tables::LogMethodTable buffer_;
  std::unique_ptr<tables::ChainingHashTable> hhat_;
  std::uint64_t merges_ = 0;
};

}  // namespace exthash::core
