// Extendible hashing (Fagin, Nievergelt, Pippenger, Strong 1979 [10]).
//
// A directory of 2^g block pointers, indexed by the top g bits of h(x),
// lives in internal memory (and charges the budget — the directory is the
// classic memory cost of this scheme). Buckets carry a local depth ℓ <= g;
// a bucket at depth ℓ serves 2^(g-ℓ) consecutive directory entries.
// Overflowing buckets split (doubling the directory when ℓ = g), so load
// factor is maintained without overflow chains and without global
// rebuilds — the paper cites this (and linear hashing) as the standard
// O(1/b)-amortized way to keep the load factor of the regime-1 table.
//
// Lookup is exactly one I/O, unconditionally. Insert is one rmw plus
// amortized O(1/b) split work.
#pragma once

#include <vector>

#include "extmem/bucket_page.h"
#include "tables/hash_table.h"

namespace exthash::tables {

struct ExtendibleConfig {
  std::uint32_t initial_global_depth = 0;  // directory starts at 2^depth
};

class ExtendibleHashTable final : public ExternalHashTable {
 public:
  ExtendibleHashTable(TableContext ctx, ExtendibleConfig config);
  ~ExtendibleHashTable() override;

  bool insert(std::uint64_t key, std::uint64_t value) override;
  bool erase(std::uint64_t key) override;
  /// Batch fast path: ops grouped by target bucket block; each group is
  /// replayed with one rmw, and only ops that overflow the page fall back
  /// to the splitting serial path.
  void applyBatch(std::span<const Op> ops) override;
  /// Batched lookups: one read answers every key sharing a bucket block.
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  std::size_t size() const override { return size_; }
  std::string_view name() const override { return "extendible"; }
  void visitLayout(LayoutVisitor& visitor) const override;
  std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override;
  std::string debugString() const override;
  /// Deep structural audit: directory size is 2^g, every bucket's local
  /// depth ℓ <= g with its 2^(g-ℓ) directory entries forming one aligned
  /// run of aliases, every record stored under a directory index its hash
  /// actually addresses, and bucket_blocks_ / size_ reconciliation.
  void validateLayout(AuditReport& report) const override;

  std::uint32_t globalDepth() const noexcept { return global_depth_; }
  std::size_t directorySize() const noexcept { return directory_.size(); }
  double loadFactor() const noexcept;

  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;

 private:
  // Test-only corruption hook for the invariant auditor.
  friend struct AuditPeer;

  std::size_t dirIndex(std::uint64_t key) const;
  void doubleDirectory();
  /// Split the bucket serving directory index `idx`; returns false if the
  /// bucket cannot split further (all records share g bits of hash).
  bool splitBucket(std::size_t idx);

  ExtendibleConfig config_;
  std::size_t records_per_block_;
  std::uint32_t global_depth_;
  std::vector<extmem::BlockId> directory_;
  std::size_t bucket_blocks_ = 0;
  std::size_t size_ = 0;
  extmem::MemoryCharge dir_charge_;
};

}  // namespace exthash::tables
