// Linear hashing (Litwin 1980 [14]): incremental growth one bucket at a
// time, keeping the load factor near a target without global rebuilds —
// the other standard scheme the paper cites for maintaining α at an
// amortized O(1/b) extra cost.
//
// Buckets 0 .. N·2^L + p - 1 are live, where p is the split pointer.
// Addressing uses h mod N·2^L, except that buckets already split this
// round (index < p) use h mod N·2^(L+1). Overflow is handled by chaining.
// Physical placement: bucket ranges are carved from geometrically growing
// extents ("segments"), so only O(log n) words of memory are needed to
// compute any bucket's block address.
#pragma once

#include <vector>

#include "extmem/bucket_page.h"
#include "tables/hash_table.h"

namespace exthash::tables {

struct LinearHashConfig {
  std::uint64_t initial_buckets = 4;  // N: bucket count at level 0
  double max_load = 0.8;              // split when load exceeds this
};

class LinearHashTable final : public ExternalHashTable {
 public:
  LinearHashTable(TableContext ctx, LinearHashConfig config);
  ~LinearHashTable() override;

  bool insert(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> lookup(std::uint64_t key) override;
  bool erase(std::uint64_t key) override;
  /// Batch fast path: ops grouped by bucket under the current split state,
  /// one chain pass per bucket; splits are deferred to the end of the
  /// batch so the grouping stays valid.
  void applyBatch(std::span<const Op> ops) override;
  /// Batched lookups grouped by bucket (one chain pass per bucket).
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  std::size_t size() const override { return size_; }
  std::string_view name() const override { return "linear-hashing"; }
  void visitLayout(LayoutVisitor& visitor) const override;
  std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override;
  std::string debugString() const override;
  /// Deep structural audit: split state sanity (split pointer inside the
  /// current round, segments covering every live bucket), every chain
  /// walked with bucketOf placement / per-page count / acyclicity checks,
  /// and size_ / overflow_blocks_ reconciliation.
  void validateLayout(AuditReport& report) const override;

  std::uint64_t bucketCountLive() const noexcept {
    return (config_.initial_buckets << level_) + split_pointer_;
  }
  std::uint32_t level() const noexcept { return level_; }
  std::uint64_t splitPointer() const noexcept { return split_pointer_; }
  double loadFactor() const noexcept;
  std::uint64_t splits() const noexcept { return splits_; }

  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;

 private:
  // Test-only corruption hook for the invariant auditor.
  friend struct AuditPeer;

  /// insert() minus the load-triggered split, so applyBatch can defer all
  /// splits past the bucket-grouped work.
  bool insertNoSplit(std::uint64_t key, std::uint64_t value);

  std::uint64_t bucketOf(std::uint64_t key) const;
  extmem::BlockId blockOfBucket(std::uint64_t bucket) const;
  void ensureSegmentFor(std::uint64_t bucket);
  void maybeSplit();
  /// Split the bucket at the split pointer: one read per block of its
  /// chain, one write per block of the two chains it becomes.
  void splitOne();

  LinearHashConfig config_;
  std::size_t records_per_block_;
  std::uint32_t level_ = 0;
  std::uint64_t split_pointer_ = 0;
  std::size_t size_ = 0;
  std::uint64_t overflow_blocks_ = 0;
  std::uint64_t splits_ = 0;
  // segments_[0] covers buckets [0, N); segments_[s>=1] covers
  // [N·2^(s-1), N·2^s).
  std::vector<extmem::BlockId> segments_;
  extmem::MemoryCharge meta_charge_;
};

}  // namespace exthash::tables
