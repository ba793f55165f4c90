// Blocked linear probing — the other classic collision-resolution scheme
// Knuth analyses [13]: probe consecutive blocks from the home block until
// the key (or a block that never overflowed) is found.
//
// Each block carries a sticky "overflowed" flag set the first time an
// insertion probes past it while full; lookups stop at the first
// un-overflowed block, which keeps termination correct in the presence of
// deletions (the classic full-block invariant would break once erases
// create holes).
//
// Costs at load α bounded away from 1 mirror chaining: 1 + 1/2^Ω(b) for
// lookups and inserts. Fixed bucket count (the structure the paper's
// regime-1 upper bound needs); use LinearHashTable or ExtendibleHashTable
// for dynamic growth.
#pragma once

#include "extmem/bucket_page.h"
#include "tables/bucket_indexer.h"
#include "tables/hash_table.h"

namespace exthash::tables {

struct LinearProbingConfig {
  std::uint64_t bucket_count = 0;
  BucketIndexer indexer = {};  // any kind; probing order is block order
};

class LinearProbingHashTable final : public ExternalHashTable {
 public:
  LinearProbingHashTable(TableContext ctx, LinearProbingConfig config);
  ~LinearProbingHashTable() override;

  bool insert(std::uint64_t key, std::uint64_t value) override;
  bool erase(std::uint64_t key) override;
  /// Home-bucket-grouped batch: one rmw on the home block resolves every
  /// op whose probe run is just that block (the 1 - 1/2^Ω(b) common
  /// case) — k ops cost one I/O instead of k. Ops that must scan past an
  /// overflowed home block fall back to the serial path in submission
  /// order.
  void applyBatch(std::span<const Op> ops) override;
  /// Home-bucket-grouped probes: one walk of a probe run answers every
  /// key whose home bucket starts it.
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  std::size_t size() const override { return size_; }
  std::string_view name() const override { return "linear-probing"; }
  void visitLayout(LayoutVisitor& visitor) const override;
  std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override;
  std::string debugString() const override;

  std::uint64_t bucketCount() const noexcept { return config_.bucket_count; }
  double loadFactor() const noexcept;
  std::size_t recordsPerBlock() const noexcept { return records_per_block_; }

  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;

 private:
  static constexpr std::uint32_t kOverflowedFlag = 1;

  std::uint64_t homeBucket(std::uint64_t key) const;
  extmem::BlockId blockOf(std::uint64_t bucket) const {
    return extent_ + bucket;
  }

  LinearProbingConfig config_;
  std::size_t records_per_block_;
  extmem::BlockId extent_ = extmem::kInvalidBlock;
  std::size_t size_ = 0;
  extmem::MemoryCharge meta_charge_;
};

}  // namespace exthash::tables
