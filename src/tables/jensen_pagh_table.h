// Simplified Jensen–Pagh table [12] — the structure whose open question
// this paper answers. Maintains a high load factor 1 - Θ(1/√b) while
// supporting lookups and updates in 1 + O(1/√b) I/Os.
//
// Construction (behaviorally equivalent simplification):
// a primary array of d buckets (one block each, no chains) driven at load
// 1 - 1/√b, plus a shared overflow chaining table holding the items that
// do not fit their primary bucket. A per-bucket header flag records
// whether the bucket ever overflowed, so a miss in an un-overflowed bucket
// ends the query at one I/O. Poisson occupancy at mean b(1 - 1/√b) puts a
// Θ(1/√b) fraction of items in overflow, giving the 1 + Θ(1/√b) averages.
// The table rebuilds at twice the capacity when the target load is
// exceeded (amortized O(1/b) per insert, the standard trick the paper
// attributes to extendible/linear hashing), in one hash-ordered streaming
// pass (README, "Merges").
#pragma once

#include <memory>

#include "extmem/bucket_page.h"
#include "tables/chaining_table.h"
#include "tables/hash_table.h"

namespace exthash::tables {

struct JensenPaghConfig {
  /// Initial capacity target (items); the table rebuilds at 2x when
  /// exceeded.
  std::size_t initial_capacity = 0;
};

class JensenPaghTable final : public ExternalHashTable {
 public:
  JensenPaghTable(TableContext ctx, JensenPaghConfig config);
  ~JensenPaghTable() override;

  bool insert(std::uint64_t key, std::uint64_t value) override;
  bool erase(std::uint64_t key) override;
  /// Bucket-grouped batch apply: one rmw replays every op targeting a
  /// primary bucket (serial cost: one rmw per op), overflow-bound ops are
  /// forwarded per group to the overflow table's own grouped applyBatch.
  /// Semantically identical to the serial loop, including mid-batch
  /// rebuild-and-continue when the capacity target is crossed.
  void applyBatch(std::span<const Op> ops) override;
  /// Bucket-grouped lookups: one read per distinct primary bucket; only
  /// unresolved keys in overflowed buckets touch the overflow table.
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  std::size_t size() const override { return size_; }
  std::string_view name() const override { return "jensen-pagh"; }
  void visitLayout(LayoutVisitor& visitor) const override;
  std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override;
  std::string debugString() const override;

  /// Overall load factor: n / (blocks used · b) — the paper's definition.
  double loadFactor() const;
  std::size_t overflowItems() const noexcept {
    return overflow_ ? overflow_->size() : 0;
  }
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }
  std::uint64_t primaryBuckets() const noexcept { return bucket_count_; }

  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;

 private:
  static constexpr std::uint32_t kHasOverflowFlag = 1;

  void initArrays(std::size_t capacity);
  void rebuild(std::size_t new_capacity);
  std::uint64_t bucketOf(std::uint64_t key) const;

  JensenPaghConfig config_;
  std::size_t records_per_block_;
  std::size_t capacity_target_ = 0;
  std::uint64_t bucket_count_ = 0;
  extmem::BlockId extent_ = extmem::kInvalidBlock;
  std::unique_ptr<ChainingHashTable> overflow_;
  std::size_t size_ = 0;
  std::uint64_t rebuilds_ = 0;
  extmem::MemoryCharge meta_charge_;
};

}  // namespace exthash::tables
