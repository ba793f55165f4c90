// Blocked external cuckoo hashing (Pagh & Rodler [17], cited by the paper
// as the classic way to make query cost worst-case O(1)).
//
// Every key has two candidate buckets (derived from disjoint parts of its
// hash); a lookup reads at most two blocks — a WORST-CASE guarantee, at
// the price of an average query cost of 1 + Θ(fraction in second bucket),
// i.e. the 1 + Θ(1) corner of the paper's tradeoff (c = 0). Insertions
// use BFS-free random-walk kickouts; keys that fail to place after the
// kick budget land in a small memory-resident stash (budget-charged),
// which is the standard practical fix.
#pragma once

#include "extmem/bucket_page.h"
#include "extmem/memtable.h"
#include "tables/hash_table.h"

namespace exthash::tables {

struct CuckooConfig {
  std::uint64_t bucket_count = 0;  // d blocks; capacity d·b at load <= ~0.9
  std::size_t max_kicks = 64;      // random-walk budget before stashing
  std::size_t stash_capacity = 64; // memory stash size (items)
};

class CuckooHashTable final : public ExternalHashTable {
 public:
  CuckooHashTable(TableContext ctx, CuckooConfig config);
  ~CuckooHashTable() override;

  bool insert(std::uint64_t key, std::uint64_t value) override;
  bool erase(std::uint64_t key) override;
  /// Bucket-grouped batch: stash-resident keys resolve in memory, then
  /// one rmw per touched first-choice bucket handles updates/erases, and
  /// one rmw per touched second-choice bucket places the rest — k ops
  /// against a bucket pair cost two rmws instead of 2k. Ops needing
  /// kickouts (full buckets) fall back to the serial path in submission
  /// order.
  void applyBatch(std::span<const Op> ops) override;
  /// Bucket-grouped probes: all keys sharing a second-choice bucket are
  /// answered by one read; only the misses pay a (grouped) first-choice
  /// read — k keys against one block cost one I/O instead of k.
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  std::size_t size() const override { return size_; }
  std::string_view name() const override { return "cuckoo"; }
  void visitLayout(LayoutVisitor& visitor) const override;
  std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override;
  std::string debugString() const override;

  double loadFactor() const noexcept;
  std::size_t stashSize() const noexcept { return stash_.size(); }
  std::uint64_t kicks() const noexcept { return kicks_; }

  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;

 private:
  std::uint64_t bucket1(std::uint64_t key) const;
  std::uint64_t bucket2(std::uint64_t key) const;
  /// Try appending into bucket j (one rmw); true on success.
  bool tryAppend(std::uint64_t j, Record r);

  CuckooConfig config_;
  std::size_t records_per_block_;
  extmem::BlockId extent_ = extmem::kInvalidBlock;
  extmem::MemTable stash_;
  std::size_t size_ = 0;
  std::uint64_t kicks_ = 0;
  std::uint64_t kick_rng_state_;
};

}  // namespace exthash::tables
