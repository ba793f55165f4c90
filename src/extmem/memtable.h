// Budget-charged in-memory hash table (the paper's memory zone M).
//
// Open addressing with linear probing over (key, value) slots plus a
// one-byte occupancy array; the memory budget is charged for
// slots * (2 words + 1 byte, rounded up). This is the H0 of the
// logarithmic method and the memtable of the LSM baseline. Lookups here
// cost zero I/Os by definition of the model.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "extmem/memory_budget.h"
#include "extmem/record.h"

namespace exthash::extmem {

class MemTable {
 public:
  /// Capacity is rounded up to a power of two of slots; the table accepts
  /// up to `capacity_items` records (kept under ~7/8 slot load).
  MemTable(MemoryBudget& budget, std::size_t capacity_items);

  /// True if inserted or updated; false if the table is at capacity and
  /// `key` is not already present.
  bool insertOrAssign(std::uint64_t key, std::uint64_t value);

  std::optional<std::uint64_t> find(std::uint64_t key) const noexcept;
  bool contains(std::uint64_t key) const noexcept {
    return find(key).has_value();
  }

  /// Remove a key; returns true if it was present.
  bool erase(std::uint64_t key);

  std::size_t size() const noexcept { return size_; }
  std::size_t capacityItems() const noexcept { return capacity_items_; }
  bool full() const noexcept { return size_ >= capacity_items_; }
  std::size_t memoryWords() const noexcept { return charged_words_; }

  void forEach(const std::function<void(const Record&)>& fn) const;

  /// Drain all records, each tagged with `order(key)` (one call per
  /// record) and sorted by (order(key), key); empties the table.
  std::vector<HashedRecord> drainSorted(
      const std::function<std::uint64_t(std::uint64_t)>& order);

  void clear();

 private:
  enum class SlotState : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  std::size_t slotFor(std::uint64_t key) const noexcept;

  MemoryCharge charge_;
  std::vector<Record> slots_;
  std::vector<SlotState> states_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t capacity_items_ = 0;
  std::size_t charged_words_ = 0;
};

}  // namespace exthash::extmem
