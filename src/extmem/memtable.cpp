#include "extmem/memtable.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"
#include "util/random.h"

namespace exthash::extmem {

namespace {
std::size_t slotsForCapacity(std::size_t capacity_items) {
  // Keep probe sequences short: at most 7/8 of slots occupied.
  std::size_t needed = capacity_items + capacity_items / 4 + 8;
  return std::bit_ceil(needed);
}
}  // namespace

MemTable::MemTable(MemoryBudget& budget, std::size_t capacity_items)
    : capacity_items_(capacity_items) {
  const std::size_t slots = slotsForCapacity(capacity_items);
  // 2 words per record slot + 1 byte of state per slot (rounded to words).
  charged_words_ = slots * kWordsPerRecord + (slots + 7) / 8;
  charge_ = MemoryCharge(budget, charged_words_);
  slots_.resize(slots);
  states_.resize(slots, SlotState::kEmpty);
  mask_ = slots - 1;
}

std::size_t MemTable::slotFor(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>(splitmix64(key)) & mask_;
}

bool MemTable::insertOrAssign(std::uint64_t key, std::uint64_t value) {
  std::size_t i = slotFor(key);
  std::size_t first_tombstone = slots_.size();
  while (true) {
    switch (states_[i]) {
      case SlotState::kEmpty: {
        if (size_ >= capacity_items_) return false;
        const std::size_t target =
            first_tombstone < slots_.size() ? first_tombstone : i;
        slots_[target] = Record{key, value};
        states_[target] = SlotState::kFull;
        ++size_;
        return true;
      }
      case SlotState::kTombstone:
        if (first_tombstone == slots_.size()) first_tombstone = i;
        break;
      case SlotState::kFull:
        if (slots_[i].key == key) {
          slots_[i].value = value;
          return true;
        }
        break;
    }
    i = (i + 1) & mask_;
  }
}

std::optional<std::uint64_t> MemTable::find(std::uint64_t key) const noexcept {
  std::size_t i = slotFor(key);
  while (true) {
    switch (states_[i]) {
      case SlotState::kEmpty:
        return std::nullopt;
      case SlotState::kFull:
        if (slots_[i].key == key) return slots_[i].value;
        break;
      case SlotState::kTombstone:
        break;
    }
    i = (i + 1) & mask_;
  }
}

bool MemTable::erase(std::uint64_t key) {
  std::size_t i = slotFor(key);
  while (true) {
    switch (states_[i]) {
      case SlotState::kEmpty:
        return false;
      case SlotState::kFull:
        if (slots_[i].key == key) {
          states_[i] = SlotState::kTombstone;
          --size_;
          return true;
        }
        break;
      case SlotState::kTombstone:
        break;
    }
    i = (i + 1) & mask_;
  }
}

void MemTable::forEach(const std::function<void(const Record&)>& fn) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (states_[i] == SlotState::kFull) fn(slots_[i]);
  }
}

std::vector<HashedRecord> MemTable::drainSorted(
    const std::function<std::uint64_t(std::uint64_t)>& order) {
  std::vector<Record> records;
  records.reserve(size_);
  forEach([&](const Record& r) { records.push_back(r); });
  clear();
  return sortByHash(records, order);
}

void MemTable::clear() {
  std::fill(states_.begin(), states_.end(), SlotState::kEmpty);
  size_ = 0;
}

}  // namespace exthash::extmem
