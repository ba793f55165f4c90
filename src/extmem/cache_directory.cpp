#include "extmem/cache_directory.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace exthash::extmem {

CacheDirectory::CacheDirectory(std::size_t entries) {
  rehash(8);
  reserve(entries);
}

void CacheDirectory::reserve(std::size_t entries) {
  const std::size_t cells = std::bit_ceil(2 * entries + 2);
  if (cells > cells_.size()) rehash(cells);
}

CacheDirectory::Index CacheDirectory::freeCellFor(BlockId id) const noexcept {
  Index i = home(id);
  while (cells_[i].id != kInvalidBlock) i = (i + 1) & mask_;
  return i;
}

CacheDirectory::Index CacheDirectory::insertFront(BlockId id,
                                                  std::uint8_t q) {
  if (2 * (size_ + 1) > cells_.size()) rehash(2 * cells_.size());
  const Index i = freeCellFor(id);
  cells_[i] = Entry{};
  cells_[i].id = id;
  ++size_;
  linkFront(i, q);
  return i;
}

void CacheDirectory::erase(Index i) noexcept {
  unlink(i);
  --size_;
  // Backward shift: walk the rest of the probe run and pull back every
  // entry whose home does not lie cyclically in (hole, j] — it may move
  // into the hole without falling out of reach of find().
  Index hole = i;
  for (Index j = (i + 1) & mask_; cells_[j].id != kInvalidBlock;
       j = (j + 1) & mask_) {
    const Index from_home = (j - home(cells_[j].id)) & mask_;
    if (from_home < ((j - hole) & mask_)) continue;
    Entry& moved = cells_[hole] = cells_[j];
    if (moved.prev != kNil) {
      cells_[moved.prev].next = hole;
    } else {
      queues_[moved.queue].front = hole;
    }
    if (moved.next != kNil) {
      cells_[moved.next].prev = hole;
    } else {
      queues_[moved.queue].back = hole;
    }
    hole = j;
  }
  cells_[hole] = Entry{};
}

void CacheDirectory::clear() noexcept {
  std::fill(cells_.begin(), cells_.end(), Entry{});
  queues_ = {};
  size_ = 0;
}

void CacheDirectory::rehash(std::size_t cell_count) {
  const std::vector<Entry> old =
      std::exchange(cells_, std::vector<Entry>(cell_count));
  mask_ = static_cast<Index>(cell_count - 1);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(cell_count));
  const std::array<QueueEnds, kQueues> old_queues = queues_;
  queues_ = {};
  size_ = 0;
  // Re-add each queue from its back so linkFront rebuilds the same order.
  for (std::uint8_t q = 0; q < kQueues; ++q) {
    for (Index i = old_queues[q].back; i != kNil; i = old[i].prev) {
      const Index j = freeCellFor(old[i].id);
      cells_[j] = old[i];
      ++size_;
      linkFront(j, q);
    }
  }
}

}  // namespace exthash::extmem
