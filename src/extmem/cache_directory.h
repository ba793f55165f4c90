// The one index behind BlockCache and its replacement policy.
//
// A flat open-addressing table (linear probing, backward-shift deletion)
// maps a block id to one Entry. An entry is either RESIDENT — it owns a
// frame slot in the cache's slab and carries the frame's dirty,
// quarantine and failure-streak state — or a GHOST, an evicted id the
// policy still remembers. Every live entry sits on exactly one of four
// intrusive queues (prev/next are cell indices): two resident queues,
// then two ghost queues, which LRU, 2Q and ARC map onto their lists (see
// replacement_policy.h). A hit is therefore one probe plus an O(1)
// relink, and nothing allocates once the table is sized.
//
// Cell indices are NOT stable: erase() shifts later cells of a probe run
// back into the hole (relinking their queue neighbours), and an insert
// past the load limit rehashes. Re-find an entry after either; frame
// slots, not cells, are what callers may hold across nested accesses.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "extmem/block_device.h"

namespace exthash::extmem {

class CacheDirectory {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNil = ~Index{0};
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Queue tags: resident queues first, ghost queues after. Front = most
  /// recently queued, back = the eviction (or expiry) end.
  enum Queue : std::uint8_t {
    kRecent,          // LRU's list, 2Q's A1in, ARC's T1
    kFrequent,        // 2Q's Am, ARC's T2
    kRecentGhost,     // 2Q's A1out, ARC's B1
    kFrequentGhost,   // ARC's B2
  };
  static constexpr std::size_t kQueues = 4;
  static constexpr bool isGhostQueue(std::uint8_t q) noexcept {
    return q >= kRecentGhost;
  }

  struct Entry {
    BlockId id = kInvalidBlock;    // kInvalidBlock marks an empty cell
    std::uint32_t slot = kNoSlot;  // frame slot; kNoSlot for a ghost
    Index prev = kNil;             // toward the queue's front
    Index next = kNil;             // toward its back
    std::uint32_t failures = 0;    // consecutive failed write-backs
    std::uint8_t queue = kRecent;
    bool dirty = false;
    bool quarantined = false;  // write-back faulted; not evictable
    bool gave_up = false;      // failures crossed the give-up threshold
    bool resident() const noexcept { return slot != kNoSlot; }
  };

  /// Sized so `entries` live entries never rehash (load <= 1/2).
  explicit CacheDirectory(std::size_t entries);
  /// Grow (never shrink) so `entries` live entries never rehash.
  void reserve(std::size_t entries);

  Index find(BlockId id) const noexcept {
    for (Index i = home(id);; i = (i + 1) & mask_) {
      const BlockId cur = cells_[i].id;
      if (cur == id) return i;
      if (cur == kInvalidBlock) return kNil;
    }
  }

  Entry& operator[](Index i) noexcept { return cells_[i]; }
  const Entry& operator[](Index i) const noexcept { return cells_[i]; }

  /// Add `id` (absent) at the front of queue `q`; may rehash.
  Index insertFront(BlockId id, std::uint8_t q);
  /// Unlink and remove entry `i`; later cells may shift.
  void erase(Index i) noexcept;
  /// Relink entry `i` at the front of queue `q` (cells do not move).
  void moveToFront(Index i, std::uint8_t q) noexcept {
    unlink(i);
    linkFront(i, q);
  }
  /// Drop every entry (the table keeps its size).
  void clear() noexcept;

  Index front(std::uint8_t q) const noexcept { return queues_[q].front; }
  Index back(std::uint8_t q) const noexcept { return queues_[q].back; }
  std::size_t queueSize(std::uint8_t q) const noexcept {
    return queues_[q].size;
  }
  std::size_t size() const noexcept { return size_; }

  /// Every cell, empty ones included (id == kInvalidBlock), in table
  /// order — the order flush() and audit() walk.
  std::span<Entry> cells() noexcept { return cells_; }
  std::span<const Entry> cells() const noexcept { return cells_; }

 private:
  struct QueueEnds {
    Index front = kNil;
    Index back = kNil;
    std::size_t size = 0;
  };

  Index home(BlockId id) const noexcept {
    return static_cast<Index>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  // Inline: a hit's relink is the cache's hottest path.
  void linkFront(Index i, std::uint8_t q) noexcept {
    QueueEnds& ends = queues_[q];
    Entry& e = cells_[i];
    e.queue = q;
    e.prev = kNil;
    e.next = ends.front;
    if (ends.front != kNil) {
      cells_[ends.front].prev = i;
    } else {
      ends.back = i;
    }
    ends.front = i;
    ++ends.size;
  }
  void unlink(Index i) noexcept {
    Entry& e = cells_[i];
    QueueEnds& ends = queues_[e.queue];
    if (e.prev != kNil) {
      cells_[e.prev].next = e.next;
    } else {
      ends.front = e.next;
    }
    if (e.next != kNil) {
      cells_[e.next].prev = e.prev;
    } else {
      ends.back = e.prev;
    }
    --ends.size;
  }
  /// First empty cell of `id`'s probe run.
  Index freeCellFor(BlockId id) const noexcept;
  void rehash(std::size_t cell_count);

  std::vector<Entry> cells_;
  Index mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
  std::array<QueueEnds, kQueues> queues_{};
};

}  // namespace exthash::extmem
