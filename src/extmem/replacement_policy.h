// Cache-replacement strategies for BlockCache.
//
// The caching ablation showed plain LRU collapsing on the bucket-grouped
// access runs the batch fast paths emit: grouping sorts a batch's blocks
// into an ascending sweep, so consecutive batches look like a cyclic scan
// — LRU's worst case (every reuse distance equals the sweep length). The
// fix is a scan-resistant, adaptive policy; BlockCache therefore delegates
// all recency bookkeeping to a ReplacementPolicy of one of three kinds:
//
//   LRU   classic single-queue LRU (the previous behavior).
//   2Q    (Johnson–Shasha): newcomers enter a small FIFO (A1in); only
//         blocks re-referenced AFTER leaving it — observed via the A1out
//         ghost queue — are admitted to the main LRU (Am). One sweep's
//         worth of cold blocks churns through A1in and never displaces
//         the proven-hot set.
//   ARC   (Megiddo–Modha): two resident LRUs, T1 (seen once) and T2 (seen
//         twice+), shadowed by ghost lists B1/B2 of recently evicted ids.
//         A ghost hit in B1 grows the adaptive target p (favor recency),
//         in B2 shrinks it (favor frequency), so the T1/T2 split tracks
//         the workload with no tuning knob.
//
// Contract with BlockCache (the only caller):
//   * the policy's lists are the queues of the cache's CacheDirectory
//     (cache_directory.h): resident entries on the two resident queues,
//     ghosts on the two ghost queues, so the policy mirrors the cache's
//     resident set by construction. The cache finds an entry with one
//     probe and hands its cell to onHit / onMiss;
//   * onMiss fires BEFORE the eviction + insert of a non-resident access,
//     so ghost membership can steer both the victim choice and the
//     admission queue (this is where ARC adapts p and ghost hits count);
//   * chooseEvict must skip entries the query rejects (pinned frames — a
//     live span points into them — and quarantined ones) and may return
//     nullopt when nothing is evictable (the cache then runs over
//     capacity until pins release);
//   * per-access bookkeeping is O(1) and allocation-free: queue moves are
//     relinks inside the directory, whose table is sized for capacity plus
//     the ghost span up front;
//   * ghost lists are metadata, not cached data — but they are memory, so
//     each policy charges its worst-case ghost footprint (kGhostEntryWords
//     per possible ghost id) to the MemoryBudget up front, keeping the
//     hit/miss path free of budget churn and of BudgetExceeded throws.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "extmem/cache_directory.h"
#include "extmem/memory_budget.h"

namespace exthash::extmem {

enum class ReplacementKind { kLru, kTwoQ, kArc };

/// Parse "lru" | "2q" | "arc".
ReplacementKind parseReplacementKind(const std::string& name);
std::string_view replacementKindName(ReplacementKind kind);

/// Model cost of one ghost-list entry in words: the block id, two queue
/// links, and an index slot. Used for the up-front MemoryBudget charge.
inline constexpr std::size_t kGhostEntryWords = 4;

/// Non-owning predicate ref ("is this resident entry evictable right
/// now?"). A function pointer + context, so building one on the eviction
/// path never allocates the way a std::function might.
class EvictableQuery {
 public:
  using Entry = CacheDirectory::Entry;

  template <class F>
  EvictableQuery(const F& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(&fn), call_([](const void* ctx, const Entry& entry) {
          return (*static_cast<const F*>(ctx))(entry);
        }) {}

  bool operator()(const Entry& entry) const { return call_(ctx_, entry); }

 private:
  const void* ctx_;
  bool (*call_)(const void*, const Entry&);
};

class ReplacementPolicy {
 public:
  using Entry = CacheDirectory::Entry;
  using Index = CacheDirectory::Index;

  /// A policy over `directory` for a cache of `capacity_blocks` frames.
  /// Ghost metadata (2Q's A1out, ARC's B1/B2) is charged to `budget` for
  /// the policy's lifetime at its worst-case size.
  ReplacementPolicy(ReplacementKind kind, CacheDirectory& directory,
                    MemoryBudget& budget, std::size_t capacity_blocks);

  /// A resident entry was touched (read hit, write hit, or a
  /// write-through refresh — any event the cache counts as a use).
  void onHit(Index i) noexcept {
    switch (kind_) {
      case ReplacementKind::kLru:
        dir_.moveToFront(i, CacheDirectory::kRecent);
        break;
      case ReplacementKind::kTwoQ:
        // A1in hits are deliberately ignored (correlated references — the
        // 2Q paper's point); only Am maintains recency order.
        if (dir_[i].queue == CacheDirectory::kFrequent) {
          dir_.moveToFront(i, CacheDirectory::kFrequent);
        }
        break;
      case ReplacementKind::kArc:
        // Any resident re-reference moves the block to the frequency side.
        dir_.moveToFront(i, CacheDirectory::kFrequent);
        break;
    }
  }

  /// A non-resident `id` is about to be fetched (or blind-installed);
  /// `ghost` is its directory entry — a ghost — or kNil. Called before any
  /// chooseEvict/onInsert for that access: ghost hits are counted and
  /// consumed here, and ARC adapts p or trims its ghost lists.
  void onMiss(BlockId id, Index ghost);

  /// `id` becomes resident: add its entry at the front of its admission
  /// queue (the protected one after a ghost hit) and return the entry.
  Index onInsert(BlockId id);

  /// Pick a victim among resident entries with `evictable(entry)` true,
  /// retire it (onto a ghost queue, or out of the directory), and return
  /// a copy of its last resident state. nullopt when every candidate is
  /// rejected.
  std::optional<Entry> chooseEvict(const EvictableQuery& evictable);

  /// The cache's capacity changed (BlockCache::resize — the memory
  /// arbiter's lever). Recomputes capacity-derived quotas (2Q's kin/kout,
  /// ARC's c and clamped p), expires ghost entries beyond the new worst
  /// case, and resizes the up-front ghost charge. Shrinking only releases
  /// budget; growing charges more and may throw BudgetExceeded, in which
  /// case the policy keeps its old quotas. The cache evicts down to the
  /// new capacity itself — the policy only adjusts metadata.
  void resizeCapacity(std::size_t capacity_blocks) {
    retune(capacity_blocks, horizon_);
  }

  /// Size the ghost directories for `frames` even when the current
  /// capacity is smaller (0 = track capacity, the default). Under memory
  /// arbitration the ghosts answer "would a cache of up to the arbiter's
  /// TOTAL have hit?" — gradient information a capacity-sized directory
  /// cannot provide once the cache has been squeezed (its reach shrinks
  /// with it, silencing the very signal that argues for growth). The
  /// extra entries are metadata charged at kGhostEntryWords each — cheap
  /// scouting relative to the frames they arbitrate. May throw
  /// BudgetExceeded (growth), leaving the old horizon in place. No-op for
  /// LRU, which keeps no ghosts.
  void setGhostHorizon(std::size_t frames) { retune(capacity_, frames); }

  std::string_view name() const noexcept { return replacementKindName(kind_); }
  /// Queue tags this policy uses: 1 (LRU), 3 (2Q) or 4 (ARC).
  std::size_t queuesUsed() const noexcept;

  /// Words of ghost metadata currently charged to the MemoryBudget (the
  /// up-front worst-case charge; used by budget reconciliation audits).
  std::size_t chargedWords() const noexcept { return ghost_charge_.words(); }
  /// Accesses that missed residency but hit a ghost list (a strong reuse
  /// signal; zero for LRU).
  std::uint64_t ghostHits() const noexcept { return ghost_hits_; }
  /// Current ghost-list entries (resident-set metadata, not frames).
  std::size_t ghostEntries() const noexcept {
    return dir_.queueSize(CacheDirectory::kRecentGhost) +
           dir_.queueSize(CacheDirectory::kFrequentGhost);
  }
  /// The policy's adaptive balance knob: ARC reports its target p (in
  /// blocks, within [0, capacity]); LRU and 2Q report 0.
  double adaptiveTarget() const noexcept { return p_; }

 private:
  /// Which ghost queue the in-flight miss was found on, if any.
  enum class Pending : std::uint8_t { kNone, kRecentGhost, kFrequentGhost };

  /// Worst-case ghost entries for a capacity and horizon: half of
  /// max(capacity, horizon) for 2Q's A1out, all of it for ARC's B1 + B2.
  std::size_t ghostQuota(std::size_t capacity, std::size_t horizon) const;
  /// Recompute capacity/horizon state. Charge before adopting quotas so a
  /// BudgetExceeded leaves the old state intact; a shrink releases only
  /// after the ghosts are expired.
  void retune(std::size_t capacity, std::size_t horizon);
  /// Expire ghosts until they fit the quota, oldest first, from the
  /// longer list.
  void trimGhosts();
  void expireOldest(std::uint8_t q);
  std::size_t queueSize(std::uint8_t q) const noexcept {
    return dir_.queueSize(q);
  }
  /// Retire the oldest evictable entry of queue `from` onto `ghost` (or
  /// out of the directory for kNoGhost); nullopt if none qualifies.
  std::optional<Entry> evictFrom(std::uint8_t from, std::uint8_t ghost,
                                 const EvictableQuery& evictable);
  static constexpr std::uint8_t kNoGhost = 0xff;

  ReplacementKind kind_;
  CacheDirectory& dir_;
  std::size_t capacity_;
  std::size_t horizon_ = 0;      // 0 = ghosts track capacity
  std::size_t kin_ = 1;          // 2Q: A1in quota, ~25% of the frames
  std::size_t ghost_quota_ = 0;  // see ghostQuota()
  double p_ = 0.0;               // ARC: target size of T1, in [0, c]
  MemoryCharge ghost_charge_;
  Pending pending_ = Pending::kNone;
  BlockId pending_id_ = 0;
  std::uint64_t ghost_hits_ = 0;
};

}  // namespace exthash::extmem
