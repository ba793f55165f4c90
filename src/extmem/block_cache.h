// Block cache layered over a BlockDevice, with pluggable replacement.
//
// Models "use the memory as a cache" instead of "use the memory as an
// insert buffer". Cache hits cost zero I/Os; misses read through (counted
// on the underlying device).
//
// Replacement is a strategy (see extmem/replacement_policy.h): LRU, 2Q, or
// ARC. The batch fast paths emit bucket-grouped — i.e. sorted, cyclically
// sweeping — access runs, which are LRU's worst case below full residency;
// the scan-resistant policies keep the proven-hot set resident through
// those sweeps. The ABL-CACHE ablation quantifies the difference.
//
// Write policies:
//   kWriteThrough — writes go directly to the device (counted rmw); the
//                   cached copy is refreshed afterwards. Reads may hit.
//   kWriteBack    — writes mutate the cached frame only (a miss costs one
//                   read to load it; a blind overwrite costs nothing);
//                   dirty frames reach the device as one counted write on
//                   eviction or flush(). Between flushes the CACHE,
//                   not the device, is authoritative for dirty blocks —
//                   anything that reads the device directly (inspect(),
//                   visitLayout, destroy walks) must flush() first.
//
// Degraded mode under I/O faults (see extmem/fault.h): a write-back that
// fails — the device's retry budget exhausted, or a permanent fault —
// never drops the dirty data. The frame stays dirty and resident and is
// QUARANTINED: excluded from eviction (like a pinned frame, so the
// replacement policy's bookkeeping stays exact) while the cache runs over
// capacity if it must. flush() re-attempts every dirty frame, quarantined
// ones included, un-quarantining those that finally reach the device; if
// any still fail, flush() throws the first IoError after attempting all,
// so the flush barrier reports the fault while the data stays safe for
// the next barrier after the fault clears. flush() writes runs of
// consecutive blocks (BlockDevice::withOverwriteRun), and a failed run
// quarantines only the frame its error names: the frames before it
// landed, and the ones after it are re-attempted one block at a time, so
// a flush fills each frame at most twice even when every write fails.
// Eviction write-backs stay single-block.
//
// Telemetry contract: hits() and misses() count block USES through the
// cache, not device reads. A hit found (or, on the write-through refresh
// path, updated) a resident frame; a miss found none. In particular
// refreshFromDevice — the uncounted refresh after a write-through device
// write — records a hit when the frame is resident and a miss (with a
// write-allocate install of the just-written contents, at zero counted
// I/O) when it is not, so write-through recency statistics and cache
// population match write-back, whose write path goes through fetch and
// counts the same way. ghostHits() and adaptiveTarget() surface the
// replacement policy's internals (see replacement_policy.h).
//
// The paper's lower bound applies to caching as a special case of
// buffering — the ABL-CACHE ablation benchmark quantifies that. The cache
// charges the memory budget for its frames, and the policy charges its
// ghost-list metadata on top.
//
// Layout: one CacheDirectory (cache_directory.h) indexes resident frames
// and the policy's ghosts alike — a hit is one probe and a queue relink —
// and frames are fixed wordsPerBlock() slots in chunk-stable slabs with a
// free list, so spans handed to callbacks stay valid while nested
// accesses admit and evict other frames, and steady-state misses
// allocate nothing. A miss reads into a spare slot before it evicts, so
// the device sees the read ahead of the victim's write-back.
//
// Threading: the cache is thread-COMPATIBLE, not thread-safe — it holds
// no mutex by design (the hot path is one directory probe and a relink,
// and every deployment already serializes it externally: each instance is
// touched only by its owning shard thread inside a batch, or by the one
// pipeline worker; resizes happen at quiescent points only, see
// resize()). There is deliberately nothing to annotate for
// -Wthread-safety here; the compile-time-verified locks live in
// ThreadPool and IngestPipeline (util/thread_annotations.h), whose
// serialization is what makes this contract hold. audit() checks the
// structure those serialized users maintain.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/replacement_policy.h"
#include "util/audit.h"

namespace exthash::extmem {

namespace detail {

/// invoke `call`, then `after`, propagating call's result (which may be
/// void) — the write-through "device op, then refresh the frame" shape.
template <class Call, class After>
decltype(auto) invokeThen(Call&& call, After&& after) {
  if constexpr (std::is_void_v<decltype(call())>) {
    std::forward<Call>(call)();
    std::forward<After>(after)();
  } else {
    auto result = std::forward<Call>(call)();
    std::forward<After>(after)();
    return result;
  }
}

}  // namespace detail

class BlockCache {
 public:
  enum class WritePolicy { kWriteThrough, kWriteBack };

  BlockCache(BlockDevice& device, MemoryBudget& budget,
             std::size_t capacity_blocks,
             WritePolicy policy = WritePolicy::kWriteThrough,
             ReplacementKind replacement = ReplacementKind::kLru);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Counted read via the cache: hit = 0 I/O, miss = 1 read on the device.
  ///
  /// The frame is PINNED for the duration of fn: the tables' guarded
  /// scopes allocate and write fresh blocks while holding a span into the
  /// current block (the chain-rewrite idiom, safe on the chunk-stable
  /// device), so a nested cache access must never evict — and destroy —
  /// the frame the outer span points into. Pinned frames are skipped by
  /// eviction; the cache may exceed capacity by the nesting depth until
  /// the next unpinned access shrinks it back.
  template <class F>
  decltype(auto) withRead(BlockId id, F&& fn) {
    const std::uint32_t slot = fetch(id, /*mark_dirty=*/false);
    const PinGuard pin(pins_, slot);
    return std::forward<F>(fn)(
        std::span<const Word>(frames_[slot], words_per_block_));
  }

  /// Counted read-modify-write via the cache (policy-dependent, see the
  /// file comment). Propagates fn's return value. Write-back pins the
  /// frame across fn (see withRead).
  template <class F>
  decltype(auto) withWrite(BlockId id, F&& fn) {
    if (policy_ == WritePolicy::kWriteThrough) {
      // Straight to the device (one rmw), then refresh any cached copy so
      // future hits observe the new contents.
      return detail::invokeThen(
          [&]() -> decltype(auto) {
            return device_.withWrite(id, std::forward<F>(fn));
          },
          [&] { refreshFromDevice(id); });
    }
    const std::uint32_t slot = fetch(id, /*mark_dirty=*/true);
    const PinGuard pin(pins_, slot);
    return std::forward<F>(fn)(
        std::span<Word>(frames_[slot], words_per_block_));
  }

  /// Counted blind write via the cache. Write-through: one counted device
  /// write, then refresh. Write-back: installs a zeroed dirty frame with
  /// NO device I/O at all (the previous contents are irrelevant, so a miss
  /// needs no read); the single counted write happens at eviction/flush.
  /// Write-back pins the frame across fn (see withRead).
  template <class F>
  decltype(auto) withOverwrite(BlockId id, F&& fn) {
    if (policy_ == WritePolicy::kWriteThrough) {
      return detail::invokeThen(
          [&]() -> decltype(auto) {
            return device_.withOverwrite(id, std::forward<F>(fn));
          },
          [&] { refreshFromDevice(id); });
    }
    const std::uint32_t slot = installZeroed(id);
    const PinGuard pin(pins_, slot);
    return std::forward<F>(fn)(
        std::span<Word>(frames_[slot], words_per_block_));
  }

  /// Flush all dirty frames (write-back mode) to the device in ascending
  /// block order, re-attempting quarantined ones. Each run of consecutive
  /// dirty ids is one withOverwriteRun — one counted write per block, and
  /// one pwrite per arena chunk on a file-backed device. A frame whose
  /// block the owner freed is dropped. After a successful flush the device
  /// is authoritative for every resident block. If a run faults, the
  /// frames before the block the error names are clean, that frame is
  /// quarantined (data retained), the rest of the run goes again one
  /// block at a time, and the first IoError is rethrown after every frame
  /// was attempted. Allocates nothing beyond its reused scratch list.
  void flush();

  /// Re-target the cache to `capacity_blocks` frames at runtime — the
  /// memory arbiter's lever (see extmem/memory_arbiter.h). Growing admits
  /// frames lazily (capacity + budget charge rise now; frames fill on
  /// future misses) and may throw BudgetExceeded with the old capacity
  /// intact. Shrinking flush-and-evicts from the policy's coldest tail:
  /// dirty victims are written back (counted device writes), pinned
  /// frames are skipped — the cache then runs over the new capacity until
  /// the pin nesting unwinds, and that transient residency stays charged.
  /// resize(0) is allowed (the shrink-to-nothing edge an arbiter can
  /// reach): every subsequent access still completes, holding at most the
  /// one frame it is using, which the next access evicts.
  /// NOT thread-safe against concurrent cache users — callers serialize
  /// resizes with accesses and flushes (the pipeline's maintenance-task
  /// hook is the provided quiescent point).
  void resize(std::size_t capacity_blocks);

  /// Widen the replacement policy's ghost directories to scout at
  /// `frames` even when the current capacity is smaller (see
  /// replacement_policy.h). The memory arbiter sets this to its total so
  /// a squeezed cache keeps producing ghost hits — the evidence that
  /// growing it back would pay. No-op for ghostless policies (LRU).
  void setGhostHorizon(std::size_t frames) {
    replacement_.setGhostHorizon(frames);
  }

  /// Drop a block from the cache (e.g. after the owner frees it). Dirty
  /// contents are discarded — a freed block's data must never be written
  /// over a reused id. Ghost-list entries for the id are dropped too, so
  /// id reuse cannot fake a reuse signal to the policy.
  void invalidate(BlockId id);

  /// Drop EVERY frame and every ghost without any write-back — the
  /// recovery primitive: after a crash the device image has been rewound
  /// underneath the cache, so every cached byte (dirty or clean) is a
  /// stale view of a world that no longer exists. Requires a quiescent
  /// point: with any frame pinned it throws CheckFailure and changes
  /// nothing. Counters (hits/misses/writebacks) survive; dirty/quarantine
  /// accounting resets with the frames.
  void discardAll();

  /// Refresh the cached copy of `id` from the device (uncounted). Used by
  /// write paths that hit the device directly so later cached reads
  /// observe the new contents — the write is a genuine use of the block,
  /// so it counts in the hit/miss telemetry and as a policy touch (see
  /// the file comment): resident = hit + promote, non-resident = miss +
  /// write-allocate install of the written contents.
  void refreshFromDevice(BlockId id);

  WritePolicy policy() const noexcept { return policy_; }
  ReplacementKind replacementKind() const noexcept { return replacement_kind_; }
  BlockDevice& device() const noexcept { return device_; }

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  /// Dirty frames written to the device so far (evictions + flushes).
  std::uint64_t writebacks() const noexcept { return writebacks_; }
  /// Frames evicted so far. A victim whose write-back faulted stays
  /// resident, quarantined, and is not counted.
  std::uint64_t evictions() const noexcept { return evictions_; }
  /// Write-backs that faulted past the device's retry budget (each one
  /// quarantined a frame; a later successful flush un-quarantines it).
  std::uint64_t writebackFailures() const noexcept {
    return writeback_failures_;
  }
  /// Frames currently quarantined (dirty, excluded from eviction).
  std::size_t quarantinedFrames() const noexcept {
    return quarantined_frames_;
  }
  /// Quarantined frames that crossed the consecutive-failure threshold
  /// (see setQuarantineGiveUpThreshold): each one made a later flush()
  /// surface a PermanentIoError instead of looping silently.
  std::uint64_t quarantineGaveUp() const noexcept {
    return quarantine_gave_up_;
  }
  /// After `n` CONSECUTIVE failed write-back attempts of the same frame,
  /// flush() escalates: the barrier throws PermanentIoError (even when
  /// the underlying faults were transient) and quarantine_gave_up counts
  /// the frame. The frame's data is still retained and still re-attempted
  /// at later barriers — give-up changes what the caller is told, not
  /// what the cache protects. A successful write-back resets the streak.
  void setQuarantineGiveUpThreshold(std::uint32_t n) noexcept {
    give_up_threshold_ = n == 0 ? 1 : n;
  }
  /// Misses that hit the policy's ghost directory (see
  /// replacement_policy.h; always 0 for LRU).
  std::uint64_t ghostHits() const noexcept { return replacement_.ghostHits(); }
  /// The policy's adaptive balance target (ARC's p, in blocks; 0 for
  /// non-adaptive policies).
  double adaptiveTarget() const noexcept {
    return replacement_.adaptiveTarget();
  }
  double hitRate() const noexcept {
    const double total = static_cast<double>(hits_ + misses_);
    return total > 0 ? static_cast<double>(hits_) / total : 0.0;
  }
  std::size_t capacityBlocks() const noexcept { return capacity_blocks_; }
  std::size_t residentBlocks() const noexcept {
    return dir_.queueSize(CacheDirectory::kRecent) +
           dir_.queueSize(CacheDirectory::kFrequent);
  }
  std::size_t dirtyBlocks() const noexcept { return dirty_blocks_; }
  std::size_t ghostEntries() const noexcept {
    return replacement_.ghostEntries();
  }
  /// Words this cache charges to the budget for its frames (the
  /// replacement policy charges its ghost directories separately).
  std::size_t chargedWords() const noexcept { return charge_.words(); }

  /// Cross-subsystem audit (see util/audit.h), one walk of the directory:
  /// the index reaches every entry; residents own distinct frame slots
  /// and sit on resident queues, ghosts on ghost queues; the queue links
  /// and sizes add up; no slot leaks; dirty/quarantine/pin accounting;
  /// and the budget charge reconciliation charge == max(capacity,
  /// residency) · wordsPerBlock. Must run at a quiescent point — no
  /// access in flight, no frame pinned (pinned frames are reported as
  /// findings).
  void audit(AuditReport& report) const;

  /// Add this cache's counters and occupancy gauges to `registry`
  /// (obs/metrics.h): exthash_cache_{hits,misses,evictions,writebacks,
  /// writeback_failures,quarantine_gave_up}_total and
  /// exthash_cache_{capacity,resident,dirty,quarantined}_frames. Call at
  /// a quiescent point, like audit().
  void collect(obs::MetricsRegistry& registry) const;

 private:
  using Entry = CacheDirectory::Entry;
  using Index = CacheDirectory::Index;

  /// RAII pin for the duration of a callback (exception-safe). It holds
  /// the frame SLOT, not the directory entry: nested accesses may shift
  /// or rehash entries, but a pinned frame's slot never moves.
  class PinGuard {
   public:
    PinGuard(std::vector<std::uint32_t>& pins, std::uint32_t slot)
        : pins_(pins), slot_(slot) {
      ++pins_[slot_];
    }
    ~PinGuard() { --pins_[slot_]; }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;

   private:
    std::vector<std::uint32_t>& pins_;
    std::uint32_t slot_;
  };

  /// One slab allocation: frames for slots [first_slot, next chunk's).
  struct Chunk {
    std::unique_ptr<Word[]> words;
    std::uint32_t first_slot;
  };

  /// The frame slot holding `id`, fetched on a miss (one counted read).
  std::uint32_t fetch(BlockId id, bool mark_dirty);
  /// Resident-or-new zeroed frame for a blind write (write-back only):
  /// never reads the device, always leaves the frame dirty.
  std::uint32_t installZeroed(BlockId id);
  /// Admit non-resident `id` (`ghost` is its ghost entry, or kNil): the
  /// policy sees the miss, `fill(frame)` fills a spare slot — before any
  /// eviction, so a fill's device read precedes the victim's write-back —
  /// then the cache evicts down to capacity and the policy queues the
  /// new entry. Returns the frame slot.
  template <class Fill>
  std::uint32_t admit(BlockId id, Index ghost, bool dirty, Fill&& fill);
  void growSlab();
  /// After a shrink: move unpinned frames out of the slab's trailing
  /// chunks and free those chunks (skipped while any of them is pinned).
  void trimSlab();
  /// Keep the budget charge in step with max(capacity, residency) so
  /// transient pin-driven over-capacity is accounted like any memory.
  void rechargeForResidency();
  void markDirty(Entry& entry);
  void quarantine(Entry& entry);
  /// Ask the policy for an unpinned, unquarantined victim and evict it;
  /// false if every resident frame is rejected (the cache then runs over
  /// capacity until pins unwind / a flush clears the quarantine). A
  /// victim whose write-back faults is quarantined in place (re-entered
  /// into the policy's resident set) and counts as progress: the next
  /// call cannot choose it again.
  bool evictOne();
  /// Flush path: a dirty frame landed — clear it and its fault state.
  void markClean(Entry& entry);
  /// Eviction's counted single-block write of frame `slot` to block `id`.
  void writeFrame(BlockId id, std::uint32_t slot);

  // Corruption-seeding hook for the audit mutation tests (defined in
  // tests/test_audit.cpp); production code never touches it.
  friend struct AuditPeer;

  BlockDevice& device_;
  std::size_t words_per_block_;
  MemoryCharge charge_;
  std::size_t capacity_blocks_;
  WritePolicy policy_;
  ReplacementKind replacement_kind_;
  CacheDirectory dir_;
  ReplacementPolicy replacement_;
  // The frame slab: slot -> frame words and pin depth, plus the free slots
  // (a stack). A frame keeps its slot while resident, except that
  // trimSlab() moves unpinned frames down before it frees chunks.
  std::vector<Chunk> chunks_;
  std::vector<Word*> frames_;
  std::vector<std::uint32_t> pins_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Index> flush_order_;  // flush()'s scratch, kept for reuse
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t writeback_failures_ = 0;
  std::uint64_t quarantine_gave_up_ = 0;
  std::uint32_t give_up_threshold_ = 8;
  std::size_t dirty_blocks_ = 0;
  std::size_t quarantined_frames_ = 0;
};

}  // namespace exthash::extmem
