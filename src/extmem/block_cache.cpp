#include "extmem/block_cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/assert.h"

namespace exthash::extmem {

namespace {
// Slab chunks hold about this many bytes of frames (at least one frame).
constexpr std::size_t kChunkBytes = 64 * 1024;
}  // namespace

BlockCache::BlockCache(BlockDevice& device, MemoryBudget& budget,
                       std::size_t capacity_blocks, WritePolicy policy,
                       ReplacementKind replacement)
    : device_(device),
      words_per_block_(device.wordsPerBlock()),
      charge_(budget, capacity_blocks * words_per_block_),
      capacity_blocks_(capacity_blocks),
      policy_(policy),
      replacement_kind_(replacement),
      dir_(capacity_blocks),  // the policy reserves its ghosts on top
      replacement_(replacement, dir_, budget, capacity_blocks) {
  EXTHASH_CHECK(capacity_blocks >= 1);
}

BlockCache::~BlockCache() {
  try {
    flush();
  } catch (...) {
    // A write-back faulting during teardown has nowhere to report; the
    // explicit flush barriers are where callers observe it.
  }
}

void BlockCache::markDirty(Entry& entry) {
  if (!entry.dirty) {
    entry.dirty = true;
    ++dirty_blocks_;
  }
}

void BlockCache::rechargeForResidency() {
  // The paper's m-word model sees every resident frame: pinned frames can
  // push residency past capacity for a nesting's duration, and that
  // transient memory is charged too (and released as eviction drains it).
  charge_.resize(std::max(capacity_blocks_, residentBlocks()) *
                 words_per_block_);
}

void BlockCache::growSlab() {
  // Enough chunks for capacity + 1 frames (the +1 is the miss's spare);
  // past that, pins are holding frames over capacity, one slot per chunk.
  const std::size_t total = frames_.size();
  const std::size_t wanted =
      capacity_blocks_ + 1 > total ? capacity_blocks_ + 1 - total : 1;
  const std::size_t per_chunk = std::max<std::size_t>(
      1, kChunkBytes / (words_per_block_ * sizeof(Word)));
  const std::size_t count = std::min(wanted, per_chunk);
  chunks_.push_back(
      {std::make_unique_for_overwrite<Word[]>(count * words_per_block_),
       static_cast<std::uint32_t>(total)});
  Word* words = chunks_.back().words.get();
  for (std::size_t i = 0; i < count; ++i) {
    frames_.push_back(words + i * words_per_block_);
    pins_.push_back(0);
  }
  // Lowest slot on top of the stack.
  for (std::size_t i = count; i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(total + i));
  }
}

void BlockCache::trimSlab() {
  const std::size_t keep = std::max(capacity_blocks_, residentBlocks()) + 1;
  std::size_t kept_chunks = chunks_.size();
  while (kept_chunks > 0 && chunks_[kept_chunks - 1].first_slot >= keep) {
    --kept_chunks;
  }
  if (kept_chunks == chunks_.size()) return;
  const std::uint32_t boundary = chunks_[kept_chunks].first_slot;
  for (std::size_t slot = boundary; slot < pins_.size(); ++slot) {
    if (pins_[slot] != 0) return;
  }
  // The kept chunks hold boundary >= keep > residency slots, so the free
  // slots below the boundary can take every frame above it.
  std::erase_if(free_slots_,
                [boundary](std::uint32_t slot) { return slot >= boundary; });
  for (Entry& e : dir_.cells()) {
    if (!e.resident() || e.slot < boundary) continue;
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    std::copy_n(frames_[e.slot], words_per_block_, frames_[slot]);
    e.slot = slot;
  }
  chunks_.resize(kept_chunks);
  frames_.resize(boundary);
  pins_.resize(boundary);
}

template <class Fill>
std::uint32_t BlockCache::admit(BlockId id, Index ghost, bool dirty,
                                Fill&& fill) {
  replacement_.onMiss(id, ghost);  // ghost lookup / adaptation, pre-eviction
  if (free_slots_.empty()) growSlab();
  const std::uint32_t slot = free_slots_.back();
  fill(frames_[slot]);  // may throw: the slot is taken only after it
  free_slots_.pop_back();
  // Shrink to capacity first (this also drains any over-capacity frames
  // left behind while everything evictable was pinned).
  while (residentBlocks() >= capacity_blocks_ && evictOne()) {
  }
  Entry& entry = dir_[replacement_.onInsert(id)];
  entry.slot = slot;
  if (dirty) markDirty(entry);
  rechargeForResidency();
  return slot;
}

std::uint32_t BlockCache::fetch(BlockId id, bool mark_dirty) {
  const Index i = dir_.find(id);
  if (i != CacheDirectory::kNil && dir_[i].resident()) {
    ++hits_;
    replacement_.onHit(i);
    Entry& entry = dir_[i];
    if (mark_dirty) markDirty(entry);
    return entry.slot;
  }

  ++misses_;
  return admit(id, i, mark_dirty, [&](Word* frame) {
    device_.withRead(id, [&](std::span<const Word> data) {
      std::copy(data.begin(), data.end(), frame);
    });
  });
}

std::uint32_t BlockCache::installZeroed(BlockId id) {
  // Either branch costs zero device I/O (the caller overwrites
  // everything, so the device copy is never needed), which is what the
  // hit telemetry counts; the policy still sees a non-resident install as
  // a miss-admission so its queues mirror residency.
  ++hits_;
  const Index i = dir_.find(id);
  if (i != CacheDirectory::kNil && dir_[i].resident()) {
    replacement_.onHit(i);
    Entry& entry = dir_[i];
    std::fill_n(frames_[entry.slot], words_per_block_, Word{0});
    markDirty(entry);
    return entry.slot;
  }
  return admit(id, i, /*dirty=*/true, [&](Word* frame) {
    std::fill_n(frame, words_per_block_, Word{0});
  });
}

void BlockCache::quarantine(Entry& entry) {
  ++writeback_failures_;
  if (!entry.quarantined) {
    entry.quarantined = true;
    ++quarantined_frames_;
  }
  // Give-up endgame: N consecutive failures escalate the NEXT flush
  // barrier to a PermanentIoError (see the header). Counted once per
  // streak; a successful write-back resets both (markClean()).
  if (++entry.failures >= give_up_threshold_ && !entry.gave_up) {
    entry.gave_up = true;
    ++quarantine_gave_up_;
  }
}

void BlockCache::writeFrame(BlockId id, std::uint32_t slot) {
  const Word* frame = frames_[slot];
  device_.withOverwrite(id, [&](std::span<Word> data) {
    std::copy_n(frame, words_per_block_, data.begin());
  });
  ++writebacks_;
}

void BlockCache::markClean(Entry& entry) {
  entry.dirty = false;
  --dirty_blocks_;
  if (entry.quarantined) {
    entry.quarantined = false;
    --quarantined_frames_;
  }
  entry.failures = 0;
  entry.gave_up = false;
}

bool BlockCache::evictOne() {
  const auto evictable = [this](const Entry& entry) {
    return !entry.quarantined && pins_[entry.slot] == 0;
  };
  const std::optional<Entry> victim = replacement_.chooseEvict(evictable);
  if (!victim) return false;
  if (victim->dirty && device_.isAllocated(victim->id)) {
    try {
      writeFrame(victim->id, victim->slot);
    } catch (const IoError&) {
      // Degraded mode: the dirty data survives in the frame. chooseEvict
      // already retired the victim (possibly into a ghost list), so
      // re-enter it as resident — scrubbing any ghost entry first,
      // keeping the directory's one-entry-per-id rule — and quarantine it
      // so the next chooseEvict cannot propose it again. That makes a
      // faulted eviction still count as progress for the caller's loop.
      // (An evictable frame is never quarantined, so it carries no
      // failure streak to restore.)
      const Index ghost = dir_.find(victim->id);
      if (ghost != CacheDirectory::kNil) dir_.erase(ghost);
      Entry& entry = dir_[replacement_.onInsert(victim->id)];
      entry.slot = victim->slot;
      entry.dirty = true;
      quarantine(entry);
      return true;
    }
  }
  if (victim->dirty) --dirty_blocks_;
  free_slots_.push_back(victim->slot);
  rechargeForResidency();
  ++evictions_;
  return true;
}

void BlockCache::flush() {
  // Attempt EVERY dirty frame before reporting, so one bad sector cannot
  // stop the rest of the barrier from landing; quarantined frames are
  // re-attempted here (this is their road back after the fault clears).
  std::exception_ptr first_error;
  BlockId gave_up_block = kInvalidBlock;
  // Land the frames in ascending block order, whatever cells the
  // directory hashed them to: each run of consecutive ids is one device
  // run — one pwrite per arena chunk on a file-backed device.
  const auto cells = dir_.cells();
  flush_order_.clear();
  for (Index i = 0; i < cells.size(); ++i) {
    if (cells[i].resident() && cells[i].dirty) flush_order_.push_back(i);
  }
  std::sort(flush_order_.begin(), flush_order_.end(),
            [&](Index a, Index b) { return cells[a].id < cells[b].id; });
  const auto entryAt = [&](std::size_t k) -> Entry& {
    return cells[flush_order_[k]];
  };
  // The rest of a failed run, up to this flush_order_ index, goes one
  // block at a time: re-running it as a run would re-fill every frame of
  // it once per failing block — O(run²) copies under a dead disk.
  std::size_t singles_end = 0;
  std::size_t begin = 0;
  while (begin < flush_order_.size()) {
    Entry& head = entryAt(begin);
    if (!device_.isAllocated(head.id)) {
      // Owner freed the block; drop silently.
      head.dirty = false;
      --dirty_blocks_;
      ++begin;
      continue;
    }
    // The run: consecutive, still-allocated ids from head.
    const BlockId first = head.id;
    std::size_t count = 1;
    while (begin >= singles_end && begin + count < flush_order_.size() &&
           entryAt(begin + count).id == first + count &&
           device_.isAllocated(first + count)) {
      ++count;
    }
    // Device write FIRST, bookkeeping after: a frame the run did not land
    // must still read as dirty (the cached copy is the only surviving one).
    std::size_t landed = count;
    try {
      device_.withOverwriteRun(
          first, count, [&](std::size_t i, std::span<Word> data) {
            std::copy_n(frames_[entryAt(begin + i).slot], words_per_block_,
                        data.begin());
          });
    } catch (const IoError& error) {
      // Every block before the one the error names landed. That frame is
      // quarantined; the rest of the run goes again, block by block.
      singles_end = std::max(singles_end, begin + count);
      const BlockId named = error.block();
      EXTHASH_CHECK_MSG(named >= first && named - first < count,
                        "run [" << first << ", " << first + count
                                << ") failed naming block " << named);
      landed = named - first;
      Entry& failed = entryAt(begin + landed);
      quarantine(failed);
      if (failed.gave_up && gave_up_block == kInvalidBlock) {
        gave_up_block = named;
      }
      if (!first_error) first_error = std::current_exception();
    }
    for (std::size_t k = begin; k < begin + landed; ++k) markClean(entryAt(k));
    writebacks_ += landed;
    begin += std::min(landed + 1, count);  // past the run or the failure
  }
  // Escalation outranks the raw fault: a frame past the give-up threshold
  // makes the barrier permanent even if each individual fault was
  // transient — "keep retrying forever" is not an answer the caller can
  // act on. The data itself is still retained and re-attempted later.
  if (gave_up_block != kInvalidBlock) {
    throw PermanentIoError(
        IoOpKind::kWrite, gave_up_block, give_up_threshold_,
        "write-back quarantine gave up after repeated failures");
  }
  if (first_error) std::rethrow_exception(first_error);
}

void BlockCache::discardAll() {
  // Reject a pinned frame BEFORE touching any state (as invalidate does):
  // the CheckFailure is catchable, and a half-dropped cache would leave
  // the policy's queues disagreeing with the frames.
  for (const Entry& entry : dir_.cells()) {
    EXTHASH_CHECK_MSG(!entry.resident() || pins_[entry.slot] == 0,
                      "discardAll while a callback holds block "
                          << entry.id);
  }
  dir_.clear();
  free_slots_.clear();
  for (std::size_t slot = frames_.size(); slot-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
  }
  dirty_blocks_ = 0;
  quarantined_frames_ = 0;
  rechargeForResidency();
}

void BlockCache::resize(std::size_t capacity_blocks) {
  if (capacity_blocks == capacity_blocks_) return;
  if (capacity_blocks > capacity_blocks_) {
    // Grow: charge the policy's larger ghost directory and the new frames
    // up front. Either charge may throw BudgetExceeded; the rollback
    // leaves capacity, charge, and policy quotas at their old values.
    const std::size_t old_capacity = capacity_blocks_;
    replacement_.resizeCapacity(capacity_blocks);
    capacity_blocks_ = capacity_blocks;
    try {
      rechargeForResidency();
    } catch (...) {
      capacity_blocks_ = old_capacity;
      replacement_.resizeCapacity(old_capacity);
      throw;
    }
    return;
  }
  // Shrink: flush-and-evict the policy's coldest tail down to the new
  // capacity (skipping pinned frames — see the header), then let the
  // policy trim ghosts and release its charge, and hand back the slab
  // chunks the smaller cache no longer needs.
  capacity_blocks_ = capacity_blocks;
  while (residentBlocks() > capacity_blocks_ && evictOne()) {
  }
  rechargeForResidency();
  replacement_.resizeCapacity(capacity_blocks);
  trimSlab();
}

void BlockCache::invalidate(BlockId id) {
  const Index i = dir_.find(id);
  if (i == CacheDirectory::kNil) return;
  const Entry entry = dir_[i];
  // Reject pinned frames BEFORE touching any state: the CheckFailure is
  // documented as catchable, and a partial invalidation would leave the
  // policy desynced from the resident set.
  EXTHASH_CHECK_MSG(!entry.resident() || pins_[entry.slot] == 0,
                    "invalidating block " << id
                        << " while a callback holds its span");
  // Drop the entry even for a non-resident id — it may be a ghost, and
  // the owner is about to recycle the id.
  dir_.erase(i);
  if (!entry.resident()) return;
  if (entry.dirty) --dirty_blocks_;
  if (entry.quarantined) --quarantined_frames_;
  free_slots_.push_back(entry.slot);
  rechargeForResidency();
}

void BlockCache::refreshFromDevice(BlockId id) {
  const Index i = dir_.find(id);
  if (i != CacheDirectory::kNil && dir_[i].resident()) {
    ++hits_;
    Entry& entry = dir_[i];
    const auto data = device_.inspect(id);
    std::copy(data.begin(), data.end(), frames_[entry.slot]);
    if (entry.dirty) {
      entry.dirty = false;
      --dirty_blocks_;
    }
    // The write is a use of the block: promote it so a hot written page
    // cannot be evicted ahead of a cold read page.
    replacement_.onHit(i);
    return;
  }
  // Write-allocate: the device write that triggered this refresh was a
  // genuine use of a block the cache did not hold, so it counts as a miss
  // and installs the freshly written contents — at zero additional device
  // I/O (the counted I/O was the write itself; the copy-in is the same
  // uncounted transfer as the resident refresh above). This is what makes
  // write-through recency and hit/miss telemetry match write-back, whose
  // write path fetches and admits the same way.
  ++misses_;
  admit(id, i, /*dirty=*/false, [&](Word* frame) {
    const auto data = device_.inspect(id);
    std::copy(data.begin(), data.end(), frame);
  });
}

void BlockCache::collect(obs::MetricsRegistry& registry) const {
  registry.counter("exthash_cache_hits_total").inc(hits_);
  registry.counter("exthash_cache_misses_total").inc(misses_);
  registry.counter("exthash_cache_evictions_total").inc(evictions_);
  registry.counter("exthash_cache_writebacks_total").inc(writebacks_);
  registry.counter("exthash_cache_writeback_failures_total")
      .inc(writeback_failures_);
  registry.counter("exthash_cache_quarantine_gave_up_total")
      .inc(quarantine_gave_up_);
  registry.gauge("exthash_cache_capacity_frames")
      .set(static_cast<double>(capacity_blocks_));
  registry.gauge("exthash_cache_resident_frames")
      .set(static_cast<double>(residentBlocks()));
  registry.gauge("exthash_cache_dirty_frames")
      .set(static_cast<double>(dirty_blocks_));
  registry.gauge("exthash_cache_quarantined_frames")
      .set(static_cast<double>(quarantined_frames_));
}

void BlockCache::audit(AuditReport& report) const {
  const char* kComponent = "block-cache";
  const std::size_t queues_used = replacement_.queuesUsed();

  // Slot ownership: every slot is free or owned by exactly one resident.
  enum : std::uint8_t { kUnseen, kFree, kOwned };
  std::vector<std::uint8_t> slot_state(frames_.size(), kUnseen);
  for (const std::uint32_t slot : free_slots_) {
    const bool fresh = slot < slot_state.size() && slot_state[slot] == kUnseen;
    EXTHASH_AUDIT_EXPECT(report, kComponent, fresh,
                         "free slot " << slot
                                      << " is out of range or listed twice");
    if (fresh) slot_state[slot] = kFree;
  }

  // One walk of the directory.
  std::size_t per_queue[CacheDirectory::kQueues] = {};
  std::size_t live = 0;
  std::size_t dirty = 0;
  std::size_t quarantined = 0;
  const auto cells = dir_.cells();
  for (Index i = 0; i < cells.size(); ++i) {
    const Entry& e = cells[i];
    if (e.id == kInvalidBlock) continue;
    ++live;
    EXTHASH_AUDIT_EXPECT(report, kComponent, dir_.find(e.id) == i,
                         "entry " << e.id << " at cell " << i
                                  << " is out of reach of its probe run");
    EXTHASH_AUDIT_EXPECT(report, kComponent, e.queue < queues_used,
                         "entry " << e.id << " on queue " << int{e.queue}
                                  << ", policy " << replacement_.name()
                                  << " uses " << queues_used);
    if (e.queue < CacheDirectory::kQueues) ++per_queue[e.queue];
    const bool ghost_queue = CacheDirectory::isGhostQueue(e.queue);
    if (!e.resident()) {
      // Ghosts are evicted-id memory: a ghost on a resident queue is a
      // frame the policy believes resident but the cache does not hold.
      EXTHASH_AUDIT_EXPECT(report, kComponent, ghost_queue,
                           "entry " << e.id << " sits on resident queue "
                                    << int{e.queue} << " without a frame");
      EXTHASH_AUDIT_EXPECT(report, kComponent,
                           !e.dirty && !e.quarantined && e.failures == 0,
                           "ghost " << e.id << " carries frame state");
      continue;
    }
    EXTHASH_AUDIT_EXPECT(report, kComponent, !ghost_queue,
                         "resident frame " << e.id << " sits on ghost queue "
                                           << int{e.queue});
    const bool slot_ok =
        e.slot < slot_state.size() && slot_state[e.slot] == kUnseen;
    EXTHASH_AUDIT_EXPECT(report, kComponent, slot_ok,
                         "frame " << e.id << " slot " << e.slot
                                  << " is out of range, free, or shared");
    if (!slot_ok) continue;
    slot_state[e.slot] = kOwned;
    // Flag accounting: at a quiescent barrier no frame is pinned, and
    // every resident id is still allocated (frees go through
    // invalidate()).
    if (e.dirty) ++dirty;
    if (e.quarantined) {
      ++quarantined;
      EXTHASH_AUDIT_EXPECT(report, kComponent, e.dirty,
                           "quarantined frame " << e.id
                               << " is clean — quarantine exists only to "
                                  "protect unlanded dirty data");
    }
    EXTHASH_AUDIT_EXPECT(report, kComponent, pins_[e.slot] == 0,
                         "frame " << e.id << " pinned (" << pins_[e.slot]
                                  << ") at a quiescent audit");
    EXTHASH_AUDIT_EXPECT(report, kComponent, device_.isAllocated(e.id),
                         "resident frame " << e.id << " maps a freed block");
  }
  EXTHASH_AUDIT_EXPECT(report, kComponent, live == dir_.size(),
                       "directory holds " << live << " entries, size() says "
                                          << dir_.size());
  const std::size_t leaked = static_cast<std::size_t>(
      std::count(slot_state.begin(), slot_state.end(), kUnseen));
  EXTHASH_AUDIT_EXPECT(report, kComponent, leaked == 0,
                       leaked << " frame slots are neither free nor owned");

  // Queue structure: each list walks front to back over entries tagged
  // with it, its back links mirror the forward ones, and its length
  // matches both its counter and the directory walk above.
  for (std::uint8_t q = 0; q < CacheDirectory::kQueues; ++q) {
    std::size_t walked = 0;
    Index prev = CacheDirectory::kNil;
    bool linked = true;
    for (Index i = dir_.front(q); i != CacheDirectory::kNil;
         i = cells[i].next) {
      if (i >= cells.size() || walked > dir_.size() || cells[i].queue != q ||
          cells[i].prev != prev) {
        linked = false;  // out of range, a cycle, or a foreign entry
        break;
      }
      prev = i;
      ++walked;
    }
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         linked && prev == dir_.back(q),
                         "queue " << int{q} << " links are broken");
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         walked == dir_.queueSize(q) &&
                             walked == per_queue[q],
                         "queue " << int{q} << " walks " << walked
                                  << " entries, counts " << dir_.queueSize(q)
                                  << ", directory tags " << per_queue[q]);
  }

  EXTHASH_AUDIT_EXPECT(report, kComponent, dirty == dirty_blocks_,
                       dirty << " dirty frames, counter says "
                             << dirty_blocks_);
  EXTHASH_AUDIT_EXPECT(report, kComponent, quarantined == quarantined_frames_,
                       quarantined << " quarantined frames, counter says "
                                   << quarantined_frames_);
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       policy_ == WritePolicy::kWriteBack || dirty == 0,
                       "write-through cache holds " << dirty
                                                    << " dirty frames");

  // Budget charge reconciliation: the frame charge follows
  // max(capacity, residency) — transient pin-driven over-residency is
  // charged like any memory (rechargeForResidency's contract) — and the
  // policy's ghost charge covers its live ghost entries.
  const std::size_t ghosts = ghostEntries();
  const std::size_t expected_words =
      std::max(capacity_blocks_, residentBlocks()) * words_per_block_;
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       charge_.words() == expected_words,
                       "frame charge " << charge_.words()
                           << " words, expected " << expected_words);
  EXTHASH_AUDIT_EXPECT(
      report, kComponent,
      replacement_.chargedWords() >= ghosts * kGhostEntryWords,
      "policy charges " << replacement_.chargedWords()
                        << " words for " << ghosts << " ghosts (>= "
                        << ghosts * kGhostEntryWords << " required)");
}

}  // namespace exthash::extmem
