// Simulated block device for the Aggarwal–Vitter external memory model.
//
// The disk is an unbounded array of blocks of `wordsPerBlock()` 64-bit
// words. All counted access goes through the guarded zero-copy calls
// withRead / withWrite / withOverwrite, which hand the caller a std::span
// into chunk-stable storage (blocks never move once allocated, so spans
// stay valid even if the callback allocates more blocks).
//
// Where the bytes live is a construction-time choice (the StorageBackend
// seam, extmem/storage_backend.h): the default MemStorage keeps the
// original in-memory chunk array; FileStorage puts every block in a
// preallocated file driven by pread/pwrite/fdatasync, with errno outcomes
// mapped onto the IoError taxonomy (extmem/fault.h). Everything above the
// device — counted I/O, caching, retry, crash freezing — is
// backend-agnostic.
//
// Extent allocation (`allocateExtent`) returns *contiguous block ids*, so
// hash tables can place bucket j at `base + j` — a computed address that
// needs O(1) words of memory, which is what makes the paper's address
// function f "computable within memory".
//
// `inspect()` reads a block WITHOUT counting an I/O. It exists solely for
// the analysis/introspection layer (zone accounting, tests); library code
// on the query/update path must never use it.
//
// Faults come only from the backend, and every backend call of a counted
// access runs inside the device's one retry ladder (setRetryPolicy,
// extmem/retry.h). A load has no effect until it succeeds, and a store
// (storeRun) re-issues full-block pwrites at fixed offsets, so
// re-attempting a load, one block or a whole run is idempotent and
// transient syscall outcomes (EINTR storms, EAGAIN) are safely
// re-attempted. An access that exhausts the budget, or hits a permanent
// fault (EIO, ENOSPC), throws Transient-/PermanentIoError. A read or rmw
// fails at its load, before the caller's callback runs and before it
// counts; a blind overwrite fails at its store, after its callback ran,
// and counts its write. A DeviceCrashed (a power cut under the file
// backend, see extmem/faulty_file_ops.h) freezes the device. inspect(),
// allocation, free and the image calls add nothing to cost(), yet the
// loads of inspect() and captureImage(), the stores of restoreImage() and
// of a reused id's scrub, and the file growth behind a fresh extent run
// in the same ladder. MemStorage cannot fail, so on it an access is one
// branch plus the backend call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "extmem/fault.h"
#include "extmem/io_stats.h"
#include "extmem/retry.h"
#include "extmem/storage_backend.h"
#include "util/assert.h"

namespace exthash::obs {
class MetricsRegistry;
}  // namespace exthash::obs

namespace exthash::extmem {

using Word = std::uint64_t;
using BlockId = std::uint64_t;
inline constexpr BlockId kInvalidBlock = ~static_cast<BlockId>(0);

class BlockDevice {
 public:
  /// A block holds `words_per_block` 64-bit words (header + payload).
  /// Default-constructed StorageOptions select the in-memory backend —
  /// byte-identical to the pre-seam device.
  explicit BlockDevice(std::size_t words_per_block,
                       const StorageOptions& storage = {});

  /// Adopt a ready-made backend (named WAL/manifest files, test doubles).
  BlockDevice(std::size_t words_per_block,
              std::unique_ptr<StorageBackend> storage);

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  std::size_t wordsPerBlock() const noexcept { return words_per_block_; }

  /// Allocate one zero-initialized block.
  BlockId allocate();

  /// Allocate `count` contiguous zero-initialized blocks; returns the first
  /// id. Contiguity is in the id space (computed addressing). An IoError
  /// from growing the backing file leaves the device as it was.
  BlockId allocateExtent(std::size_t count);

  void free(BlockId id);
  void freeExtent(BlockId first, std::size_t count);

  /// Counted read: invokes fn(std::span<const Word>) on the block contents.
  template <class F>
  decltype(auto) withRead(BlockId id, F&& fn) {
    checkLive(id);
    throwIfFrozen(IoOpKind::kRead, id);
    const Word* p = backendLoad(id);
    ++stats_.reads;
    if (bypass_depth_ > 0) ++stats_.cache_bypass_reads;
    return std::forward<F>(fn)(std::span<const Word>(p, words_per_block_));
  }

  /// Counted read-modify-write (cost 1 per the paper's footnote 2):
  /// invokes fn(std::span<Word>) on the live block contents.
  template <class F>
  decltype(auto) withWrite(BlockId id, F&& fn) {
    checkLive(id);
    throwIfFrozen(IoOpKind::kRmw, id);
    Word* p = backendLoadMutable(id);
    ++stats_.rmws;
    const std::span<Word> block(p, words_per_block_);
    if constexpr (std::is_void_v<std::invoke_result_t<F&, std::span<Word>>>) {
      std::forward<F>(fn)(block);
      backendStore(IoOpKind::kRmw, id, 1);
    } else {
      decltype(auto) result = std::forward<F>(fn)(block);
      backendStore(IoOpKind::kRmw, id, 1);
      return result;
    }
  }

  /// Counted blind write: zeroes the block, then invokes fn(span<Word>) to
  /// fill it. Use when the previous contents are irrelevant (bulk builds).
  template <class F>
  decltype(auto) withOverwrite(BlockId id, F&& fn) {
    checkLive(id);
    throwIfFrozen(IoOpKind::kWrite, id);
    Word* p = storage_->frame(id);
    ++stats_.writes;
    std::fill(p, p + words_per_block_, Word{0});
    const std::span<Word> block(p, words_per_block_);
    if constexpr (std::is_void_v<std::invoke_result_t<F&, std::span<Word>>>) {
      std::forward<F>(fn)(block);
      backendStore(IoOpKind::kWrite, id, 1);
    } else {
      decltype(auto) result = std::forward<F>(fn)(block);
      backendStore(IoOpKind::kWrite, id, 1);
      return result;
    }
  }

  /// Counted blind write of the consecutive blocks [first, first + count):
  /// zeroes each block, then fill(i, std::span<Word>) fills block first + i
  /// (fill must not throw). Counts one write per block, exactly like
  /// `count` calls to withOverwrite. Every block is checked live and
  /// filled, and the run is stored with ONE backend call inside the retry
  /// ladder (one pwrite per arena chunk on a file; a retry re-issues the
  /// whole run).
  ///
  /// Failure contract: the thrown IoError's block() is the first block of
  /// the run that did not land, and every block before it landed. The
  /// failure counts the landed prefix plus the failed block — as
  /// withOverwrite counts a write whose store failed — even if more of the
  /// run reached the medium (re-writing it is idempotent).
  template <class Fill>
  void withOverwriteRun(BlockId first, std::size_t count, Fill&& fill) {
    for (std::size_t i = 0; i < count; ++i) checkLive(first + i);
    throwIfFrozen(IoOpKind::kWrite, first);
    for (std::size_t i = 0; i < count; ++i) {
      Word* p = storage_->frame(first + i);
      std::fill(p, p + words_per_block_, Word{0});
      fill(i, std::span<Word>(p, words_per_block_));
    }
    countedStoreRun(first, count);
  }

  /// Durability barrier: everything stored so far reaches the platter
  /// before sync() returns (fdatasync on file backends; free but still
  /// counted on memory backends, so the WAL's barrier cadence is always
  /// measurable). Counted in IoStats::fsyncs, NOT in cost(). A failed
  /// barrier throws PermanentIoError — dirty pages may have been dropped,
  /// so re-running it cannot certify the data (fsyncgate semantics); a
  /// power cut lands here as DeviceCrashed and freezes the device like
  /// any other access it interrupts.
  void sync();

  /// Retry budget for transient faults: the transient syscall outcomes
  /// (EINTR storms, EAGAIN) of a persistent backend.
  void setRetryPolicy(const RetryPolicy& policy) noexcept {
    retry_policy_ = policy;
  }
  const RetryPolicy& retryPolicy() const noexcept { return retry_policy_; }

  /// The backend holding this device's bytes (diagnostics/tests; e.g.
  /// dynamic_cast to FileStorage for path() and directActive()).
  const StorageBackend& storage() const noexcept { return *storage_; }
  std::string_view storageName() const noexcept { return storage_->name(); }
  /// True when the backend hits a medium that can actually fail (files).
  bool storagePersistent() const noexcept { return storage_persistent_; }

  /// Copying variants (convenience for tests).
  std::vector<Word> readCopy(BlockId id);
  void writeCopy(BlockId id, std::span<const Word> contents);

  /// UNCOUNTED inspection for analysis & invariant checks only. A
  /// persistent backend's load runs in the retry ladder, as a counted
  /// read's does.
  std::span<const Word> inspect(BlockId id);

  IoStats& stats() noexcept { return stats_; }
  const IoStats& stats() const noexcept { return stats_; }
  /// Add this device's resilience and barrier counters to `registry`
  /// (obs/metrics.h): exthash_io_retries_total, exthash_io_gave_up_total
  /// and exthash_device_fsyncs_total, read from stats().
  void collect(obs::MetricsRegistry& registry) const;

  /// Number of currently allocated blocks.
  std::size_t blocksInUse() const noexcept { return blocks_in_use_; }
  /// High-water mark of the id space (includes freed blocks). Freed
  /// ranges are reused best-fit, so it stays within a small factor of the
  /// peak live block count.
  std::size_t idSpaceSize() const noexcept { return next_id_; }
  bool isAllocated(BlockId id) const noexcept;

  // ---- Crash seam (durability/ + crash tests) ---------------------------
  //
  // A backend call that hits a power cut (DeviceCrashed, raised by
  // FileStorage when its FaultyFileOps shim cuts the power) freezes the
  // device: every further counted access throws DeviceCrashed until
  // thaw() — the "machine rebooted" seam recovery runs behind. What
  // reached the file (a torn prefix of the interrupted pwrite included)
  // is all that survives. Metadata paths stay teardown-safe:
  // free()/freeExtent() on a frozen device are silent no-ops (destructors
  // of the doomed stack unwind through them), inspect() serves the
  // last-known frames, and allocation throws.

  /// Freeze the device by hand (the crash harness freezes every durable
  /// device once the machine died).
  void freeze() noexcept { frozen_ = true; }
  /// Lift a crash freeze — the reboot. Contents stay exactly as the crash
  /// left them on the medium.
  void thaw() noexcept { frozen_ = false; }
  bool frozen() const noexcept { return frozen_; }

  /// Full value snapshot of the device's durable state: block contents,
  /// allocation map, free ranges, id-space watermark. Statistics and the
  /// retry policy are deliberately excluded. Uncounted — this is
  /// the checkpoint primitive, the in-memory stand-in for "the bytes that
  /// were on the platter when the checkpoint completed". Its loads run in
  /// the retry ladder, as inspect()'s do.
  struct Image {
    std::size_t words_per_block = 0;
    std::vector<Word> words;  // next_id blocks, words_per_block each
    std::vector<std::uint8_t> allocated;
    std::map<BlockId, std::size_t> free_ranges;  // first id -> length
    BlockId next_id = 0;
    std::size_t blocks_in_use = 0;

    friend bool operator==(const Image&, const Image&) = default;
  };
  /// Overwrite `image` with the device's current state, reusing its
  /// buffers: whatever capture it held before (of any size) is replaced,
  /// and no buffer is reallocated unless the device outgrew it.
  void captureImage(Image& image);
  /// Overwrite the device's entire durable state with `image` (geometry
  /// must match): every frame is filled, then the whole image is stored
  /// as one run through the retry ladder. Does not touch the frozen flag,
  /// statistics or the retry policy.
  void restoreImage(const Image& image);

 private:
  void throwIfFrozen(IoOpKind op, BlockId id) const {
    if (frozen_) {
      throw DeviceCrashed(op, id, "device frozen by simulated crash");
    }
  }

  // Backend access for the accessors above. On a persistent backend every
  // call runs inside the one retry ladder; on MemStorage it is a single
  // backend call (a store is none at all). Defined in the .cpp, so none of
  // it is instantiated per callback type.
  const Word* backendLoad(BlockId id);
  Word* backendLoadMutable(BlockId id);
  /// Store [first, first + count) with one backend call in the ladder.
  void backendStore(IoOpKind op, BlockId first, std::size_t count);
  /// withOverwriteRun's store: counts `count` writes, or on failure the
  /// landed prefix plus the block the error names.
  void countedStoreRun(BlockId first, std::size_t count);
  template <class Fn>
  auto retryBackend(IoOpKind op, BlockId id, Fn&& fn) -> decltype(fn(1u));

  void checkLive(BlockId id) const;
  void ensureBacking(BlockId last_id);
  void markAllocated(BlockId first, std::size_t count, bool reused);
  void addFreeRange(BlockId first, std::size_t count);
  void removeFreeRange(std::map<BlockId, std::size_t>::iterator range);

  std::size_t words_per_block_;
  std::unique_ptr<StorageBackend> storage_;  // chunk-stable frames inside
  bool storage_persistent_ = false;
  std::vector<std::uint8_t> allocated_;  // per-block liveness
  // Freed ids as maximal ranges (neighbours coalesce on free), in address
  // order, plus a (length, first) index for O(log n) best fit.
  std::map<BlockId, std::size_t> free_ranges_;
  std::set<std::pair<std::size_t, BlockId>> free_by_size_;
  BlockId next_id_ = 0;
  std::size_t blocks_in_use_ = 0;
  std::uint32_t bypass_depth_ = 0;  // see CacheBypassScope
  bool frozen_ = false;             // crash freeze, see freeze()/thaw()
  RetryPolicy retry_policy_;
  IoStats stats_;

  friend class CacheBypassScope;
};

/// Marks a scope as UNCACHED BY DESIGN: every counted read the device
/// serves while one (or more, they nest) of these is live is also tallied
/// in IoStats::cache_bypass_reads. The merge/rebuild paths that stream a
/// structure exactly once (buffered Ĥ-merge, log-method mergeDown,
/// Jensen–Pagh rebuild) deliberately go straight to the device — caching
/// a one-pass stream would only evict genuinely hot frames — and this
/// annotation is what lets telemetry tell those reads apart from cache
/// misses. Not thread-safe against concurrent counted access to the same
/// device, matching BlockDevice itself (each shard owns its device).
class CacheBypassScope {
 public:
  explicit CacheBypassScope(BlockDevice& device) noexcept
      : device_(&device) {
    ++device_->bypass_depth_;
  }
  ~CacheBypassScope() { --device_->bypass_depth_; }
  CacheBypassScope(const CacheBypassScope&) = delete;
  CacheBypassScope& operator=(const CacheBypassScope&) = delete;

 private:
  BlockDevice* device_;
};

/// RAII probe measuring the I/O cost of a scoped piece of work.
class IoProbe {
 public:
  explicit IoProbe(const BlockDevice& device)
      : device_(&device), start_(device.stats()) {}

  IoStats delta() const noexcept { return device_->stats() - start_; }
  std::uint64_t cost() const noexcept { return delta().cost(); }
  std::uint64_t reads() const noexcept { return delta().reads; }
  std::uint64_t writes() const noexcept { return delta().writes; }
  std::uint64_t rmws() const noexcept { return delta().rmws; }

 private:
  const BlockDevice* device_;
  IoStats start_;
};

}  // namespace exthash::extmem
