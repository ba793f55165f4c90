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
// preallocated file driven by pread/pwrite/fdatasync, with real errno
// outcomes mapped onto the same IoError taxonomy the FaultPolicy uses.
// Everything above the device — counted I/O, caching, retry, crash
// freezing — is backend-agnostic.
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
// Fault injection: setFaultPolicy() installs a seeded FaultPolicy (see
// extmem/fault.h) consulted BEFORE every counted access takes effect —
// a faulted attempt changes neither the statistics nor the block, so the
// built-in retry loop (setRetryPolicy, extmem/retry.h) can safely
// re-attempt transient faults. An access that exhausts the budget (or
// hits a permanent fault) throws Transient-/PermanentIoError without
// invoking the caller's callback. inspect(), allocation, and free are
// metadata paths and never fault under an installed policy (a file
// backend can still surface real syscall errors there).
//
// On persistent backends the SAME retry ladder wraps the backend calls
// themselves: a TransientIoError from a real syscall (EINTR storm,
// EAGAIN) is re-attempted within RetryPolicy's budget — safe because
// store() is an idempotent full-block pwrite — while PermanentIoError
// (EIO, ENOSPC) escapes immediately and a DeviceCrashed (injected power
// cut) freezes the device, exactly like a FaultPolicy crash trigger.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "extmem/fault.h"
#include "extmem/io_stats.h"
#include "extmem/retry.h"
#include "extmem/storage_backend.h"
#include "obs/metrics.h"
#include "util/assert.h"

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
  /// id. Contiguity is in the id space (computed addressing).
  BlockId allocateExtent(std::size_t count);

  void free(BlockId id);
  void freeExtent(BlockId first, std::size_t count);

  /// Counted read: invokes fn(std::span<const Word>) on the block contents.
  template <class F>
  decltype(auto) withRead(BlockId id, F&& fn) {
    EXTHASH_OBS_TIMED("exthash_device_read_ns");
    checkLive(id);
    throwIfFrozen(IoOpKind::kRead, id);
    try {
      faultGate(IoOpKind::kRead, id);
    } catch (const CrashRequested&) {
      crashNow(IoOpKind::kRead, id);
    }
    const Word* p = backendLoad(IoOpKind::kRead, id);
    ++stats_.reads;
    if (bypass_depth_ > 0) ++stats_.cache_bypass_reads;
    simulateLatency();
    return std::forward<F>(fn)(std::span<const Word>(p, words_per_block_));
  }

  /// Counted read-modify-write (cost 1 per the paper's footnote 2):
  /// invokes fn(std::span<Word>) on the live block contents.
  template <class F>
  decltype(auto) withWrite(BlockId id, F&& fn) {
    EXTHASH_OBS_TIMED("exthash_device_rmw_ns");
    checkLive(id);
    throwIfFrozen(IoOpKind::kRmw, id);
    try {
      faultGate(IoOpKind::kRmw, id);
    } catch (const CrashRequested& crash) {
      crashTornWrite(IoOpKind::kRmw, id, crash.torn_words,
                     /*zero_first=*/false, fn);
    }
    Word* p = backendLoadMutable(IoOpKind::kRmw, id);
    ++stats_.rmws;
    simulateLatency();
    const std::span<Word> block(p, words_per_block_);
    if constexpr (std::is_void_v<std::invoke_result_t<F&, std::span<Word>>>) {
      std::forward<F>(fn)(block);
      backendStore(IoOpKind::kRmw, id);
    } else {
      decltype(auto) result = std::forward<F>(fn)(block);
      backendStore(IoOpKind::kRmw, id);
      return result;
    }
  }

  /// Counted blind write: zeroes the block, then invokes fn(span<Word>) to
  /// fill it. Use when the previous contents are irrelevant (bulk builds).
  template <class F>
  decltype(auto) withOverwrite(BlockId id, F&& fn) {
    EXTHASH_OBS_TIMED("exthash_device_write_ns");
    checkLive(id);
    throwIfFrozen(IoOpKind::kWrite, id);
    try {
      faultGate(IoOpKind::kWrite, id);
    } catch (const CrashRequested& crash) {
      crashTornWrite(IoOpKind::kWrite, id, crash.torn_words,
                     /*zero_first=*/true, fn);
    }
    Word* p = backendFrame(id);
    ++stats_.writes;
    simulateLatency();
    std::fill(p, p + words_per_block_, Word{0});
    const std::span<Word> block(p, words_per_block_);
    if constexpr (std::is_void_v<std::invoke_result_t<F&, std::span<Word>>>) {
      std::forward<F>(fn)(block);
      backendStore(IoOpKind::kWrite, id);
    } else {
      decltype(auto) result = std::forward<F>(fn)(block);
      backendStore(IoOpKind::kWrite, id);
      return result;
    }
  }

  /// Durability barrier: everything stored so far reaches the platter
  /// before sync() returns (fdatasync on file backends; free but still
  /// counted on memory backends, so the WAL's barrier cadence is always
  /// measurable). Counted in IoStats::fsyncs, NOT in cost(). A failed
  /// barrier throws PermanentIoError — dirty pages may have been dropped,
  /// so re-running it cannot certify the data (fsyncgate semantics); an
  /// injected power cut lands here as DeviceCrashed and freezes the
  /// device like any other crash point.
  void sync();

  /// Emulate per-access device latency: every counted access yields the
  /// CPU `quanta` times (~0.1–1 µs each when nothing else is runnable).
  /// Zero (default) disables. Yielding — rather than busy-spinning —
  /// models a DMA-style device: while the "transfer" waits, other threads
  /// (shard workers, the ingest pipeline's producer) can use the core, so
  /// wall-clock benchmarks can measure overlap even on small machines.
  /// Counted I/O statistics are never affected.
  void setAccessLatency(std::uint32_t quanta) noexcept {
    latency_spins_ = quanta;
  }
  std::uint32_t accessLatency() const noexcept { return latency_spins_; }

  /// Install a fault scripter consulted before every counted access (see
  /// the file comment; nullptr uninstalls — the default, zero-cost path).
  /// Non-owning: the policy must outlive its installation. Thread
  /// compatibility matches the device itself.
  void setFaultPolicy(FaultPolicy* policy) noexcept {
    fault_policy_ = policy;
  }
  FaultPolicy* faultPolicy() const noexcept { return fault_policy_; }

  /// Retry budget for transient faults — injected ones (FaultPolicy) and,
  /// on persistent backends, real transient syscall outcomes (EINTR,
  /// EAGAIN) alike.
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

  /// UNCOUNTED inspection for analysis & invariant checks only.
  std::span<const Word> inspect(BlockId id) const;

  IoStats& stats() noexcept { return stats_; }
  const IoStats& stats() const noexcept { return stats_; }

  /// Number of currently allocated blocks.
  std::size_t blocksInUse() const noexcept { return blocks_in_use_; }
  /// High-water mark of the id space (includes freed blocks). Freed
  /// ranges are reused best-fit, so it stays within a small factor of the
  /// peak live block count.
  std::size_t idSpaceSize() const noexcept { return next_id_; }
  bool isAllocated(BlockId id) const noexcept;

  // ---- Crash simulation seam (durability/ + crash tests) ----------------
  //
  // A crash trigger (FaultPolicy::crashOpNumber) freezes the device at a
  // deterministic access: for write kinds the first `torn_words` words of
  // the in-flight write persist and the rest keep their old contents (a
  // torn sector), then every further counted access throws DeviceCrashed
  // until thaw() — the "machine rebooted" seam recovery runs behind.
  // Metadata paths stay teardown-safe: free()/freeExtent() on a frozen
  // device are silent no-ops (destructors of the doomed stack unwind
  // through them), while allocation throws.

  /// Freeze the device by hand (the crash harness freezes every durable
  /// device the moment any one of them crashes).
  void freeze() noexcept { frozen_ = true; }
  /// Lift a crash freeze — the reboot. Contents stay exactly as the crash
  /// left them (torn sector included).
  void thaw() noexcept { frozen_ = false; }
  bool frozen() const noexcept { return frozen_; }

  /// Full value snapshot of the device's durable state: block contents,
  /// allocation map, free ranges, id-space watermark. Statistics, latency
  /// and fault policies are deliberately excluded. Uncounted — this is
  /// the checkpoint primitive, the in-memory stand-in for "the bytes that
  /// were on the platter when the checkpoint completed".
  struct Image {
    std::size_t words_per_block = 0;
    std::vector<Word> words;  // next_id blocks, words_per_block each
    std::vector<std::uint8_t> allocated;
    std::map<BlockId, std::size_t> free_ranges;  // first id -> length
    BlockId next_id = 0;
    std::size_t blocks_in_use = 0;
  };
  Image captureImage() const;
  /// Overwrite the device's entire durable state with `image` (geometry
  /// must match). Does not touch the frozen flag, statistics or policies.
  void restoreImage(const Image& image);

 private:
  void simulateLatency() const noexcept {
    for (std::uint32_t i = 0; i < latency_spins_; ++i) {
      std::this_thread::yield();
    }
  }

  /// One branch on the no-policy fast path; with a policy installed,
  /// defers to runFaultGate (retry loop + fault accounting, retry.h).
  void faultGate(IoOpKind op, BlockId id) {
    if (fault_policy_ != nullptr) {
      runFaultGate(*fault_policy_, retry_policy_, op, id, stats_);
    }
  }

  void throwIfFrozen(IoOpKind op, BlockId id) const {
    if (frozen_) {
      throw DeviceCrashed(op, id, "device frozen by simulated crash");
    }
  }

  [[noreturn]] void crashNow(IoOpKind op, BlockId id) {
    frozen_ = true;
    throw DeviceCrashed(op, id, "crash point fired");
  }

  /// Torn-write protocol: run the caller's fill on a scratch copy (so we
  /// know what the write WOULD have produced), persist only the first
  /// `torn_words` words of it, freeze, throw. torn_words = 0 models a
  /// write lost whole; anything between 0 and wordsPerBlock() models a
  /// sector torn mid-transfer. Backend calls here are deliberately bare —
  /// the machine is dying; a failure of the tear itself just loses more.
  template <class F>
  [[noreturn]] void crashTornWrite(IoOpKind op, BlockId id,
                                   std::size_t torn_words, bool zero_first,
                                   F& fn) {
    std::vector<Word> scratch(words_per_block_, Word{0});
    if (!zero_first) {
      const Word* live = storage_->load(id);
      std::copy(live, live + words_per_block_, scratch.begin());
    }
    fn(std::span<Word>(scratch.data(), words_per_block_));
    const std::size_t keep = std::min(torn_words, words_per_block_);
    if (keep > 0) {
      Word* live = storage_->loadMutable(id);
      std::copy(scratch.begin(),
                scratch.begin() + static_cast<std::ptrdiff_t>(keep), live);
      storage_->store(id);
    }
    frozen_ = true;
    throw DeviceCrashed(op, id, "crash point fired (torn write)");
  }

  // Backend access, wrapped in the transient-retry ladder on persistent
  // backends (no-overhead pass-through for MemStorage). Declared here,
  // defined in the .cpp — the templates above are their only callers'
  // public face, and they are not templates themselves.
  const Word* backendLoad(IoOpKind op, BlockId id);
  Word* backendLoadMutable(IoOpKind op, BlockId id);
  Word* backendFrame(BlockId id);
  void backendStore(IoOpKind op, BlockId id);
  template <class Fn>
  auto retryBackend(IoOpKind op, BlockId id, Fn&& fn) -> decltype(fn());

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
  std::uint32_t latency_spins_ = 0;
  std::uint32_t bypass_depth_ = 0;  // see CacheBypassScope
  bool frozen_ = false;             // crash freeze, see freeze()/thaw()
  FaultPolicy* fault_policy_ = nullptr;  // non-owning, see setFaultPolicy
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
