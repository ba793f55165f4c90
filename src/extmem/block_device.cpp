#include "extmem/block_device.h"

#include <algorithm>
#include <thread>

#include "obs/flight_recorder.h"

namespace exthash::extmem {

BlockDevice::BlockDevice(std::size_t words_per_block,
                         const StorageOptions& storage)
    : BlockDevice(words_per_block, makeStorage(words_per_block, storage)) {}

BlockDevice::BlockDevice(std::size_t words_per_block,
                         std::unique_ptr<StorageBackend> storage)
    : words_per_block_(words_per_block), storage_(std::move(storage)) {
  EXTHASH_CHECK_MSG(words_per_block >= 4,
                    "block too small: " << words_per_block << " words");
  EXTHASH_CHECK_MSG(storage_ != nullptr, "null storage backend");
  EXTHASH_CHECK_MSG(storage_->wordsPerBlock() == words_per_block_,
                    "backend geometry mismatch: " << storage_->wordsPerBlock()
                                                  << " vs "
                                                  << words_per_block_);
  storage_persistent_ = storage_->persistent();
  laddered_ = storage_persistent_;
}

namespace {

void yieldQuanta(std::uint32_t quanta) {
  for (std::uint32_t i = 0; i < quanta; ++i) std::this_thread::yield();
}

}  // namespace

// ---- The retry ladder ------------------------------------------------------
//
// Every backend call of a counted access runs here. The load (or frame)
// call's attempts each run the FaultPolicy gate first (gatedCall); the
// store's do not, so the policy sees each attempt of an access once.
// Transient outcomes, injected or real (EINTR storms, EAGAIN), are
// re-attempted within the RetryPolicy budget — safe because a faulted
// gate changes nothing and re-issuing a storeRun is idempotent.
// Escapes are re-attributed with the device-level op kind and the final
// attempt count, keeping the cause (the policy's, or the errno detail) as
// the detail.
template <class Fn>
auto BlockDevice::retryBackend(IoOpKind op, BlockId id, Fn&& fn)
    -> decltype(fn(1u)) {
  const std::uint32_t budget =
      std::max<std::uint32_t>(1, retry_policy_.max_attempts);
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      return fn(attempt);
    } catch (const DeviceCrashed&) {
      // Power cut at the syscall layer: freeze, so every later access
      // throws — exactly like a FaultPolicy crash trigger.
      frozen_ = true;
      throw;
    } catch (const TransientIoError& error) {
      if (attempt < budget) {
        ++stats_.io_retries;
        EXTHASH_OBS_COUNT("exthash_io_retries_total", 1);
        yieldQuanta(retry_policy_.backoffQuantaFor(attempt, id));
        continue;
      }
      ++stats_.io_gave_up;
      EXTHASH_OBS_COUNT("exthash_io_gave_up_total", 1);
      obs::flightRecorderNoteFatal(error.what());
      throw TransientIoError(op, id, attempt, error.detail(),
                             error.posixErrno());
    } catch (const PermanentIoError& error) {
      ++stats_.io_gave_up;
      EXTHASH_OBS_COUNT("exthash_io_gave_up_total", 1);
      obs::flightRecorderNoteFatal(error.what());
      throw PermanentIoError(op, id, attempt, error.detail(),
                             error.posixErrno());
    }
  }
}

// One attempt's consultation of the installed policy: a fault throws (and
// is the only thing stats_.faults_injected counts), and a crash point
// throws CrashRequested — no IoError, so it passes through the ladder to
// gatedCall.
void BlockDevice::gate(IoOpKind op, BlockId id, std::uint32_t attempt) {
  if (fault_policy_ == nullptr) return;
  try {
    fault_policy_->onAccess(op, id, attempt);
  } catch (const IoError&) {
    ++stats_.faults_injected;
    EXTHASH_OBS_COUNT("exthash_io_faults_injected_total", 1);
    throw;
  }
}

template <class Call>
auto BlockDevice::gatedCall(IoOpKind op, BlockId id, Call&& call)
    -> decltype(call()) {
  try {
    return retryBackend(op, id, [&](std::uint32_t attempt) {
      gate(op, id, attempt);
      return call();
    });
  } catch (const CrashRequested& crash) {
    return crashPoint(op, id, crash.torn_words);
  }
}

// A read crash freezes the device before the backend is touched. A write
// kind hands the accessor a shadow frame — the old contents for an rmw;
// an overwrite zero-fills it anyway — whose tear backendStore lands.
Word* BlockDevice::crashPoint(IoOpKind op, BlockId id,
                              std::size_t torn_words) {
  if (op == IoOpKind::kRead) {
    frozen_ = true;
    throw DeviceCrashed(op, id, "crash point fired");
  }
  shadow_.resize(words_per_block_);
  if (op == IoOpKind::kRmw) {
    const Word* old = storage_->load(id);
    std::copy(old, old + words_per_block_, shadow_.begin());
  }
  tear_block_ = id;
  tear_words_ = std::min(torn_words, words_per_block_);
  return shadow_.data();
}

const Word* BlockDevice::backendLoad(BlockId id) {
  if (!laddered_) return storage_->load(id);
  return gatedCall(IoOpKind::kRead, id,
                   [&]() -> const Word* { return storage_->load(id); });
}

Word* BlockDevice::backendLoadMutable(BlockId id) {
  if (!laddered_) return storage_->loadMutable(id);
  return gatedCall(IoOpKind::kRmw, id,
                   [&] { return storage_->loadMutable(id); });
}

Word* BlockDevice::backendFrame(BlockId id) {
  // Frames live in memory on every backend: only a policy's gate can fail.
  if (fault_policy_ == nullptr) return storage_->frame(id);
  return gatedCall(IoOpKind::kWrite, id, [&] { return storage_->frame(id); });
}

void BlockDevice::backendStore(IoOpKind op, BlockId id) {
  if (!laddered_) return;
  if (id == tear_block_) {
    // The crashed write lands torn. Bare backend calls: the machine is
    // dying, and a failure of the tear itself just loses more.
    tear_block_ = kInvalidBlock;
    if (tear_words_ > 0) {
      std::copy_n(shadow_.begin(), tear_words_, storage_->loadMutable(id));
      storage_->storeRun(id, 1);
    }
    frozen_ = true;
    throw DeviceCrashed(op, id, "crash point fired (torn write)");
  }
  backendStoreRun(op, id, 1);
}

void BlockDevice::backendStoreRun(IoOpKind op, BlockId first,
                                  std::size_t count) {
  if (!storage_persistent_) return;
  retryBackend(op, first,
               [&](std::uint32_t) { storage_->storeRun(first, count); });
}

void BlockDevice::countedStoreRun(BlockId first, std::size_t count) {
  try {
    backendStoreRun(IoOpKind::kWrite, first, count);
  } catch (const IoError&) {
    ++stats_.writes;  // the write of `first`, the block the error names
    throw;
  }
  stats_.writes += count;
}

void BlockDevice::sync() {
  throwIfFrozen(IoOpKind::kWrite, kInvalidBlock);
  try {
    storage_->sync();
  } catch (const DeviceCrashed&) {
    frozen_ = true;
    throw;
  } catch (const IoError& error) {
    // No retry: a failed fsync may already have dropped dirty pages, so
    // re-running it cannot certify the data (backends throw permanent).
    obs::flightRecorderNoteFatal(error.what());
    throw;
  }
  ++stats_.fsyncs;
  EXTHASH_OBS_COUNT("exthash_device_fsyncs_total", 1);
}

void BlockDevice::checkLive(BlockId id) const {
  EXTHASH_CHECK_MSG(id < next_id_ && allocated_[id],
                    "access to unallocated block " << id);
}

bool BlockDevice::isAllocated(BlockId id) const noexcept {
  return id < next_id_ && allocated_[id];
}

void BlockDevice::ensureBacking(BlockId last_id) {
  storage_->ensureCapacity(last_id + 1);
  if (allocated_.size() < (last_id + 1)) allocated_.resize(last_id + 1, 0);
}

void BlockDevice::markAllocated(BlockId first, std::size_t count,
                                bool reused) {
  for (std::size_t i = 0; i < count; ++i) {
    allocated_[first + i] = 1;
    Word* p = storage_->frame(first + i);
    std::fill(p, p + words_per_block_, Word{0});
    // Fresh ids are zero on every backend (value-initialized arena;
    // fallocate'd file regions read back as zeros). Reused ids may carry
    // stale bytes on a persistent medium — scrub them there.
    if (reused && storage_persistent_) {
      backendStore(IoOpKind::kWrite, first + i);
    }
  }
  blocks_in_use_ += count;
  stats_.allocated_blocks += count;
}

BlockId BlockDevice::allocate() { return allocateExtent(1); }

BlockId BlockDevice::allocateExtent(std::size_t count) {
  EXTHASH_CHECK(count >= 1);
  throwIfFrozen(IoOpKind::kWrite, kInvalidBlock);
  // Best fit: the shortest free range that holds the extent (the lowest
  // address among equals); its tail stays free.
  const auto fit = free_by_size_.lower_bound({count, BlockId{0}});
  if (fit != free_by_size_.end()) {
    const auto [length, first] = *fit;
    removeFreeRange(free_ranges_.find(first));
    if (length > count) addFreeRange(first + count, length - count);
    markAllocated(first, count, /*reused=*/true);
    return first;
  }
  const BlockId first = next_id_;
  next_id_ += count;
  ensureBacking(next_id_ - 1);
  markAllocated(first, count, /*reused=*/false);
  return first;
}

void BlockDevice::free(BlockId id) { freeExtent(id, 1); }

void BlockDevice::freeExtent(BlockId first, std::size_t count) {
  EXTHASH_CHECK(count >= 1);
  // A frozen (crashed) device ignores frees: destructors of the doomed
  // stack unwind through here, and recovery's restoreImage rewinds the
  // allocation map wholesale anyway.
  if (frozen_) return;
  for (std::size_t i = 0; i < count; ++i) {
    EXTHASH_CHECK_MSG(isAllocated(first + i),
                      "double free of block " << (first + i));
    allocated_[first + i] = 0;
  }
  blocks_in_use_ -= count;
  stats_.freed_blocks += count;
  // Coalesce with the free neighbours on either side.
  const auto next = free_ranges_.lower_bound(first);
  if (next != free_ranges_.begin()) {
    const auto prev = std::prev(next);
    if (prev->first + prev->second == first) {
      first = prev->first;
      count += prev->second;
      removeFreeRange(prev);
    }
  }
  if (next != free_ranges_.end() && first + count == next->first) {
    count += next->second;
    removeFreeRange(next);
  }
  addFreeRange(first, count);
}

void BlockDevice::addFreeRange(BlockId first, std::size_t count) {
  free_ranges_.emplace(first, count);
  free_by_size_.emplace(count, first);
}

void BlockDevice::removeFreeRange(
    std::map<BlockId, std::size_t>::iterator range) {
  free_by_size_.erase({range->second, range->first});
  free_ranges_.erase(range);
}

std::vector<Word> BlockDevice::readCopy(BlockId id) {
  std::vector<Word> out(words_per_block_);
  withRead(id, [&](std::span<const Word> data) {
    std::copy(data.begin(), data.end(), out.begin());
  });
  return out;
}

void BlockDevice::writeCopy(BlockId id, std::span<const Word> contents) {
  EXTHASH_CHECK(contents.size() <= words_per_block_);
  withOverwrite(id, [&](std::span<Word> data) {
    std::copy(contents.begin(), contents.end(), data.begin());
  });
}

std::span<const Word> BlockDevice::inspect(BlockId id) const {
  checkLive(id);
  // A frozen device performs no I/O at all — teardown walks (destructors
  // of the doomed stack inspect chains to free them) must see the
  // last-known frame contents instead of re-raising from a dead backend
  // mid-unwind, which would terminate the process.
  if (frozen_) return {storage_->peek(id), words_per_block_};
  // Uncounted analysis path: no retry ladder, no statistics — a real
  // syscall failure propagates as the backend threw it (attempt 1).
  return {storage_->load(id), words_per_block_};
}

BlockDevice::Image BlockDevice::captureImage() const {
  Image image;
  image.words_per_block = words_per_block_;
  image.words.resize(next_id_ * words_per_block_);
  for (BlockId id = 0; id < next_id_; ++id) {
    const Word* p = storage_->load(id);
    std::copy(p, p + words_per_block_,
              image.words.begin() +
                  static_cast<std::ptrdiff_t>(id * words_per_block_));
  }
  image.allocated = allocated_;
  image.allocated.resize(next_id_);
  image.free_ranges = free_ranges_;
  image.next_id = next_id_;
  image.blocks_in_use = blocks_in_use_;
  return image;
}

void BlockDevice::restoreImage(const Image& image) {
  EXTHASH_CHECK_MSG(image.words_per_block == words_per_block_,
                    "image geometry mismatch: " << image.words_per_block
                                                << " vs " << words_per_block_);
  next_id_ = image.next_id;
  if (next_id_ > 0) ensureBacking(next_id_ - 1);
  for (BlockId id = 0; id < next_id_; ++id) {
    const auto src =
        image.words.begin() + static_cast<std::ptrdiff_t>(id * words_per_block_);
    Word* p = storage_->frame(id);
    std::copy(src, src + static_cast<std::ptrdiff_t>(words_per_block_), p);
  }
  if (next_id_ > 0) backendStoreRun(IoOpKind::kWrite, 0, next_id_);
  allocated_ = image.allocated;
  allocated_.resize(next_id_);
  free_ranges_ = image.free_ranges;
  free_by_size_.clear();
  for (const auto& [first, length] : free_ranges_) {
    free_by_size_.emplace(length, first);
  }
  blocks_in_use_ = image.blocks_in_use;
}

}  // namespace exthash::extmem
