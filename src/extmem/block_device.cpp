#include "extmem/block_device.h"

#include <algorithm>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

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
}

namespace {

void yieldQuanta(std::uint32_t quanta) {
  for (std::uint32_t i = 0; i < quanta; ++i) std::this_thread::yield();
}

}  // namespace

// ---- The retry ladder ------------------------------------------------------
//
// Every backend call of a persistent backend runs here. Transient
// outcomes (EINTR storms, EAGAIN) are re-attempted within the RetryPolicy
// budget — safe because a failed load changes nothing and re-issuing a
// storeRun is idempotent. Escapes are re-attributed with the device-level
// op kind and the final attempt count, keeping the block the backend
// named (for a run, the block whose transfer failed) and its errno detail.
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
      // throws.
      frozen_ = true;
      throw;
    } catch (const TransientIoError& error) {
      if (attempt < budget) {
        ++stats_.io_retries;
        yieldQuanta(retry_policy_.backoffQuantaFor(attempt, id));
        continue;
      }
      ++stats_.io_gave_up;
      obs::flightRecorderNoteFatal(error.what());
      throw TransientIoError(op, error.block(), attempt, error.detail(),
                             error.posixErrno());
    } catch (const PermanentIoError& error) {
      ++stats_.io_gave_up;
      obs::flightRecorderNoteFatal(error.what());
      throw PermanentIoError(op, error.block(), attempt, error.detail(),
                             error.posixErrno());
    }
  }
}

const Word* BlockDevice::backendLoad(BlockId id) {
  if (!storage_persistent_) return storage_->load(id);
  return retryBackend(IoOpKind::kRead, id,
                      [&](std::uint32_t) { return storage_->load(id); });
}

Word* BlockDevice::backendLoadMutable(BlockId id) {
  if (!storage_persistent_) return storage_->loadMutable(id);
  return retryBackend(IoOpKind::kRmw, id,
                      [&](std::uint32_t) { return storage_->loadMutable(id); });
}

void BlockDevice::backendStore(IoOpKind op, BlockId first,
                               std::size_t count) {
  if (!storage_persistent_) return;
  retryBackend(op, first,
               [&](std::uint32_t) { storage_->storeRun(first, count); });
}

void BlockDevice::countedStoreRun(BlockId first, std::size_t count) {
  try {
    backendStore(IoOpKind::kWrite, first, count);
  } catch (const IoError& error) {
    // The landed prefix, plus the write of the block the error names.
    stats_.writes += error.block() - first + 1;
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
}

void BlockDevice::collect(obs::MetricsRegistry& registry) const {
  registry.counter("exthash_io_retries_total").inc(stats_.io_retries);
  registry.counter("exthash_io_gave_up_total").inc(stats_.io_gave_up);
  registry.counter("exthash_device_fsyncs_total").inc(stats_.fsyncs);
}

void BlockDevice::checkLive(BlockId id) const {
  EXTHASH_CHECK_MSG(id < next_id_ && allocated_[id],
                    "access to unallocated block " << id);
}

bool BlockDevice::isAllocated(BlockId id) const noexcept {
  return id < next_id_ && allocated_[id];
}

void BlockDevice::ensureBacking(BlockId last_id) {
  // Growing a file is a backend call like any load or store, so it runs
  // in the one retry ladder; re-issuing it to the same length is
  // idempotent. Its errors name no block.
  if (storage_persistent_) {
    retryBackend(IoOpKind::kWrite, kInvalidBlock, [&](std::uint32_t) {
      storage_->ensureCapacity(last_id + 1);
    });
  } else {
    storage_->ensureCapacity(last_id + 1);
  }
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
      backendStore(IoOpKind::kWrite, first + i, 1);
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
  // Back the extent before claiming its ids: a failed grow leaves the
  // device as it was.
  const BlockId first = next_id_;
  ensureBacking(first + count - 1);
  next_id_ += count;
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

std::span<const Word> BlockDevice::inspect(BlockId id) {
  checkLive(id);
  // A frozen device performs no I/O at all — teardown walks (destructors
  // of the doomed stack inspect chains to free them) must see the
  // last-known frame contents instead of re-raising from a dead backend
  // mid-unwind, which would terminate the process.
  if (frozen_) return {storage_->peek(id), words_per_block_};
  // Uncounted, but retried: buffer-btree's apply path reads leaves here.
  return {backendLoad(id), words_per_block_};
}

void BlockDevice::captureImage(Image& image) {
  image.words_per_block = words_per_block_;
  // resize() and the copy assignments below keep the buffers the image
  // already owns; every word up to next_id is overwritten.
  image.words.resize(next_id_ * words_per_block_);
  for (BlockId id = 0; id < next_id_; ++id) {
    const Word* p = backendLoad(id);
    std::copy(p, p + words_per_block_,
              image.words.begin() +
                  static_cast<std::ptrdiff_t>(id * words_per_block_));
  }
  image.allocated = allocated_;
  image.allocated.resize(next_id_);
  image.free_ranges = free_ranges_;
  image.next_id = next_id_;
  image.blocks_in_use = blocks_in_use_;
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
  if (next_id_ > 0) backendStore(IoOpKind::kWrite, 0, next_id_);
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
