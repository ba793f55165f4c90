#include "extmem/file_storage.h"

#include <errno.h>
#include <fcntl.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "extmem/block_device.h"  // kInvalidBlock
#include "extmem/fault.h"
#include "extmem/file_ops.h"
#include "util/assert.h"

namespace exthash::extmem {

namespace {

// O_DIRECT demands buffer/offset/length alignment; 4096 covers every
// common logical sector size.
constexpr std::size_t kDirectAlign = 4096;
// EINTR storms are retried inline this many times before the condition is
// surfaced as a TransientIoError (the device ladder takes over — a sticky
// shim must not be able to livelock a syscall loop).
constexpr int kEintrBudget = 16;

// fallocate granularity in blocks (batched preallocation).
constexpr std::size_t kPreallocateBlocks = 1024;

[[noreturn]] void throwErrno(IoOpKind op, BlockId block, int err,
                             const char* syscall) {
  const std::string detail = errnoDetail(err, syscall);
  if (errnoIsTransient(err)) {
    throw TransientIoError(op, block, /*attempts=*/1, detail, err);
  }
  throw PermanentIoError(op, block, /*attempts=*/1, detail, err);
}

std::size_t roundUp(std::size_t value, std::size_t to) {
  return (value + to - 1) / to * to;
}

}  // namespace

FileStorage::FileStorage(std::size_t words_per_block, std::string path,
                         StorageOptions options)
    : words_per_block_(words_per_block),
      path_(std::move(path)),
      options_(std::move(options)),
      ops_(options_.file_ops != nullptr ? options_.file_ops
                                        : &realFileOps()),
      mirror_(words_per_block) {
  EXTHASH_CHECK(words_per_block_ >= 1);

  const bool existed = [&] {
    struct stat st {};
    return ::stat(path_.c_str(), &st) == 0;
  }();

  // Truncate: the device starts empty, and a file a dead process left at
  // this path (pid-based names recur) would otherwise serve its stale
  // bytes as fresh blocks, which must read zero.
  int flags = O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC;
#ifdef O_DIRECT
  if (options_.direct_io) flags |= O_DIRECT;
#endif
  fd_ = ::open(path_.c_str(), flags, 0644);
#ifdef O_DIRECT
  if (fd_ < 0 && options_.direct_io) {
    // tmpfs and friends reject O_DIRECT outright: fall back to buffered
    // I/O (directActive() reports the downgrade) instead of failing.
    flags &= ~O_DIRECT;
    fd_ = ::open(path_.c_str(), flags, 0644);
  } else if (fd_ >= 0 && options_.direct_io) {
    direct_active_ = true;
  }
#endif
  if (fd_ < 0) {
    throwErrno(IoOpKind::kWrite, kInvalidBlock, errno, "open");
  }

  const std::size_t block_bytes = words_per_block_ * sizeof(Word);
  slot_bytes_ = direct_active_ ? roundUp(block_bytes, kDirectAlign)
                               : block_bytes;
  if (direct_active_) {
    if (::posix_memalign(&bounce_, kDirectAlign, slot_bytes_) != 0) {
      ops_->close(fd_);
      fd_ = -1;
      throwErrno(IoOpKind::kWrite, kInvalidBlock, ENOMEM, "posix_memalign");
    }
  }

  if (!existed) {
    // The file's bytes are only durable once its directory entry is:
    // fsync the parent after creation, through the same ops seam so the
    // shim sees (and counts) the barrier.
    std::filesystem::path dir = std::filesystem::path(path_).parent_path();
    if (dir.empty()) dir = ".";
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
      int rc;
      int eintr = 0;
      try {
        while ((rc = ops_->fsync(dfd)) < 0 && errno == EINTR &&
               ++eintr < kEintrBudget) {
        }
      } catch (...) {
        ops_->close(dfd);
        throw;
      }
      const int err = errno;
      ops_->close(dfd);
      if (rc < 0) {
        throwErrno(IoOpKind::kWrite, kInvalidBlock, err, "fsync(dir)");
      }
    }
  }
}

FileStorage::~FileStorage() {
  if (bounce_ != nullptr) ::free(bounce_);
  if (fd_ >= 0) ops_->close(fd_);
  if (options_.unlink_on_close && !path_.empty()) ::unlink(path_.c_str());
}

void FileStorage::ensureCapacity(BlockId block_count) {
  mirror_.ensure(block_count);
  if (block_count <= allocated_blocks_) return;
  // Reserve in kPreallocateBlocks-sized extents: one fallocate covers
  // many future allocations, and reads of reserved-but-unwritten slots
  // return zeros — the same fresh-block contract as the memory backend.
  const std::uint64_t target = roundUp(block_count, kPreallocateBlocks);
  try {
    int eintr = 0;
    for (;;) {
      if (ops_->fallocate(fd_, 0,
                          static_cast<off_t>(target * slot_bytes_)) == 0) {
        break;
      }
      if (errno == EINTR && ++eintr < kEintrBudget) continue;
      if (errno == EOPNOTSUPP || errno == EINVAL) {
        // Filesystem without real preallocation: extending the size is
        // enough for the zeros-on-read contract.
        if (::ftruncate(fd_, static_cast<off_t>(target * slot_bytes_)) == 0) {
          break;
        }
      }
      throwErrno(IoOpKind::kWrite, kInvalidBlock, errno, "fallocate");
    }
  } catch (const PowerLoss& cut) {
    throw DeviceCrashed(IoOpKind::kWrite, kInvalidBlock,
                        "power lost during fallocate (syscall " +
                            std::to_string(cut.syscall_index) + ")");
  }
  allocated_blocks_ = target;
}

void FileStorage::readSlot(BlockId id, Word* dst) const {
  const std::size_t block_bytes = words_per_block_ * sizeof(Word);
  char* out = direct_active_ ? static_cast<char*>(bounce_)
                             : reinterpret_cast<char*>(dst);
  const std::size_t want = direct_active_ ? slot_bytes_ : block_bytes;
  const off_t base = static_cast<off_t>(id * slot_bytes_);
  std::size_t done = 0;
  int eintr = 0;
  try {
    while (done < want) {
      const ssize_t n =
          ops_->pread(fd_, out + done, want - done, base + done);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) {
        // Past EOF: a reserved-but-never-written slot reads as zeros.
        std::memset(out + done, 0, want - done);
        done = want;
        break;
      }
      if (errno == EINTR && ++eintr < kEintrBudget) continue;
      throwErrno(IoOpKind::kRead, id, errno, "pread");
    }
  } catch (const PowerLoss& cut) {
    throw DeviceCrashed(IoOpKind::kRead, id,
                        "power lost during pread (syscall " +
                            std::to_string(cut.syscall_index) + ")");
  }
  if (direct_active_) std::memcpy(dst, bounce_, block_bytes);
}

const Word* FileStorage::load(BlockId id) const {
  Word* frame = mirror_.ptr(id);
  readSlot(id, frame);
  return frame;
}

Word* FileStorage::loadMutable(BlockId id) {
  Word* frame = mirror_.ptr(id);
  readSlot(id, frame);
  return frame;
}

Word* FileStorage::frame(BlockId id) { return mirror_.ptr(id); }

const Word* FileStorage::peek(BlockId id) const noexcept {
  return mirror_.ptr(id);
}

void FileStorage::storeRun(BlockId first, std::size_t count) {
  const std::size_t block_bytes = words_per_block_ * sizeof(Word);
  BlockId at = first;  // the block the pwrite in flight begins in
  // A pwrite of `want` bytes at `base`, resumed across EINTR and short
  // transfers. A failure names the block its failing pwrite began in:
  // every block before it landed (storage_backend.h).
  const auto transfer = [&](const char* in, std::size_t want, off_t base) {
    std::size_t done = 0;
    int eintr = 0;
    while (done < want) {
      const off_t offset = base + static_cast<off_t>(done);
      at = static_cast<BlockId>(offset) / slot_bytes_;
      const ssize_t n = ops_->pwrite(fd_, in + done, want - done, offset);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) {
        // A zero-byte pwrite for a nonzero count is a device wedge.
        throwErrno(IoOpKind::kWrite, at, EIO, "pwrite");
      }
      if (errno == EINTR && ++eintr < kEintrBudget) continue;
      throwErrno(IoOpKind::kWrite, at, errno, "pwrite");
    }
  };
  try {
    if (direct_active_) {
      // O_DIRECT: slot by slot through the one aligned bounce buffer.
      char* bounce = static_cast<char*>(bounce_);
      for (BlockId id = first; id < first + count; ++id) {
        std::memcpy(bounce, mirror_.ptr(id), block_bytes);
        std::memset(bounce + block_bytes, 0, slot_bytes_ - block_bytes);
        transfer(bounce, slot_bytes_, static_cast<off_t>(id * slot_bytes_));
      }
      return;
    }
    // Buffered slots are exactly the frames, so the part of the run inside
    // one mirror chunk is one contiguous buffer: one pwrite per chunk.
    for (BlockId id = first; id < first + count;) {
      const std::size_t n = std::min<std::size_t>(first + count - id,
                                                  mirror_.contiguousFrom(id));
      transfer(reinterpret_cast<const char*>(mirror_.ptr(id)),
               n * block_bytes, static_cast<off_t>(id * slot_bytes_));
      id += n;
    }
  } catch (const PowerLoss& cut) {
    throw DeviceCrashed(IoOpKind::kWrite, at,
                        "power lost during pwrite (syscall " +
                            std::to_string(cut.syscall_index) + ")");
  }
}

void FileStorage::sync() {
  int eintr = 0;
  try {
    while (ops_->fsync(fd_) < 0) {
      if (errno == EINTR && ++eintr < kEintrBudget) continue;
      // A failed fsync may already have dropped dirty pages; never
      // classified transient — the caller must treat the data as unacked.
      throw PermanentIoError(IoOpKind::kWrite, kInvalidBlock, /*attempts=*/1,
                             errnoDetail(errno, "fdatasync"), errno);
    }
  } catch (const PowerLoss& cut) {
    throw DeviceCrashed(IoOpKind::kWrite, kInvalidBlock,
                        "power lost during fdatasync (syscall " +
                            std::to_string(cut.syscall_index) + ")");
  }
}

}  // namespace exthash::extmem
