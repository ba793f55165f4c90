// File-backed StorageBackend: blocks live in a preallocated file.
//
// Layout: block id N occupies the fixed-size slot [N*slotBytes(),
// (N+1)*slotBytes()). In buffered mode a slot is exactly the block's
// payload (wordsPerBlock() * 8 bytes); with O_DIRECT active it is rounded
// up to the 4096-byte alignment the kernel demands, and transfers go
// through one posix_memalign'd bounce buffer.
//
// Syscall discipline:
//   - load() is one pread of the block's slot. storeRun() is one pwrite
//     per mirror-arena chunk the run touches (1,024 blocks; frames are
//     contiguous only inside a chunk), so a checkpoint flush's sorted
//     dirty runs cost a handful of syscalls, not one per block. With
//     O_DIRECT active a run goes slot by slot through the bounce buffer.
//     A failed run names the block where its failing pwrite began, so
//     every block before the named one landed.
//   - every pread/pwrite runs in an EINTR + short-transfer resume loop
//     (bounded, so a stuck shim cannot livelock); a pread past EOF
//     zero-fills, matching fallocate's reserve-as-zeros semantics
//   - failures map errno onto the device's IoError taxonomy
//     (file_ops.h::errnoIsTransient): EINTR/EAGAIN-class conditions throw
//     TransientIoError — the BlockDevice retry ladder absorbs them —
//     while EIO/ENOSPC/EBADF/EROFS-class throw PermanentIoError. Both
//     carry the errno name + strerror text in the message.
//   - sync() is fdatasync; creation of a fresh file is followed by an
//     fsync of its parent directory, so the directory entry survives too
//   - the file and the directory are closed through FileOps::close, so a
//     shim forgets a closed file before another one can reuse its fd
//   - a scripted PowerLoss (faulty_file_ops.h) is converted to
//     DeviceCrashed at this boundary; the shim keeps failing every
//     syscall until it restores power.
//
// The mirror arena holds one frame per block (chunk-stable, see
// storage_backend.h): load() preads the file into the block's own frame,
// so concurrently held spans to different blocks stay valid and the FILE
// remains the only source of truth — after a power cut, reads report what
// actually survived, not what the process remembers writing.
#pragma once

#include <cstdint>
#include <string>

#include "extmem/storage_backend.h"

namespace exthash::extmem {

class FileStorage final : public StorageBackend {
 public:
  /// Opens (creating if needed) `path` read-write. Throws PermanentIoError
  /// if the file cannot be opened or preallocated. Reads the kFile fields
  /// of `options` (direct_io, unlink_on_close, file_ops); `path` stands
  /// in for its backend and directory.
  FileStorage(std::size_t words_per_block, std::string path,
              StorageOptions options = {});
  ~FileStorage() override;

  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  // StorageBackend
  std::size_t wordsPerBlock() const noexcept override {
    return words_per_block_;
  }
  void ensureCapacity(BlockId block_count) override;
  Word* load(BlockId id) override;
  Word* frame(BlockId id) override;
  void storeRun(BlockId first, std::size_t count) override;
  void sync() override;
  bool persistent() const noexcept override { return true; }
  std::string_view name() const noexcept override {
    return direct_active_ ? "file+direct" : "file";
  }

  const std::string& path() const noexcept { return path_; }
  /// The open file, for scoping a FaultyFileOps script to this device.
  int fd() const noexcept { return fd_; }
  /// Whether O_DIRECT actually engaged (tmpfs and friends refuse it; the
  /// constructor falls back to buffered I/O rather than failing).
  bool directActive() const noexcept { return direct_active_; }
  std::size_t slotBytes() const noexcept { return slot_bytes_; }

 private:
  void readSlot(BlockId id, Word* dst);

  std::size_t words_per_block_;
  std::string path_;
  StorageOptions options_;
  FileOps* ops_;  // never null after construction
  int fd_ = -1;
  bool direct_active_ = false;
  std::size_t slot_bytes_ = 0;
  std::uint64_t allocated_blocks_ = 0;  // fallocate high-water, in blocks
  detail::ChunkArena mirror_;
  // O_DIRECT bounce buffer (posix_memalign'd to the transfer alignment);
  // null in buffered mode, where frames transfer directly.
  void* bounce_ = nullptr;
};

}  // namespace exthash::extmem
