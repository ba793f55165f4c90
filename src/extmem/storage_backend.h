// Storage seam under BlockDevice: where block contents actually live.
//
// BlockDevice owns the MODEL — counted I/O, allocation, the retry ladder
// around every backend call. A StorageBackend owns the BYTES. Two
// backends:
//
//   MemStorage  — the original in-memory chunk array. load is pointer
//                 math; storeRun and sync are no-ops. Byte-identical to the
//                 pre-seam device, still the default, and infallible.
//   FileStorage — a preallocated file driven by pread/pwrite/fdatasync
//                 (extmem/file_storage.h). errno outcomes map onto the
//                 IoError taxonomy (extmem/fault.h), which the device's
//                 retry ladder and the quarantine/fail-stop layers above
//                 it handle. Tests script those outcomes with a
//                 FaultyFileOps shim (extmem/faulty_file_ops.h).
//
// Contract (what BlockDevice relies on):
//   - load(id) returns a pointer to the block's current contents that
//     stays valid for that block until its next load/frame — NEVER
//     invalidated by capacity growth or access to OTHER blocks. Callers
//     hold spans into several blocks at once (e.g. a bucket page and its
//     overflow page), so backends keep one stable frame per block
//     (chunked arena), not a shared bounce buffer. A writer mutates the
//     loaded frame, then storeRun(id, 1) persists it. frame(id) skips the
//     read (blind overwrite).
//   - storeRun(first, count) persists the whole frames of the consecutive
//     blocks [first, first + count). A failure names the block where the
//     failing transfer began: every block before it landed, and later
//     ones may have too. Re-issuing a run with the same frame contents is
//     idempotent (full-block pwrites at fixed offsets), which is what
//     makes the device-level transient retry of a whole run safe on real
//     files.
//   - sync() is the durability barrier (fdatasync); throwing means dirty
//     state may be lost and the caller must treat the data as unacked.
//   - Backends throw TransientIoError / PermanentIoError (errno attached)
//     on failure and PowerLoss-derived DeviceCrashed on a scripted power
//     cut; MemStorage never throws.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace exthash::extmem {

// Same aliases as block_device.h (this header must not include it).
using Word = std::uint64_t;
using BlockId = std::uint64_t;

class FileOps;  // syscall virtualization seam, see extmem/file_ops.h

namespace detail {

/// Chunk-stable per-block frame arena shared by both backends: block
/// frames never move once created, so spans stay valid while the caller
/// allocates more blocks (the documented BlockDevice guarantee).
class ChunkArena {
 public:
  explicit ChunkArena(std::size_t words_per_block)
      : words_per_block_(words_per_block) {}

  void ensure(BlockId block_count) {
    const std::size_t chunks_needed =
        block_count == 0 ? 0 : (block_count - 1) / kBlocksPerChunk + 1;
    while (chunks_.size() < chunks_needed) {
      chunks_.push_back(
          std::make_unique<Word[]>(kBlocksPerChunk * words_per_block_));
    }
  }

  Word* ptr(BlockId id) const {
    return chunks_[id / kBlocksPerChunk].get() +
           (id % kBlocksPerChunk) * words_per_block_;
  }

  /// Frames [id, id + n) are contiguous in memory for any n up to this:
  /// the blocks left in id's chunk.
  std::size_t contiguousFrom(BlockId id) const noexcept {
    return kBlocksPerChunk - id % kBlocksPerChunk;
  }

 private:
  static constexpr std::size_t kBlocksPerChunk = 1024;

  std::size_t words_per_block_;
  std::vector<std::unique_ptr<Word[]>> chunks_;
};

}  // namespace detail

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual std::size_t wordsPerBlock() const noexcept = 0;

  /// Grow the backing store to cover ids [0, block_count).
  virtual void ensureCapacity(BlockId block_count) = 0;

  /// Fetch the block's current contents into its stable frame and return
  /// it. A reader only reads it; a writer mutates it, then storeRun(id, 1).
  virtual Word* load(BlockId id) = 0;
  /// The block's frame WITHOUT reading the device (blind overwrite path);
  /// contents are whatever the frame last held. Pair with storeRun.
  virtual Word* frame(BlockId id) = 0;
  /// Persist the whole frames of blocks [first, first + count) (count >=
  /// 1; see the contract above). No-op for memory backends.
  virtual void storeRun(BlockId first, std::size_t count) = 0;
  /// Durability barrier (fdatasync for files; no-op in memory).
  virtual void sync() = 0;

  /// True when storeRun()/sync() hit a medium that can actually fail — the
  /// device wraps accesses in its retry ladder then.
  virtual bool persistent() const noexcept = 0;
  virtual std::string_view name() const noexcept = 0;
};

/// The original in-memory array, now behind the seam. Infallible.
class MemStorage final : public StorageBackend {
 public:
  explicit MemStorage(std::size_t words_per_block)
      : words_per_block_(words_per_block), arena_(words_per_block) {}

  std::size_t wordsPerBlock() const noexcept override {
    return words_per_block_;
  }
  void ensureCapacity(BlockId block_count) override {
    arena_.ensure(block_count);
  }
  Word* load(BlockId id) override { return arena_.ptr(id); }
  Word* frame(BlockId id) override { return arena_.ptr(id); }
  void storeRun(BlockId, std::size_t) override {}
  void sync() override {}
  bool persistent() const noexcept override { return false; }
  std::string_view name() const noexcept override { return "mem"; }

 private:
  std::size_t words_per_block_;
  detail::ChunkArena arena_;
};

/// Construction-time selection of where a BlockDevice keeps its blocks.
/// Default-constructed options mean MemStorage — every existing call site
/// is unchanged.
struct StorageOptions {
  enum class Backend : std::uint8_t { kMemory, kFile };

  Backend backend = Backend::kMemory;
  /// kFile: directory for the backing file (created if missing; empty =
  /// a per-process folder under the system temp directory).
  std::string directory;
  /// kFile: request O_DIRECT. Best effort — filesystems without it
  /// (tmpfs) silently fall back to buffered I/O; FileStorage::directActive
  /// reports what engaged.
  bool direct_io = false;
  /// kFile: delete the backing file when the backend is destroyed. Keep
  /// files (false) only for postmortems — device metadata is in-process,
  /// so a leftover file is not reopenable as a device by itself.
  bool unlink_on_close = true;
  /// kFile: syscall layer. nullptr = real syscalls; tests install a
  /// FaultyFileOps shim here (extmem/faulty_file_ops.h). Non-owning; must
  /// outlive the storage.
  FileOps* file_ops = nullptr;
};

/// Build a backend per `options`; `name` seeds the file name (a process-
/// unique suffix is appended, so one directory serves many devices).
std::unique_ptr<StorageBackend> makeStorage(std::size_t words_per_block,
                                            const StorageOptions& options,
                                            std::string_view name = "device");

}  // namespace exthash::extmem
