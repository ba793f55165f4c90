// Block-framed write-ahead log over a dedicated BlockDevice.
//
// The pipeline's sealed staging window is the WAL unit: one sealed window
// = one log record (the ROADMAP's "the staging window is already the
// natural WAL unit"). A record carries a monotonic LSN, the op payload,
// and a per-record checksum; records are packed as a word stream across
// block boundaries, so a record may straddle blocks — the torn-write
// tests exercise exactly that seam.
//
// On-device layout (the WAL owns its whole device):
//
//   block word 0:  kWalBlockMagic(16 bits) | block sequence number(48)
//   words 1..B-1:  payload stream
//
//   record stream: [kRecordMagic, lsn, op_count, checksum,
//                   op_count × (kind, key, value)] ...
//
// The tail block is REWRITTEN (one counted overwrite, from an in-memory
// copy) each time records extend into it — the sector-rewrite model a
// real log would use. A crash tearing that rewrite leaves a prefix of the
// new contents over a suffix of the old; WalReader's per-record checksum
// and LSN contiguity check catch every such tear and truncate the tail
// (torn-tail detection). Block sequence numbers are never reused (they
// keep counting across reset()), so a scan can order blocks without any
// mutable superblock.
//
// One appender: the pipeline's log stage is the WAL's only production
// appender and appends serially, so append() writes and syncs its one
// record under the writer's mutex. Concurrent appends are safe but
// simply queue on that mutex.
//
// Acknowledged = durable: an op is acknowledged once its record's LSN is
// <= durableLsn(). The crash-recovery oracle snapshots durableLsn() at
// the crash and demands every acknowledged window survive recovery.
#pragma once

#include <cstdint>
#include <exception>
#include <span>
#include <vector>

#include "extmem/block_device.h"
#include "tables/hash_table.h"
#include "util/thread_annotations.h"

namespace exthash::durability {

/// 16-bit magic in the top bits of every WAL block's word 0; the low 48
/// bits hold the block's sequence number.
inline constexpr extmem::Word kWalBlockMagic = 0xB10CULL;
/// First word of every record in the payload stream (nonzero, so the
/// zero-filled unwritten tail reads as a clean end).
inline constexpr extmem::Word kWalRecordMagic = 0x57414C5245C0DE01ULL;

/// Chained SplitMix64 checksum over a record's header+payload words.
std::uint64_t walChecksum(std::uint64_t lsn,
                          std::span<const extmem::Word> payload);

class WalWriter {
 public:
  /// The writer owns the log layout on `device` (which must be dedicated
  /// to it). `first_lsn` seeds the LSN sequence (1 for a fresh log).
  explicit WalWriter(extmem::BlockDevice& device, std::uint64_t first_lsn = 1);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Append one record for a sealed window; returns its LSN once the
  /// record is written and synced. Thread-safe (appends serialize).
  /// Throws the device's error (e.g. DeviceCrashed) if the write or the
  /// sync fails; once one has failed the writer is poisoned and every
  /// append rethrows until reset().
  std::uint64_t append(std::span<const tables::Op> ops);

  /// Highest LSN known durable (0 = none). Acknowledgement boundary.
  /// Callable from any thread; it waits out an append in flight.
  std::uint64_t durableLsn() const;

  /// Truncate the whole log: free every block and continue the LSN
  /// sequence at `next_lsn` (monotonicity across resets is the fence
  /// that makes replay idempotent — an LSN is never reused). Called at
  /// checkpoints once every logged record is covered by the manifest.
  void reset(std::uint64_t next_lsn);

  std::uint64_t recordsAppended() const;
  std::uint64_t blocksWritten() const;
  /// Always 0: each append writes its own record (see the file comment).
  /// Kept for perfbench's durability.group_commits metric.
  std::uint64_t groupCommits() const { return 0; }
  std::size_t blocksInLog() const;

 private:
  void appendWordsLocked(std::span<const extmem::Word> words);
  void startNewTailBlock();
  void flushTailBlock();

  extmem::BlockDevice& device_;
  const std::size_t payload_per_block_;

  mutable util::Mutex mutex_;
  std::exception_ptr poisoned_;
  std::uint64_t next_lsn_;
  std::uint64_t durable_lsn_;
  std::uint64_t seq_counter_ = 0;
  std::vector<extmem::BlockId> blocks_;
  std::vector<extmem::Word> tail_block_;  // in-memory copy of the tail
  std::size_t tail_used_ = 0;             // payload words used in it
  std::uint64_t records_appended_ = 0;
  std::uint64_t blocks_written_ = 0;
};

/// One decoded WAL record: the ops of one sealed window.
struct WalRecord {
  std::uint64_t lsn = 0;
  std::vector<tables::Op> ops;
};

struct WalLog {
  std::vector<WalRecord> records;
  /// True when the scan stopped at invalid data (torn tail truncated)
  /// rather than a clean zero-filled end.
  bool torn_tail = false;
  /// LSN after the last valid record (first_lsn for an empty log).
  std::uint64_t next_lsn = 1;
};

class WalReader {
 public:
  explicit WalReader(extmem::BlockDevice& device) : device_(device) {}

  /// Scan the whole device: collect WAL blocks by sequence number, parse
  /// the payload stream, validate each record (magic, checksum, LSN
  /// contiguity), and truncate at the first invalid word. One counted
  /// read per allocated block.
  WalLog readAll();

 private:
  extmem::BlockDevice& device_;
};

}  // namespace exthash::durability
