// Syscall-level fault shim for FileStorage, in the SQLite-VFS tradition —
// the library's one fault injector.
//
// Wraps an inner FileOps (the kernel by default) and scripts failures at
// the syscall boundary — beneath FileStorage's EINTR/short-I/O loops,
// beneath the device's retry ladder, beneath the WAL's ack-after-sync —
// so the whole resilience stack is exercised against exactly the failures
// a real filesystem produces:
//
//   failNth / setErrnoProbability — the nth (or a seeded coin-flip)
//       syscall of a kind returns -1 with a scripted errno.
//   failRange — a bad sector: a byte range of one file fails every
//       transfer that starts in it and cuts short every one that reaches
//       it, until clear().
//   shortReadNth / shortWriteNth — the nth pread/pwrite transfers only
//       `bytes` and returns the short count (the resume loops must cope).
//   tornWriteNth — the nth pwrite persists only a prefix, THEN fails:
//       a sector torn mid-transfer.
//   powerCutAfter / powerCutAtPwrite — the machine dies at the Nth
//       syscall overall, or at the Nth pwrite: the in-flight pwrite may
//       persist a torn prefix, every unsynced buffered write is dropped,
//       and this and every later syscall throws PowerLoss (FileStorage
//       converts it to DeviceCrashed) until restorePower(). This is the
//       library's one crash model.
//
// File scoping: failNth, setErrnoProbability and powerCutAtPwrite take an
// optional fd (FileStorage::fd()), so a schedule can aim at the WAL, the
// manifest or one table shard while other files share the shim. A scoped
// nth counts only that file's syscalls, and a scoped probability draws
// from that file's own seeded stream, so a shard's schedule does not
// depend on how other threads' syscalls interleave with it. Files are
// known by fd alone: scope a script after its file is open. A file that
// reuses a closed file's fd continues its counters and stream, and its
// reads overlay the closed file's unsynced buffered writes; only a power
// cut clears those.
//
// Write buffering (enableWriteBuffering) is the page-cache model that
// makes fsync discipline testable: pwrites are held in order per fd and
// only reach the inner layer at fsync(fd). preads overlay the pending
// buffers (read-your-writes), and a power cut drops everything unsynced —
// so data survives the cut IF AND ONLY IF a sync() barrier covered it.
// Without buffering, a missing fsync could never lose data and the WAL's
// ack-after-sync contract would be vacuous.
//
// Determinism: counters and the probability streams are seeded
// SplitMix64. Thread-safe (one mutex around every call): the pipeline's
// log stage writes the WAL while the worker writes the table files and a
// checkpoint the manifest, all through one shim.
#pragma once

#include <cerrno>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "extmem/file_ops.h"

namespace exthash::extmem {

class FaultyFileOps final : public FileOps {
 public:
  /// The scope of an unscoped script or counter: every file.
  static constexpr int kAnyFile = -1;

  explicit FaultyFileOps(std::uint64_t seed, FileOps* inner = nullptr);

  // ---- Scripting (arm before traffic; thread-safe) ----------------------

  /// The `nth` syscall of kind `sc` fails with `err` (1-based, counted
  /// per kind over every file, or over `fd`'s syscalls only). Sticky
  /// triggers fire on every later matching syscall too, until clear().
  void failNth(FileSyscall sc, std::uint64_t nth, int err,
               bool sticky = false, int fd = kAnyFile);
  /// Every syscall of kind `sc` (on `fd` only, when scoped) fails with
  /// `err` with probability `p` — independent seeded draws, so retries
  /// eventually pass for p < 1.
  void setErrnoProbability(FileSyscall sc, double p, int err,
                           int fd = kAnyFile);
  /// Bytes [offset, offset + length) of `fd` go bad: a pread or pwrite
  /// that starts inside the range fails with `err`, and one that reaches
  /// it from below transfers only the bytes before it.
  void failRange(int fd, off_t offset, off_t length, int err);
  /// The `nth` pread transfers only `bytes` (short read).
  void shortReadNth(std::uint64_t nth, std::size_t bytes);
  /// The `nth` pwrite transfers only `bytes` (short write; succeeds).
  void shortWriteNth(std::uint64_t nth, std::size_t bytes);
  /// The `nth` pwrite persists only `bytes`, then fails with `err`.
  void tornWriteNth(std::uint64_t nth, std::size_t bytes, int err = EIO);
  /// Kill the machine at syscall number `total_syscalls` (1-based, all
  /// kinds): if it is a pwrite, `torn_bytes` of it persist first; all
  /// unsynced buffered writes are dropped; PowerLoss is thrown from then
  /// on until restorePower().
  void powerCutAfter(std::uint64_t total_syscalls, std::size_t torn_bytes = 0);
  /// Kill the machine, as powerCutAfter does, at the `nth` pwrite
  /// (1-based, counted over every file, or over `fd`'s only).
  void powerCutAtPwrite(std::uint64_t nth, std::size_t torn_bytes = 0,
                        int fd = kAnyFile);

  /// Page-cache model: buffer pwrites per fd until fsync(fd). See the
  /// file comment — required for power cuts to test fsync discipline.
  void enableWriteBuffering();

  /// The reboot: lift a fired power cut (buffered writes stay lost).
  void restorePower();
  /// Drop every armed script, bad ranges and probabilities included
  /// (counters and power state survive).
  void clear();

  // ---- Counters ---------------------------------------------------------

  std::uint64_t syscalls() const;
  /// Syscalls of kind `sc` so far, over every file or over `fd`'s only.
  std::uint64_t count(FileSyscall sc, int fd = kAnyFile) const;
  /// Syscalls the shim failed or cut short so far.
  std::uint64_t faultsInjected() const;
  bool powerCutFired() const;

  // ---- FileOps ----------------------------------------------------------

  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override;
  ssize_t pwrite(int fd, const void* buf, std::size_t count,
                 off_t offset) override;
  int fsync(int fd) override;
  int fallocate(int fd, off_t offset, off_t len) override;

 private:
  struct Trigger {
    FileSyscall sc;
    std::uint64_t nth;
    int err;
    bool sticky;
    int fd;
  };
  struct ShortIo {
    std::uint64_t nth;
    std::size_t bytes;
    int err;      // 0 = plain short transfer; nonzero = torn write
    bool torn;
  };
  struct BadRange {
    int fd;
    off_t begin;
    off_t end;
    int err;
  };
  struct PendingWrite {
    int fd;
    off_t offset;
    std::vector<char> data;
  };
  /// One file's syscall counters and seeded probability stream. The
  /// kAnyFile scope counts every file's syscalls and holds the unscoped
  /// probabilities.
  struct Scope {
    std::uint64_t per_kind[4] = {0, 0, 0, 0};
    std::uint64_t rng = 0;
    double probability[4] = {0, 0, 0, 0};
    int err[4] = {0, 0, 0, 0};
  };
  struct PowerCut {
    std::uint64_t at = 0;      // 0 = disarmed
    bool pwrite_only = false;  // count pwrites, not every syscall
    int fd = kAnyFile;         // pwrite_only: whose pwrites count
    std::size_t torn_bytes = 0;
  };

  static constexpr std::size_t index(FileSyscall sc) noexcept {
    return static_cast<std::size_t>(sc);
  }

  /// Advances counters, fires the power cut and scripted faults. Returns
  /// 0, or a scripted errno the caller must report. Throws PowerLoss.
  int gate(FileSyscall sc, const void* in_flight, std::size_t count, int fd,
           off_t offset);
  /// Applies `fd`'s bad ranges to a transfer at `offset`: returns the
  /// errno of a range the transfer starts in, else 0 after shortening
  /// `count` to stop before the first range it reaches.
  int clampToBadRanges(int fd, off_t offset, std::size_t& count);
  Scope& scope(int fd);
  /// One draw from `s`'s stream for kind `k`: its errno when the coin
  /// says fail, else 0 (no draw at all when that kind's probability is 0).
  static int draw(Scope& s, std::size_t k);
  void dieLocked();
  ssize_t bufferedPread(int fd, void* buf, std::size_t count, off_t offset);

  mutable std::mutex mutex_;
  FileOps* inner_;
  std::uint64_t seed_;
  std::uint64_t total_syscalls_ = 0;
  std::uint64_t injected_ = 0;
  std::unordered_map<int, Scope> scopes_;  // by fd, plus kAnyFile
  std::vector<Trigger> triggers_;
  std::vector<BadRange> bad_ranges_;
  std::vector<ShortIo> short_reads_;
  std::vector<ShortIo> short_writes_;
  PowerCut cut_;
  bool dead_ = false;
  bool cut_fired_ = false;
  bool buffering_ = false;
  std::vector<PendingWrite> pending_;  // unsynced writes, in issue order
};

}  // namespace exthash::extmem
