// Typed I/O failures for BlockDevice.
//
// Real devices fail: reads return EIO, writes time out, a sector goes bad
// forever. Every counted access can throw a typed error carrying the op
// kind (read / write / rmw), the BlockId, the attempt count, and a
// transient/permanent classification. TransientIoError models conditions
// a retry can clear (bus glitch, timeout, EAGAIN); a PermanentIoError
// models conditions it cannot (bad sector, device gone). Catch IoError to
// handle both, or the subtypes to distinguish.
//
// Only a persistent backend can fail (FileStorage maps each errno onto
// this taxonomy, extmem/file_ops.h). Tests script the failures at the
// syscall boundary with FaultyFileOps (extmem/faulty_file_ops.h): errno
// schedules, bad byte ranges, short and torn transfers, and power cuts,
// which surface here as DeviceCrashed.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace exthash::extmem {

// Same alias as block_device.h (redeclared identically; fault.h must not
// include block_device.h, which includes this header).
using BlockId = std::uint64_t;

/// The three counted device operations (io_stats.h cost convention).
enum class IoOpKind : std::uint8_t { kRead, kWrite, kRmw };

const char* ioOpKindName(IoOpKind op) noexcept;

/// Base of the I/O failure taxonomy. `attempts()` is the number of access
/// attempts made when the error escaped (1 for an unretried fault; the
/// retry budget for an exhausted one). `posixErrno()` is the errno a
/// file-backed access failed with (0 when no syscall failed);
/// file-backed errors put its symbolic name + strerror text into the
/// message ("permanent write fault on block 7 (attempt 4): EIO —
/// Input/output error (pwrite)"). A failure no one block owns — growing,
/// syncing or opening a file — carries kInvalidBlock, and its message
/// says "no block".
class IoError : public std::runtime_error {
 public:
  IoError(IoOpKind op, BlockId block, bool transient, std::uint32_t attempts,
          const std::string& detail, int posix_errno = 0);

  IoOpKind op() const noexcept { return op_; }
  BlockId block() const noexcept { return block_; }
  /// True when a retry may clear the condition; false for hard faults.
  bool transient() const noexcept { return transient_; }
  std::uint32_t attempts() const noexcept { return attempts_; }
  /// The underlying errno (0 when the fault was not a real syscall).
  int posixErrno() const noexcept { return posix_errno_; }
  /// The raw detail string (without the "… fault on block N" framing),
  /// so re-throws at retry boundaries can preserve the original cause.
  const std::string& detail() const noexcept { return detail_; }

 private:
  IoOpKind op_;
  BlockId block_;
  bool transient_;
  std::uint32_t attempts_;
  int posix_errno_;
  std::string detail_;
};

/// A fault a retry may clear (timeout, bus glitch). The device's retry
/// loop re-attempts these; one escaping means the retry budget ran out.
class TransientIoError : public IoError {
 public:
  TransientIoError(IoOpKind op, BlockId block, std::uint32_t attempts,
                   const std::string& detail, int posix_errno = 0)
      : IoError(op, block, /*transient=*/true, attempts, detail,
                posix_errno) {}
};

/// A fault no retry clears (bad sector, device gone). Escapes immediately.
class PermanentIoError : public IoError {
 public:
  PermanentIoError(IoOpKind op, BlockId block, std::uint32_t attempts,
                   const std::string& detail, int posix_errno = 0)
      : IoError(op, block, /*transient=*/false, attempts, detail,
                posix_errno) {}
};

/// The access hit a power cut: every further access throws this too,
/// until the shim restores power (extmem/faulty_file_ops.h). Permanent on
/// purpose — nothing above the device can retry its way out of a crash;
/// only the recovery path (durability/recovery.h) brings the stack back.
class DeviceCrashed : public PermanentIoError {
 public:
  DeviceCrashed(IoOpKind op, BlockId block, const std::string& detail)
      : PermanentIoError(op, block, /*attempts=*/1, detail) {}
};

}  // namespace exthash::extmem
