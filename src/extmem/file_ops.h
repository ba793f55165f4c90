// Syscall virtualization for FileStorage, SQLite-VFS style.
//
// Every syscall FileStorage issues goes through a FileOps vtable:
// realFileOps() forwards to the kernel; FaultyFileOps
// (extmem/faulty_file_ops.h) scripts errno faults, short transfers, torn
// writes and power cuts at the syscall boundary. The indirection is what
// lets the crash-recovery suite drive its full kind × crash-point × seed
// sweeps against real files — the fault fires in "the kernel", and
// everything above (FileStorage's retry loops, the device's IoError
// ladder, the WAL's ack-after-sync) reacts exactly as it would in
// production.
//
// Conventions match POSIX: pread/pwrite return the byte count or -1 with
// errno set; fsync/fallocate/close return 0 or -1 with errno set. fsync means
// fdatasync-strength (data + size durable); fallocate means
// posix_fallocate (extend and reserve [0, len)).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace exthash::extmem {

/// The syscalls a shim script can fail, in shim-script vocabulary.
enum class FileSyscall : std::uint8_t { kPread, kPwrite, kFsync, kFallocate };

const char* fileSyscallName(FileSyscall sc) noexcept;

/// Symbolic errno name ("EIO", "ENOSPC", ...; "errno N" for exotics).
const char* errnoName(int err) noexcept;

/// Human detail for IoError messages: "EIO — Input/output error (pwrite)".
std::string errnoDetail(int err, const char* syscall);

/// Classification behind the errno→IoError mapping: EINTR/EAGAIN-class
/// conditions a retry can clear vs EIO/ENOSPC-class hard failures.
bool errnoIsTransient(int err) noexcept;

/// Thrown by a fault shim when an armed power cut fires: the machine is
/// dead mid-syscall. Deliberately NOT an IoError — it must sail through
/// FileStorage's EINTR/short-I/O loops untouched; FileStorage converts it
/// to DeviceCrashed at its boundary, which freezes the device.
struct PowerLoss {
  std::uint64_t syscall_index = 0;  // 1-based index of the fatal syscall
};

class FileOps {
 public:
  virtual ~FileOps() = default;

  virtual ssize_t pread(int fd, void* buf, std::size_t count,
                        off_t offset) = 0;
  virtual ssize_t pwrite(int fd, const void* buf, std::size_t count,
                         off_t offset) = 0;
  /// fdatasync-strength barrier.
  virtual int fsync(int fd) = 0;
  /// posix_fallocate semantics over [offset, offset+len).
  virtual int fallocate(int fd, off_t offset, off_t len) = 0;
  /// close(2). A layer that keeps per-file state (FaultyFileOps) learns
  /// here that the fd is free for reuse. Defaults to the kernel's close,
  /// so a decorator that only observes the transfers need not forward it.
  virtual int close(int fd);
};

/// The kernel. Stateless and shared.
FileOps& realFileOps();

}  // namespace exthash::extmem
