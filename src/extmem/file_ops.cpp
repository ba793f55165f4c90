#include "extmem/file_ops.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <sstream>

namespace exthash::extmem {

const char* fileSyscallName(FileSyscall sc) noexcept {
  switch (sc) {
    case FileSyscall::kPread:
      return "pread";
    case FileSyscall::kPwrite:
      return "pwrite";
    case FileSyscall::kFsync:
      return "fsync";
    case FileSyscall::kFallocate:
      return "fallocate";
  }
  return "?";
}

const char* errnoName(int err) noexcept {
  switch (err) {
    case EINTR:
      return "EINTR";
    case EAGAIN:
      return "EAGAIN";
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
      return "EWOULDBLOCK";
#endif
    case EBUSY:
      return "EBUSY";
    case ETIMEDOUT:
      return "ETIMEDOUT";
    case ENOMEM:
      return "ENOMEM";
    case EIO:
      return "EIO";
    case ENOSPC:
      return "ENOSPC";
    case EDQUOT:
      return "EDQUOT";
    case EBADF:
      return "EBADF";
    case EROFS:
      return "EROFS";
    case EINVAL:
      return "EINVAL";
    case EFBIG:
      return "EFBIG";
    case ENXIO:
      return "ENXIO";
    case ENODEV:
      return "ENODEV";
    case ENOENT:
      return "ENOENT";
    case EACCES:
      return "EACCES";
    case EPERM:
      return "EPERM";
    case EEXIST:
      return "EEXIST";
    case EOPNOTSUPP:
      return "EOPNOTSUPP";
    default:
      return nullptr;  // caller falls back to the numeric form
  }
}

std::string errnoDetail(int err, const char* syscall) {
  std::ostringstream os;
  if (const char* name = errnoName(err)) {
    os << name;
  } else {
    os << "errno " << err;
  }
  os << " — " << ::strerror(err);
  if (syscall != nullptr) os << " (" << syscall << ")";
  return os.str();
}

bool errnoIsTransient(int err) noexcept {
  switch (err) {
    case EINTR:
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case EBUSY:
    case ETIMEDOUT:
    case ENOMEM:
      return true;
    default:
      // EIO, ENOSPC, EDQUOT, EBADF, EROFS, EINVAL, ENXIO, ENODEV, EFBIG
      // and anything unrecognized: a retry will not help.
      return false;
  }
}

namespace {

class RealFileOps final : public FileOps {
 public:
  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override {
    return ::pread(fd, buf, count, offset);
  }
  ssize_t pwrite(int fd, const void* buf, std::size_t count,
                 off_t offset) override {
    return ::pwrite(fd, buf, count, offset);
  }
  int fsync(int fd) override { return ::fdatasync(fd); }
  int fallocate(int fd, off_t offset, off_t len) override {
    // posix_fallocate returns the error code instead of setting errno;
    // normalize to the -1/errno convention the interface promises.
    const int rc = ::posix_fallocate(fd, offset, len);
    if (rc == 0) return 0;
    errno = rc;
    return -1;
  }
};

}  // namespace

int FileOps::close(int fd) { return ::close(fd); }

FileOps& realFileOps() {
  static RealFileOps ops;
  return ops;
}

}  // namespace exthash::extmem
