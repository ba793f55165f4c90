// FileOps decorator that times and counts every syscall FileStorage issues
// and forwards it to extmem::realFileOps(). Installed through
// StorageOptions::file_ops in durable-ingest-file's traced pass only.
//
// Thread-safe: shard threads pread/pwrite concurrently while the pipeline
// worker fsyncs, so every tally is an atomic. fsync calls also emit a
// trace span (there are few of them); pread/pwrite are tallied only,
// because a checkpoint issues one per table block and spans for them would
// outgrow any sensible trace buffer.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>

#include "extmem/file_ops.h"
#include "harness.h"

namespace perfbench {

class TimingFileOps final : public extmem::FileOps {
 public:
  /// Calls, nanoseconds inside them, and bytes moved, for one syscall.
  struct Counts {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    std::uint64_t bytes = 0;
    double ms() const { return static_cast<double>(ns) / 1e6; }
    Counts operator-(const Counts& rhs) const {
      return Counts{calls - rhs.calls, ns - rhs.ns, bytes - rhs.bytes};
    }
    Counts operator+(const Counts& rhs) const {
      return Counts{calls + rhs.calls, ns + rhs.ns, bytes + rhs.bytes};
    }
  };
  struct Snapshot {
    Counts pread;
    Counts pwrite;
    Counts fsync;
    Snapshot operator-(const Snapshot& rhs) const {
      return Snapshot{pread - rhs.pread, pwrite - rhs.pwrite,
                      fsync - rhs.fsync};
    }
    Snapshot operator+(const Snapshot& rhs) const {
      return Snapshot{pread + rhs.pread, pwrite + rhs.pwrite,
                      fsync + rhs.fsync};
    }
  };

  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override {
    const std::uint64_t start = nowNs();
    const ssize_t got = real_.pread(fd, buf, count, offset);
    pread_.record(start, got);
    return got;
  }

  ssize_t pwrite(int fd, const void* buf, std::size_t count,
                 off_t offset) override {
    const std::uint64_t start = nowNs();
    const ssize_t put = real_.pwrite(fd, buf, count, offset);
    pwrite_.record(start, put);
    return put;
  }

  int fsync(int fd) override {
    obs::TraceSpan span("extmem.file.fsync", "perfbench");
    const std::uint64_t start = nowNs();
    const int rc = real_.fsync(fd);
    fsync_.record(start, 0);
    return rc;
  }

  int fallocate(int fd, off_t offset, off_t len) override {
    return real_.fallocate(fd, offset, len);
  }

  Snapshot snapshot() const {
    return Snapshot{pread_.read(), pwrite_.read(), fsync_.read()};
  }

 private:
  struct Tally {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> bytes{0};

    /// Tally one call; leaves errno as the real syscall set it.
    void record(std::uint64_t start, ssize_t moved) {
      const int saved_errno = errno;
      ns.fetch_add(nowNs() - start, std::memory_order_relaxed);
      calls.fetch_add(1, std::memory_order_relaxed);
      if (moved > 0) {
        bytes.fetch_add(static_cast<std::uint64_t>(moved),
                        std::memory_order_relaxed);
      }
      errno = saved_errno;
    }
    Counts read() const {
      return Counts{calls.load(), ns.load(), bytes.load()};
    }
  };

  extmem::FileOps& real_ = extmem::realFileOps();
  Tally pread_;
  Tally pwrite_;
  Tally fsync_;
};

}  // namespace perfbench
