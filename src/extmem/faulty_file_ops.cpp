#include "extmem/faulty_file_ops.h"

#include <algorithm>
#include <cstring>

#include "util/random.h"

namespace exthash::extmem {

FaultyFileOps::FaultyFileOps(std::uint64_t seed, FileOps* inner)
    : inner_(inner != nullptr ? inner : &realFileOps()), seed_(seed) {}

void FaultyFileOps::failNth(FileSyscall sc, std::uint64_t nth, int err,
                            bool sticky, int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  triggers_.push_back(Trigger{sc, nth, err, sticky, fd});
}

void FaultyFileOps::setErrnoProbability(FileSyscall sc, double p, int err,
                                        int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  Scope& s = scope(fd);
  s.probability[index(sc)] = p;
  s.err[index(sc)] = err;
}

void FaultyFileOps::failRange(int fd, off_t offset, off_t length, int err) {
  std::lock_guard<std::mutex> lock(mutex_);
  bad_ranges_.push_back(BadRange{fd, offset, offset + length, err});
}

void FaultyFileOps::shortReadNth(std::uint64_t nth, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  short_reads_.push_back(ShortIo{nth, bytes, 0, false});
}

void FaultyFileOps::shortWriteNth(std::uint64_t nth, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  short_writes_.push_back(ShortIo{nth, bytes, 0, false});
}

void FaultyFileOps::tornWriteNth(std::uint64_t nth, std::size_t bytes,
                                 int err) {
  std::lock_guard<std::mutex> lock(mutex_);
  short_writes_.push_back(ShortIo{nth, bytes, err, true});
}

void FaultyFileOps::powerCutAfter(std::uint64_t total_syscalls,
                                  std::size_t torn_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  cut_ = PowerCut{total_syscalls, false, kAnyFile, torn_bytes};
}

void FaultyFileOps::powerCutAtPwrite(std::uint64_t nth,
                                     std::size_t torn_bytes, int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  cut_ = PowerCut{nth, true, fd, torn_bytes};
}

void FaultyFileOps::enableWriteBuffering() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffering_ = true;
}

void FaultyFileOps::restorePower() {
  std::lock_guard<std::mutex> lock(mutex_);
  dead_ = false;
}

void FaultyFileOps::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  triggers_.clear();
  bad_ranges_.clear();
  short_reads_.clear();
  short_writes_.clear();
  for (auto& [fd, s] : scopes_) {
    for (double& p : s.probability) p = 0;
  }
  cut_ = PowerCut{};
}

std::uint64_t FaultyFileOps::syscalls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_syscalls_;
}

std::uint64_t FaultyFileOps::count(FileSyscall sc, int fd) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = scopes_.find(fd);
  return it == scopes_.end() ? 0 : it->second.per_kind[index(sc)];
}

std::uint64_t FaultyFileOps::faultsInjected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

bool FaultyFileOps::powerCutFired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cut_fired_;
}

FaultyFileOps::Scope& FaultyFileOps::scope(int fd) {
  const auto [it, fresh] = scopes_.try_emplace(fd);
  if (fresh) {
    // Each file's own stream; kAnyFile (fd + 1 == 0) gets the seed's.
    it->second.rng = splitmix64(
        seed_ ^ 0xF11E0F5FA017C0DEULL ^
        static_cast<std::uint64_t>(fd + 1) * 0x9E3779B97F4A7C15ULL);
  }
  return it->second;
}

int FaultyFileOps::draw(Scope& s, std::size_t k) {
  const double p = s.probability[k];
  if (p <= 0.0) return 0;
  s.rng += 0x9e3779b97f4a7c15ULL;
  const double u = static_cast<double>(splitmix64(s.rng) >> 11) * 0x1.0p-53;
  return u < p ? s.err[k] : 0;
}

void FaultyFileOps::dieLocked() {
  cut_fired_ = true;
  dead_ = true;
  cut_ = PowerCut{};
  // The page cache is gone: everything unsynced is lost, even writes
  // issued before the cut — that is the whole point of fsync discipline.
  pending_.clear();
  throw PowerLoss{total_syscalls_};
}

int FaultyFileOps::gate(FileSyscall sc, const void* in_flight,
                        std::size_t count, int fd, off_t offset) {
  if (dead_) throw PowerLoss{total_syscalls_};
  ++total_syscalls_;
  const std::size_t k = index(sc);
  Scope& any = scope(kAnyFile);
  Scope& mine = scope(fd);
  const std::uint64_t n = ++any.per_kind[k];
  const std::uint64_t file_n = ++mine.per_kind[k];
  // This syscall's number among those a script scoped to `scope` counts
  // (0 when the script watches another file).
  const auto seen = [&](int scope) -> std::uint64_t {
    if (scope == kAnyFile) return n;
    return scope == fd ? file_n : 0;
  };

  const std::uint64_t cut_seen = !cut_.pwrite_only ? total_syscalls_
                                 : sc == FileSyscall::kPwrite ? seen(cut_.fd)
                                                              : 0;
  if (cut_.at != 0 && cut_seen >= cut_.at) {
    // A cut mid-pwrite may leave a torn prefix on the platter — written
    // STRAIGHT to the inner layer: a partial writeback that survives
    // while older unsynced writes do not (real page caches reorder).
    if (sc == FileSyscall::kPwrite && cut_.torn_bytes > 0 &&
        in_flight != nullptr) {
      const std::size_t torn = std::min(cut_.torn_bytes, count);
      const char* src = static_cast<const char*>(in_flight);
      std::size_t done = 0;
      while (done < torn) {
        const ssize_t w = inner_->pwrite(fd, src + done, torn - done,
                                         offset + static_cast<off_t>(done));
        if (w <= 0) break;  // the platter is dying anyway
        done += static_cast<std::size_t>(w);
      }
    }
    dieLocked();
  }

  for (std::size_t i = 0; i < triggers_.size(); ++i) {
    const Trigger& t = triggers_[i];
    if (t.sc != sc || (t.sticky ? seen(t.fd) < t.nth : seen(t.fd) != t.nth)) {
      continue;
    }
    const int err = t.err;
    if (!t.sticky) {
      triggers_.erase(triggers_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ++injected_;
    return err;
  }

  int err = draw(mine, k);
  if (err == 0) err = draw(any, k);
  if (err != 0) ++injected_;
  return err;
}

int FaultyFileOps::clampToBadRanges(int fd, off_t offset,
                                    std::size_t& count) {
  for (const BadRange& r : bad_ranges_) {
    if (r.fd != fd) continue;
    if (offset >= r.begin && offset < r.end) {
      ++injected_;
      return r.err;
    }
    if (offset < r.begin &&
        static_cast<std::size_t>(r.begin - offset) < count) {
      count = static_cast<std::size_t>(r.begin - offset);
      ++injected_;
    }
  }
  return 0;
}

ssize_t FaultyFileOps::bufferedPread(int fd, void* buf, std::size_t count,
                                     off_t offset) {
  ssize_t n = inner_->pread(fd, buf, count, offset);
  if (n < 0) return n;
  // Overlay unsynced writes in issue order (read-your-writes; later
  // writes win). An overlay may extend past what the inner read returned.
  std::size_t valid = static_cast<std::size_t>(n);
  char* out = static_cast<char*>(buf);
  for (const PendingWrite& w : pending_) {
    if (w.fd != fd) continue;
    const off_t w_end = w.offset + static_cast<off_t>(w.data.size());
    const off_t r_end = offset + static_cast<off_t>(count);
    if (w_end <= offset || w.offset >= r_end) continue;
    const off_t from = std::max(w.offset, offset);
    const off_t to = std::min(w_end, r_end);
    const std::size_t dst_off = static_cast<std::size_t>(from - offset);
    if (dst_off > valid) {
      std::memset(out + valid, 0, dst_off - valid);
    }
    std::memcpy(out + dst_off,
                w.data.data() + static_cast<std::size_t>(from - w.offset),
                static_cast<std::size_t>(to - from));
    valid = std::max(valid, static_cast<std::size_t>(to - offset));
  }
  return static_cast<ssize_t>(valid);
}

ssize_t FaultyFileOps::pread(int fd, void* buf, std::size_t count,
                             off_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t want = count;
  int err = gate(FileSyscall::kPread, nullptr, count, fd, offset);
  if (err == 0) err = clampToBadRanges(fd, offset, want);
  if (err != 0) {
    errno = err;
    return -1;
  }
  const std::uint64_t n =
      scope(kAnyFile).per_kind[index(FileSyscall::kPread)];
  for (std::size_t i = 0; i < short_reads_.size(); ++i) {
    if (short_reads_[i].nth != n) continue;
    want = std::min(want, short_reads_[i].bytes);
    short_reads_.erase(short_reads_.begin() + static_cast<std::ptrdiff_t>(i));
    ++injected_;
    break;
  }
  return buffering_ ? bufferedPread(fd, buf, want, offset)
                    : inner_->pread(fd, buf, want, offset);
}

ssize_t FaultyFileOps::pwrite(int fd, const void* buf, std::size_t count,
                              off_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n_bytes = count;
  int err = gate(FileSyscall::kPwrite, buf, count, fd, offset);
  if (err == 0) err = clampToBadRanges(fd, offset, n_bytes);
  if (err != 0) {
    errno = err;
    return -1;
  }
  bool torn = false;
  int torn_err = 0;
  const std::uint64_t n =
      scope(kAnyFile).per_kind[index(FileSyscall::kPwrite)];
  for (std::size_t i = 0; i < short_writes_.size(); ++i) {
    if (short_writes_[i].nth != n) continue;
    n_bytes = std::min(n_bytes, short_writes_[i].bytes);
    torn = short_writes_[i].torn;
    torn_err = short_writes_[i].err;
    short_writes_.erase(short_writes_.begin() +
                        static_cast<std::ptrdiff_t>(i));
    ++injected_;
    break;
  }

  if (buffering_) {
    if (n_bytes > 0) {
      const char* src = static_cast<const char*>(buf);
      pending_.push_back(PendingWrite{fd, offset,
                                      std::vector<char>(src, src + n_bytes)});
    }
  } else {
    const char* src = static_cast<const char*>(buf);
    std::size_t done = 0;
    while (done < n_bytes) {
      const ssize_t w = inner_->pwrite(fd, src + done, n_bytes - done,
                                       offset + static_cast<off_t>(done));
      if (w < 0) return w;  // inner errno stands
      if (w == 0) {
        errno = EIO;
        return -1;
      }
      done += static_cast<std::size_t>(w);
    }
  }
  if (torn) {
    // The prefix is on the platter (or in the cache); the syscall still
    // reports failure — a sector torn mid-transfer.
    errno = torn_err;
    return -1;
  }
  return static_cast<ssize_t>(n_bytes);
}

bool FaultyFileOps::writeBackLocked(int fd) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    PendingWrite& w = pending_[i];
    if (w.fd != fd) {
      if (kept != i) pending_[kept] = std::move(w);
      ++kept;
      continue;
    }
    std::size_t done = 0;
    while (done < w.data.size()) {
      const ssize_t r =
          inner_->pwrite(fd, w.data.data() + done, w.data.size() - done,
                         w.offset + static_cast<off_t>(done));
      if (r <= 0) {
        // Writeback failed: keep the unflushed tail pending and report
        // the failure (fsyncgate semantics are the CALLER's problem).
        for (std::size_t j = i; j < pending_.size(); ++j) {
          if (kept != j) pending_[kept] = std::move(pending_[j]);
          ++kept;
        }
        pending_.resize(kept);
        if (r == 0) errno = EIO;
        return false;
      }
      done += static_cast<std::size_t>(r);
    }
  }
  pending_.resize(kept);
  return true;
}

int FaultyFileOps::fsync(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int err = gate(FileSyscall::kFsync, nullptr, 0, fd, 0);
  if (err != 0) {
    errno = err;
    return -1;
  }
  if (!writeBackLocked(fd)) return -1;
  return inner_->fsync(fd);
}

int FaultyFileOps::close(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The kernel writes a closed file's dirty pages back; a cut that already
  // fired has dropped them. A tail whose write-back fails dies with the
  // file.
  const bool written = writeBackLocked(fd);
  const int err = errno;
  std::erase_if(pending_, [fd](const PendingWrite& w) { return w.fd == fd; });
  // The fd is free for reuse: the file that gets it next starts clean.
  scopes_.erase(fd);
  std::erase_if(triggers_, [fd](const Trigger& t) { return t.fd == fd; });
  std::erase_if(bad_ranges_, [fd](const BadRange& r) { return r.fd == fd; });
  if (cut_.fd == fd) cut_ = PowerCut{};
  const int rc = inner_->close(fd);
  if (!written) {
    errno = err;
    return -1;
  }
  return rc;
}

int FaultyFileOps::fallocate(int fd, off_t offset, off_t len) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int err = gate(FileSyscall::kFallocate, nullptr, 0, fd, offset);
  if (err != 0) {
    errno = err;
    return -1;
  }
  return inner_->fallocate(fd, offset, len);
}

}  // namespace exthash::extmem
