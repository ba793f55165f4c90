// Bounded retry with exponential backoff + deterministic jitter for
// transient I/O faults.
//
// The one retry loop lives in BlockDevice (block_device.cpp), at the
// single choke point every counted access funnels through — the guarded
// withRead / withWrite / withOverwrite calls — so CachedBlockIo, the
// BlockCache's miss-fill and write-back paths, and the tables' direct
// device accesses (merge cursors, run writers) all inherit it. Each
// attempt is one backend call. A TransientIoError from a syscall (EINTR
// storms, EAGAIN) is re-attempted up to RetryPolicy::max_attempts times
// with exponentially growing, jittered backoff; a PermanentIoError
// escapes immediately. Re-attempting is always safe: a failed load has
// no effect, and a store is an idempotent full-block write.
//
// Determinism: backoff is expressed in scheduler-yield quanta and the
// jitter is a pure hash of (seed, block, attempt) — no wall clock, no
// global RNG — so a seeded chaos run replays identically.
//
// Accounting: each re-attempt increments IoStats::io_retries; an escape
// (budget exhausted, or permanent) increments IoStats::io_gave_up;
// BlockDevice::collect exports both.
#pragma once

#include <cstdint>

#include "extmem/fault.h"

namespace exthash::extmem {

struct RetryPolicy {
  /// Total attempts per access, the first included (>= 1). 1 disables
  /// retrying: the first fault escapes.
  std::uint32_t max_attempts = 4;
  /// Yield quanta before the second attempt; doubles per attempt after.
  std::uint32_t backoff_quanta = 1;
  /// Cap on the exponential base (jitter can add up to the same again).
  std::uint32_t max_backoff_quanta = 64;

  /// Backoff before attempt `attempt + 1` (so attempt is >= 1): the
  /// capped exponential base plus a full-jitter term hashed from
  /// (block, attempt). Pure function — replayable.
  std::uint32_t backoffQuantaFor(std::uint32_t attempt,
                                 BlockId block) const noexcept;
};

}  // namespace exthash::extmem
