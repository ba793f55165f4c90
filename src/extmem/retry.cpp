#include "extmem/retry.h"

#include <algorithm>

#include "util/random.h"

namespace exthash::extmem {

namespace {
// Seed for the deterministic jitter hash.
constexpr std::uint64_t kJitterSeed = 0x9E3779B97F4A7C15ULL;
}  // namespace

std::uint32_t RetryPolicy::backoffQuantaFor(std::uint32_t attempt,
                                            BlockId block) const noexcept {
  if (backoff_quanta == 0) return 0;
  const std::uint64_t shift = std::min<std::uint32_t>(attempt - 1, 31);
  const std::uint64_t base =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(backoff_quanta)
                                  << shift,
                              max_backoff_quanta);
  // Full jitter: up to the base again, hashed so two devices retrying the
  // same schedule desynchronize without any shared randomness.
  const std::uint64_t jitter =
      splitmix64(kJitterSeed ^ (block * 0x9E3779B97F4A7C15ULL) ^ attempt) %
      (base + 1);
  return static_cast<std::uint32_t>(base + jitter);
}

}  // namespace exthash::extmem
