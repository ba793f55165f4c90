#include "extmem/replacement_policy.h"

#include <algorithm>

#include "util/assert.h"

namespace exthash::extmem {

// Queue roles per policy (cache_directory.h):
//   LRU  kRecent = the list
//   2Q   kRecent = A1in (FIFO of newcomers), kFrequent = Am (LRU of
//        proven-hot blocks), kRecentGhost = A1out (ghost FIFO of ids
//        evicted from A1in)
//   ARC  kRecent = T1, kFrequent = T2 (resident, seen once / twice+),
//        kRecentGhost = B1, kFrequentGhost = B2 (ghosts of their evictions)
namespace {

constexpr std::uint8_t kRecent = CacheDirectory::kRecent;
constexpr std::uint8_t kFrequent = CacheDirectory::kFrequent;
constexpr std::uint8_t kRecentGhost = CacheDirectory::kRecentGhost;
constexpr std::uint8_t kFrequentGhost = CacheDirectory::kFrequentGhost;

}  // namespace

ReplacementKind parseReplacementKind(const std::string& name) {
  if (name == "lru") return ReplacementKind::kLru;
  if (name == "2q") return ReplacementKind::kTwoQ;
  if (name == "arc") return ReplacementKind::kArc;
  EXTHASH_CHECK_MSG(false, "unknown replacement policy '" << name << "'");
  return ReplacementKind::kLru;
}

std::string_view replacementKindName(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru: return "lru";
    case ReplacementKind::kTwoQ: return "2q";
    case ReplacementKind::kArc: return "arc";
  }
  return "?";
}

ReplacementPolicy::ReplacementPolicy(ReplacementKind kind,
                                     CacheDirectory& directory,
                                     MemoryBudget& budget,
                                     std::size_t capacity_blocks)
    : kind_(kind),
      dir_(directory),
      capacity_(capacity_blocks),
      // Classic 2Q tuning: A1in ~ 25% of the frames.
      kin_(std::max<std::size_t>(1, capacity_blocks / 4)),
      ghost_quota_(ghostQuota(capacity_blocks, 0)),
      ghost_charge_(budget, ghost_quota_ * kGhostEntryWords) {
  dir_.reserve(capacity_blocks + ghost_quota_);
}

std::size_t ReplacementPolicy::queuesUsed() const noexcept {
  switch (kind_) {
    case ReplacementKind::kLru: return 1;
    case ReplacementKind::kTwoQ: return 3;
    case ReplacementKind::kArc: return 4;
  }
  return 0;
}

std::size_t ReplacementPolicy::ghostQuota(std::size_t capacity,
                                          std::size_t horizon) const {
  // With a horizon set, the ghosts keep scouting at the arbitrated total
  // even while the resident quota is squeezed.
  const std::size_t span = std::max(capacity, horizon);
  switch (kind_) {
    case ReplacementKind::kLru: return 0;
    case ReplacementKind::kTwoQ: return std::max<std::size_t>(1, span / 2);
    case ReplacementKind::kArc: return span;
  }
  return 0;
}

void ReplacementPolicy::retune(std::size_t capacity, std::size_t horizon) {
  const std::size_t quota = ghostQuota(capacity, horizon);
  const std::size_t words = quota * kGhostEntryWords;
  if (words > ghost_charge_.words()) ghost_charge_.resize(words);
  capacity_ = capacity;
  horizon_ = horizon;
  kin_ = std::max<std::size_t>(1, capacity / 4);
  ghost_quota_ = quota;
  p_ = std::min(p_, static_cast<double>(capacity));
  trimGhosts();
  if (words < ghost_charge_.words()) ghost_charge_.resize(words);
  // Size the table now, so admissions up to the new quotas never rehash.
  dir_.reserve(capacity + quota);
}

void ReplacementPolicy::expireOldest(std::uint8_t q) {
  const Index oldest = dir_.back(q);
  EXTHASH_CHECK(oldest != CacheDirectory::kNil);
  dir_.erase(oldest);
}

void ReplacementPolicy::trimGhosts() {
  // 2Q only ever fills kRecentGhost, so this expires A1out's tail; ARC
  // expires from the longer of B1 and B2.
  while (ghostEntries() > ghost_quota_) {
    expireOldest(queueSize(kRecentGhost) >= queueSize(kFrequentGhost)
                     ? kRecentGhost
                     : kFrequentGhost);
  }
}

void ReplacementPolicy::onMiss(BlockId id, Index ghost) {
  if (kind_ == ReplacementKind::kLru) return;
  pending_ = Pending::kNone;
  pending_id_ = id;
  if (ghost != CacheDirectory::kNil) {
    // A ghost hit. Reclaim the ghost NOW: the admission decision is made
    // here, and the eviction running between this and onInsert must not
    // be able to expire the entry out from under the promotion.
    ++ghost_hits_;
    const bool recent = dir_[ghost].queue == kRecentGhost;
    if (kind_ == ReplacementKind::kArc) {
      // B1 hit ("a once-seen block was evicted too early") grows p; B2
      // hit shrinks it, each by the other list's relative size.
      const double b1 = static_cast<double>(queueSize(kRecentGhost));
      const double b2 = static_cast<double>(queueSize(kFrequentGhost));
      if (recent) {
        p_ = std::min(static_cast<double>(capacity_),
                      p_ + std::max(1.0, b2 / std::max(1.0, b1)));
      } else {
        p_ = std::max(0.0, p_ - std::max(1.0, b1 / std::max(1.0, b2)));
      }
    }
    dir_.erase(ghost);
    pending_ = recent ? Pending::kRecentGhost : Pending::kFrequentGhost;
    return;
  }
  if (kind_ != ReplacementKind::kArc) return;
  // ARC complete miss: trim the ghost directories so |T1|+|B1| stays
  // within the ghost span and the four lists together stay <= c + span
  // (the paper's Case IV, with span == c when no arbitration horizon
  // widens it).
  const std::size_t t1 = queueSize(kRecent);
  const std::size_t b1 = queueSize(kRecentGhost);
  const std::size_t b2 = queueSize(kFrequentGhost);
  if (t1 + b1 >= ghost_quota_ && b1 > 0) {
    expireOldest(kRecentGhost);
  } else if (t1 + queueSize(kFrequent) + b1 + b2 >=
                 capacity_ + ghost_quota_ &&
             b2 > 0) {
    expireOldest(kFrequentGhost);
  }
}

ReplacementPolicy::Index ReplacementPolicy::onInsert(BlockId id) {
  // A ghost hit proved the block reusable: it skips 2Q's FIFO / ARC's
  // recency side and enters the protected queue.
  const bool from_ghost = pending_ != Pending::kNone && pending_id_ == id;
  pending_ = Pending::kNone;
  return dir_.insertFront(id, from_ghost ? kFrequent : kRecent);
}

std::optional<ReplacementPolicy::Entry> ReplacementPolicy::evictFrom(
    std::uint8_t from, std::uint8_t ghost, const EvictableQuery& evictable) {
  Index victim = dir_.back(from);
  while (victim != CacheDirectory::kNil && !evictable(dir_[victim])) {
    victim = dir_[victim].prev;
  }
  if (victim == CacheDirectory::kNil) return std::nullopt;
  const Entry state = dir_[victim];
  if (ghost == kNoGhost) {
    dir_.erase(victim);
    return state;
  }
  // The victim leaves a ghost: if it comes back soon, that return is its
  // admission ticket to the protected queue. Pins can defer evictions
  // past the textbook schedule, so clamp the ghosts at the quota the
  // budget was charged for. (Victims are never quarantined, so the slot
  // and the dirty bit are all the frame state there is to drop.)
  dir_[victim].slot = CacheDirectory::kNoSlot;
  dir_[victim].dirty = false;
  dir_.moveToFront(victim, ghost);
  trimGhosts();
  return state;
}

std::optional<ReplacementPolicy::Entry> ReplacementPolicy::chooseEvict(
    const EvictableQuery& evictable) {
  // Each policy names a preferred queue; pins degrade every choice to the
  // other resident queue.
  bool prefer_recent = true;
  std::uint8_t recent_ghost = kNoGhost;
  std::uint8_t frequent_ghost = kNoGhost;
  switch (kind_) {
    case ReplacementKind::kLru:
      break;
    case ReplacementKind::kTwoQ:
      // Evict from A1in once it outgrows its quota (or when there is no
      // Am to fall back on); otherwise from Am, which leaves no ghost.
      prefer_recent = queueSize(kRecent) > kin_ || queueSize(kFrequent) == 0;
      recent_ghost = kRecentGhost;
      break;
    case ReplacementKind::kArc: {
      // REPLACE(p): evict T1's LRU when T1 exceeds its target (or exactly
      // meets it and the pending access is a B2 ghost hit — T2 is about
      // to grow, so recency yields); otherwise evict T2's LRU.
      const std::size_t t1_blocks = queueSize(kRecent);
      const double t1 = static_cast<double>(t1_blocks);
      const bool b2_pending = pending_ == Pending::kFrequentGhost &&
                              t1 >= p_ && t1_blocks > 0;
      prefer_recent = t1_blocks > 0 &&
                      (t1 > p_ || b2_pending || queueSize(kFrequent) == 0);
      recent_ghost = kRecentGhost;
      frequent_ghost = kFrequentGhost;
      break;
    }
  }
  if (prefer_recent) {
    if (auto v = evictFrom(kRecent, recent_ghost, evictable)) return v;
    return evictFrom(kFrequent, frequent_ghost, evictable);
  }
  if (auto v = evictFrom(kFrequent, frequent_ghost, evictable)) return v;
  return evictFrom(kRecent, recent_ghost, evictable);
}

}  // namespace exthash::extmem
