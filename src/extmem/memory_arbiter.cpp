#include "extmem/memory_arbiter.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/assert.h"

namespace exthash::extmem {

MemoryArbiter::MemoryArbiter(ArbiterConfig config) : config_(config) {
  EXTHASH_CHECK_MSG(config_.slots_per_frame >= 1,
                    "arbiter needs slots_per_frame >= 1");
  EXTHASH_CHECK_MSG(
      config_.step_fraction > 0.0 && config_.step_fraction <= 1.0,
      "arbiter step_fraction must be in (0, 1]");
}

void MemoryArbiter::addCache(BlockCache* cache) {
  EXTHASH_CHECK(cache != nullptr);
  CacheState state;
  state.cache = cache;
  state.last_hits = cache->hits();
  caches_.push_back(state);
  cache_frames_ += cache->capacityBlocks();
  last_ghost_hits_ += cache->ghostHits();
}

void MemoryArbiter::setStaging(std::function<void(std::size_t)> resize,
                               std::function<StagingSignals()> signals,
                               std::size_t initial_slots) {
  EXTHASH_CHECK(resize != nullptr && signals != nullptr);
  staging_resize_ = std::move(resize);
  staging_signals_ = std::move(signals);
  has_staging_ = true;
  // A drained-to-zero staging side would push a zero-slot window
  // (IngestPipeline rejects batch_capacity == 0), so with a staging side
  // registered the floor is at least one frame.
  config_.min_staging_frames =
      std::max<std::size_t>(1, config_.min_staging_frames);
  // Round the initial window up to whole frame-equivalents so the staging
  // grant covers it; push the rounded capacity back so grant and window
  // agree from the start.
  staging_frames_ =
      std::max(config_.min_staging_frames,
               (initial_slots + config_.slots_per_frame - 1) /
                   config_.slots_per_frame);
  last_staging_ = staging_signals_();
  staging_resize_(stagingSlots());
}

void MemoryArbiter::rebalance() {
  if (caches_.empty()) return;
  ++rebalances_;
  ArbiterDecision decision;
  decision.round = rebalances_;
  if (!horizon_set_) {
    // Widen each cache's ghost directories to the most frames it could
    // ever be granted — the total minus the OTHER caches' floors and the
    // staging floor: a cache squeezed to its own floor must still be
    // able to report "a bigger me would have hit" or the loop could
    // never grow it back, while ghosts beyond its attainable grant would
    // only charge metadata (S of them share one budget) and overstate
    // the cache-side gain. The charge can be refused by a tight budget;
    // that must neither escape (it would kill the run) nor mute the
    // remaining caches, so each cache retries on later rebalances until
    // its widening sticks.
    const std::size_t reserved =
        (caches_.size() - 1) * config_.min_cache_frames +
        (has_staging_ ? config_.min_staging_frames : 0);
    const std::size_t total = totalFrames();
    const std::size_t horizon = total > reserved ? total - reserved : 0;
    bool all_done = true;
    for (CacheState& c : caches_) {
      if (c.horizon_done || horizon == 0) continue;
      try {
        c.cache->setGhostHorizon(horizon);
        c.horizon_done = true;
      } catch (const BudgetExceeded&) {
        all_done = false;
      }
    }
    horizon_set_ = all_done;
  }

  // Sample the cache-side signals: the summed ghost-hit delta is the
  // "grow the cache" vote; per-cache hit deltas feed the heat EWMA that
  // skews the split toward hot shards.
  std::uint64_t ghost_now = 0;
  for (CacheState& c : caches_) ghost_now += c.cache->ghostHits();
  const std::uint64_t ghost_delta = ghost_now - last_ghost_hits_;
  last_ghost_hits_ = ghost_now;
  decision.ghost_delta = ghost_delta;
  for (CacheState& c : caches_) {
    const std::uint64_t hits = c.cache->hits();
    c.heat = 0.5 * c.heat + static_cast<double>(hits - c.last_hits);
    c.last_hits = hits;
  }

  const std::size_t staging_before = staging_frames_;
  if (has_staging_) {
    const StagingSignals now = staging_signals_();
    const std::uint64_t absorbed_delta = now.absorbed - last_staging_.absorbed;
    const std::uint64_t pressure_delta = now.pressure - last_staging_.pressure;
    last_staging_ = now;
    decision.absorbed_delta = absorbed_delta;
    decision.pressure_delta = pressure_delta;

    // Per-side headroom, saturating: a side already at (or below — e.g.
    // registered under the floor, or shrunk by a failed grow) its floor
    // simply has nothing to give, but can still receive.
    const std::size_t min_cache_total =
        config_.min_cache_frames * caches_.size();
    const std::size_t cache_headroom =
        cache_frames_ > min_cache_total ? cache_frames_ - min_cache_total
                                        : 0;
    const std::size_t staging_headroom =
        staging_frames_ > config_.min_staging_frames
            ? staging_frames_ - config_.min_staging_frames
            : 0;
    if (cache_headroom + staging_headroom > 0) {
      const std::size_t movable = cache_headroom + staging_headroom;
      const std::size_t step = std::max<std::size_t>(
          1, static_cast<std::size_t>(config_.step_fraction *
                                      static_cast<double>(movable)));
      // Both gains are "expected I/Os saved by moving `step` frames to
      // this side", under a proportional-returns model: ghost hits are
      // misses a modestly larger cache (its ghost reach is O(capacity))
      // would have served, so +step frames recovers ~ step/capacity of
      // them; coalesced ops scale with the window, so +step frames of
      // slots absorbs ~ step/staging_frames more. Backpressure waits are
      // weighted up — a blocked producer is a hard undersize signal.
      const double cache_gain =
          static_cast<double>(ghost_delta) * static_cast<double>(step) /
          static_cast<double>(std::max<std::size_t>(1, cache_frames_));
      const double staging_gain =
          (static_cast<double>(absorbed_delta) +
           config_.pressure_weight * static_cast<double>(pressure_delta)) *
          static_cast<double>(step) /
          static_cast<double>(std::max<std::size_t>(1, staging_frames_));
      decision.cache_gain = cache_gain;
      decision.staging_gain = staging_gain;
      if (cache_gain > staging_gain) {
        const std::size_t take = std::min(step, staging_headroom);
        cache_frames_ += take;
        staging_frames_ -= take;
        decision.direction = +1;
      } else if (staging_gain > cache_gain) {
        const std::size_t take = std::min(step, cache_headroom);
        cache_frames_ -= take;
        staging_frames_ += take;
        decision.direction = -1;
      }
      // Equal gains (notably both zero: no signal this interval) move
      // nothing — the arbiter holds still rather than oscillating.
    }
  }

  // Apply shrink-before-grow across BOTH sides so the conserved total
  // never transiently double-charges the budget.
  const std::size_t total_before = cache_frames_ + staging_frames_;
  std::uint64_t delta_sum = 0;
  if (has_staging_ && staging_frames_ < staging_before) {
    staging_resize_(stagingSlots());
    delta_sum += staging_before - staging_frames_;
  }
  delta_sum += applyCacheSplit();
  if (has_staging_ && staging_frames_ > staging_before) {
    try {
      staging_resize_(stagingSlots());
      delta_sum += staging_frames_ - staging_before;
    } catch (const BudgetExceeded&) {
      // Tight external budget refused the bigger window: keep the old
      // one and hand the frames straight back to the cache side, which
      // just released at least that many words — the total stays
      // conserved instead of leaking a sliver every failed interval.
      // The regrow UNDOES shrinks counted a moment ago, so it cancels
      // out of delta_sum rather than double-counting refused churn as
      // movement (moves() is a gated metric).
      cache_frames_ += staging_frames_ - staging_before;
      staging_frames_ = staging_before;
      const std::uint64_t undo = applyCacheSplit();
      delta_sum -= std::min(delta_sum, undo);
    }
  }
  // A failed cache grow (applyCacheSplit re-derives the grant from the
  // capacities that stuck) can also leave the total short; offer the
  // shortfall to the staging side rather than losing it. If that grow is
  // refused too, the budget is genuinely over-committed externally and
  // the arbitrated total legitimately shrinks to what fits.
  if (has_staging_ && cache_frames_ + staging_frames_ < total_before) {
    const std::size_t shortfall =
        total_before - cache_frames_ - staging_frames_;
    const std::size_t staging_prev = staging_frames_;
    staging_frames_ += shortfall;
    try {
      staging_resize_(stagingSlots());
      // The returned frames undo a shrink counted above whose intended
      // sink was refused — cancel it so a net-zero round trip does not
      // inflate the gated moves metric.
      delta_sum -= std::min<std::uint64_t>(delta_sum, shortfall);
    } catch (const BudgetExceeded&) {
      staging_frames_ = staging_prev;
    }
  }
  // Every move has a source and a sink among {caches..., staging}, so the
  // summed absolute deltas count each moved frame twice.
  moves_ += delta_sum / 2;

  decision.frames_moved = delta_sum / 2;
  decision.cache_frames = cache_frames_;
  decision.staging_frames = staging_frames_;
  decisions_.push_back(decision);
  if (decisions_.size() > kDecisionHistory) decisions_.pop_front();

  EXTHASH_OBS_COUNT("exthash_arbiter_rebalances_total", 1);
  EXTHASH_OBS_COUNT("exthash_arbiter_frames_moved_total",
                    decision.frames_moved);
  EXTHASH_OBS_GAUGE("exthash_arbiter_cache_frames", cache_frames_);
  EXTHASH_OBS_GAUGE("exthash_arbiter_staging_frames", staging_frames_);
  EXTHASH_OBS_GAUGE("exthash_arbiter_cache_gain", decision.cache_gain);
  EXTHASH_OBS_GAUGE("exthash_arbiter_staging_gain", decision.staging_gain);
  EXTHASH_OBS_COUNTER_SAMPLE("arbiter cache frames",
                             static_cast<double>(cache_frames_));
  EXTHASH_OBS_COUNTER_SAMPLE("arbiter staging frames",
                             static_cast<double>(staging_frames_));
}

std::uint64_t MemoryArbiter::applyCacheSplit() {
  std::uint64_t delta_sum = 0;
  const std::size_t n = caches_.size();
  // Heat-proportional targets over the cache-side grant, floored per
  // cache, remainder by largest fractional share. +1 smoothing keeps a
  // momentarily idle shard from starving outright.
  const std::size_t floor_each =
      std::min(config_.min_cache_frames, cache_frames_ / std::max<std::size_t>(1, n));
  const std::size_t surplus = cache_frames_ - floor_each * n;
  double weight_sum = 0.0;
  for (const CacheState& c : caches_) weight_sum += c.heat + 1.0;

  std::vector<std::size_t> target(n, floor_each);
  std::vector<std::pair<double, std::size_t>> frac;  // (fraction, index)
  frac.reserve(n);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double share = static_cast<double>(surplus) *
                         (caches_[i].heat + 1.0) / weight_sum;
    const auto whole = static_cast<std::size_t>(share);
    target[i] += whole;
    assigned += whole;
    frac.emplace_back(share - static_cast<double>(whole), i);
  }
  std::sort(frac.begin(), frac.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned < surplus; ++k, ++assigned) {
    ++target[frac[k % n].second];
  }

  // Shrink before grow (conserved words), growth guarded against a tight
  // external budget; afterwards re-derive the grant from the capacities
  // that actually stuck so the arbiter never believes in frames it does
  // not hold.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cap = caches_[i].cache->capacityBlocks();
    if (target[i] < cap) {
      caches_[i].cache->resize(target[i]);
      delta_sum += cap - target[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cap = caches_[i].cache->capacityBlocks();
    if (target[i] > cap) {
      try {
        caches_[i].cache->resize(target[i]);
        delta_sum += target[i] - cap;
      } catch (const BudgetExceeded&) {
        // Keep the smaller capacity; the re-derivation below absorbs it.
      }
    }
  }
  std::size_t actual = 0;
  for (const CacheState& c : caches_) actual += c.cache->capacityBlocks();
  cache_frames_ = actual;
  return delta_sum;
}

void MemoryArbiter::audit(AuditReport& report) const {
  const char* kComponent = "memory-arbiter";

  // The grant ledger must match reality: cache_frames_ is re-derived from
  // the capacities that stuck after every split, so any divergence means
  // a cache was resized behind the arbiter's back.
  std::size_t actual = 0;
  for (const CacheState& c : caches_) {
    actual += c.cache->capacityBlocks();
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         !horizon_set_ || c.cache->capacityBlocks() >=
                                              config_.min_cache_frames,
                         "cache granted " << c.cache->capacityBlocks()
                             << " frames, floor is "
                             << config_.min_cache_frames);
  }
  EXTHASH_AUDIT_EXPECT(report, kComponent, cache_frames_ == actual,
                       "arbiter believes " << cache_frames_
                           << " cache frames, caches hold " << actual);
  if (has_staging_ && horizon_set_) {
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         staging_frames_ >= config_.min_staging_frames,
                         "staging granted " << staging_frames_
                             << " frame-equivalents, floor is "
                             << config_.min_staging_frames);
  }
}

}  // namespace exthash::extmem
