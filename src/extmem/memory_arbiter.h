// MemoryArbiter — adaptive arbitration of one memory budget between
// "memory as a cache" (BlockCache frames) and "memory as an insert
// buffer" (the ingest pipeline's staging windows).
//
// The paper's central trade-off is how a fixed memory of m words, split
// between a buffer for pending updates and the working set a query wants
// resident, bounds the achievable (tu, tq) pair. The whole stack so far
// sized that split statically (cache_frames vs pipeline window capacity);
// the best split is workload-dependent — insert-heavy phases want staging,
// lookup-heavy phases want frames — so a static choice leaves I/O on the
// table the moment the workload drifts. The arbiter closes that gap with
// an ARC-style marginal-utility feedback loop over signals the stack
// already collects:
//
//   cache side    ghost hits (replacement_policy.h): misses that hit the
//                 policy's ghost directory are precisely accesses that one
//                 more resident frame's worth of reach would have served —
//                 a direct "grow the cache" vote. (LRU keeps no ghosts, so
//                 under LRU the cache side can only lose frames; pair the
//                 arbiter with 2Q/ARC.)
//   staging side  coalesced ops and backpressure waits (PipelineStats):
//                 ops absorbed in the window scale with window size, and
//                 every submit_waits episode is the producer blocked on a
//                 too-small staging bound — both "grow the buffer" votes.
//
// Each rebalance() diffs those counters since the last call, scales both
// sides to the same unit (expected I/O saved by moving one step of
// frames), and moves the step toward the greedier side, bounded by per-
// side floors. The cache side may be several caches (the sharded façade's
// per-shard caches): the arbiter re-splits the cache-side total across
// them by observed heat (EWMA of hit deltas), so hot shards earn frames —
// still one shared feedback loop, one conserved frame total.
//
// Exchange rate: one frame = wordsPerBlock words buys slots_per_frame
// staging slots (kStagingOpWords each, times the pipeline's window
// multiplicity); the caller fixes the rate at construction so both sides
// are denominated in the same MemoryBudget words.
//
// Threading: the arbiter itself is NOT thread-safe, and BlockCache::resize
// must not race cache users. Callers invoke rebalance() only at quiescent
// points: inline between batches in synchronous loops, or through
// IngestPipeline::submitMaintenance, which serializes it on the one worker
// thread that touches the table and its caches. This is a deliberate
// thread-COMPATIBLE design, not an oversight: adding a mutex here would
// annotate nothing real (see util/thread_annotations.h — the verified
// locks live in ThreadPool and IngestPipeline, whose serialization this
// class piggybacks on).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "extmem/block_cache.h"

namespace exthash::extmem {

struct ArbiterConfig {
  /// Floor per registered cache (frames). resize() below 1 is legal but a
  /// zero-frame cache stops producing ghost signals, wedging the loop.
  std::size_t min_cache_frames = 1;
  /// Floor for the staging side, in frame-equivalents.
  std::size_t min_staging_frames = 1;
  /// Staging slots one frame's worth of words buys (>= 1): roughly
  /// wordsPerBlock / (kStagingOpWords * (max_pending_batches + 1)).
  std::size_t slots_per_frame = 8;
  /// Fraction of the movable frame range per rebalance step.
  double step_fraction = 0.125;
  /// Weight of one backpressure wait against one coalesced op in the
  /// staging-side demand signal (a blocked producer is a much stronger
  /// undersize symptom than one absorbed duplicate).
  double pressure_weight = 8.0;
};

/// Cumulative staging-side counters, sampled by the arbiter at each
/// rebalance (map PipelineStats: absorbed = ops_coalesced, pressure =
/// submit_waits).
struct StagingSignals {
  std::uint64_t absorbed = 0;
  std::uint64_t pressure = 0;
};

/// One rebalance() explained: the signal deltas it saw, the per-side
/// marginal utilities it computed, and what it did about them. The
/// arbiter keeps the latest kDecisionHistory of these (decisions()) so
/// its behavior on a phase-shifting workload can be audited move by move
/// instead of inferred from the cumulative moves() counter.
struct ArbiterDecision {
  std::uint64_t round = 0;           // rebalances() at decision time
  std::uint64_t ghost_delta = 0;     // cache-side vote this interval
  std::uint64_t absorbed_delta = 0;  // staging-side: coalesced ops
  std::uint64_t pressure_delta = 0;  // staging-side: backpressure waits
  double cache_gain = 0.0;           // expected I/O saved per step, cache
  double staging_gain = 0.0;         // same unit, staging
  int direction = 0;                 // +1 toward cache, -1 toward staging
  std::uint64_t frames_moved = 0;    // this round (incl. heat re-homing)
  std::size_t cache_frames = 0;      // grants AFTER the move
  std::size_t staging_frames = 0;
};

class MemoryArbiter {
 public:
  explicit MemoryArbiter(ArbiterConfig config = {});

  MemoryArbiter(const MemoryArbiter&) = delete;
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;

  /// Register a cache; its current capacity joins the cache-side total.
  /// All caches must be registered before the first rebalance().
  void addCache(BlockCache* cache);

  /// Register the staging side: `resize` re-targets the window capacity
  /// (in slots — IngestPipeline::setWindowCapacity), `signals` samples the
  /// cumulative counters. `initial_slots` is the window capacity at
  /// registration; it fixes the staging side's starting frame-equivalents.
  /// Without a staging side the arbiter only heat-rebalances frames among
  /// its caches.
  void setStaging(std::function<void(std::size_t slots)> resize,
                  std::function<StagingSignals()> signals,
                  std::size_t initial_slots);

  /// One feedback step: diff the signals, move up to one step of frames
  /// between the sides, re-split the cache side by heat, and push the new
  /// staging slot target. Call only at quiescent points (see above).
  void rebalance();

  /// Frames currently granted to the cache side (sum over caches).
  std::size_t cacheFrames() const noexcept { return cache_frames_; }
  /// Frame-equivalents currently granted to the staging side.
  std::size_t stagingFrames() const noexcept { return staging_frames_; }
  /// Staging window capacity (slots) the arbiter last pushed.
  std::size_t stagingSlots() const noexcept {
    return staging_frames_ * config_.slots_per_frame;
  }
  /// Total frame-equivalents under arbitration (conserved across moves).
  std::size_t totalFrames() const noexcept {
    return cache_frames_ + staging_frames_;
  }
  /// Frames moved so far — across the cache/staging boundary plus frames
  /// re-homed between caches by the heat split. > 0 proves the arbiter
  /// actually rebalanced.
  std::uint64_t moves() const noexcept { return moves_; }
  /// Rebalance() calls so far.
  std::uint64_t rebalances() const noexcept { return rebalances_; }

  /// Bound on the retained decision log.
  static constexpr std::size_t kDecisionHistory = 256;
  /// The most recent rebalance decisions, oldest first (at most
  /// kDecisionHistory). Same thread-compatibility as rebalance().
  const std::deque<ArbiterDecision>& decisions() const noexcept {
    return decisions_;
  }

  /// Structural audit (see util/audit.h): the conserved-total bookkeeping
  /// must agree with the caches' real capacities — cache_frames_ equals
  /// the sum of registered caches' capacityBlocks(), every side respects
  /// its floor, and the pushed staging slot target matches
  /// staging_frames_. Call at the same quiescent points as rebalance().
  void audit(AuditReport& report) const;

 private:
  struct CacheState {
    BlockCache* cache = nullptr;
    std::uint64_t last_hits = 0;
    double heat = 0.0;           // EWMA of hit deltas
    bool horizon_done = false;   // ghost-horizon widening stuck
  };

  /// Re-split cache_frames_ across the caches by heat and apply the
  /// resizes (shrink before grow). Returns the summed absolute capacity
  /// deltas; re-derives cache_frames_ from the capacities that stuck.
  std::uint64_t applyCacheSplit();

  ArbiterConfig config_;
  std::vector<CacheState> caches_;
  std::function<void(std::size_t)> staging_resize_;
  std::function<StagingSignals()> staging_signals_;
  bool has_staging_ = false;

  std::size_t cache_frames_ = 0;
  std::size_t staging_frames_ = 0;
  bool horizon_set_ = false;
  std::uint64_t last_ghost_hits_ = 0;
  StagingSignals last_staging_;
  std::uint64_t moves_ = 0;
  std::uint64_t rebalances_ = 0;
  std::deque<ArbiterDecision> decisions_;
};

}  // namespace exthash::extmem
