// Sharded front-end: hash-partitions the key space across N inner tables,
// each owning a private BlockDevice and MemoryBudget, and dispatches
// batches shard-parallel on the calling thread plus a thread pool.
//
// This is the system-building move the ROADMAP's "heavy traffic" goal
// asks for: the paper's structures are single-spindle, so throughput
// scales by running one per spindle (device) and routing operations by an
// independent hash of the key. Shard choice uses a fixed scramble that is
// independent of the tables' shared hash function h, so each shard still
// sees h-uniform keys and every per-shard analysis (load factor, Theorem-2
// merge schedule) applies unchanged.
//
// I/O accounting: the façade's shards count I/Os on their own devices;
// ioStats() aggregates them. Measurement code must diff ioStats(), not the
// context device passed at construction (which the façade never touches).
//
// Block-id namespacing: shard-local block ids are small sequential ids on
// each shard's private device, so ids from different shards collide
// numerically. visitLayout and primaryBlockOf therefore forward ids in a
// namespaced encoding: the shard index in the top kShardIdBits (8) bits,
// the shard-local id in the low kLocalIdBits (56) bits —
//
//   namespaced = (shard + 1) << 56 | local
//
// The +1 keeps every namespaced id disjoint from raw ids of any
// non-sharded table sharing an analysis (raw ids live far below 2^56), and
// from kInvalidBlock. Decode with shardOfBlockId / localBlockId. Layout
// consumers (zone accounting) only need distinctness, which the encoding
// guarantees as long as shard-local ids stay below 2^56 (checked).
//
// Threading: the façade is externally serialized like every table —
// callers run one operation at a time. INTERNALLY a batch fans out via
// ThreadPool::parallelFor: the calling thread and at most shard_threads
// pool helpers claim shard slices from one cursor, so a batch runs on at
// most shard_threads + 1 threads and never waits for a busy pool to start
// a slice.
// The checkpoint's per-shard work takes the same fan-out: flushCache()
// flushes, and captureImages() images, one shard per slice.
// Each slice runs on exactly one thread and touches only its shard's
// private device/budget/cache/table, and no two threads share a shard,
// so no façade-level mutex exists to annotate; the only locks in the
// fan-out path are the pool's own annotated mutexes (see
// util/thread_annotations.h).
// Mutating shared façade state from inside a shard task would be a data
// race — keep per-shard work confined to that shard's Shard struct
// (the per-shard error latch below lives there for exactly this reason).
//
// Fault isolation: a shard task that throws no longer poisons the whole
// batch silently — every HEALTHY shard's sub-batch still applies (and
// lookupBatch still fills the healthy shards' results) before the first
// captured error is rethrown, so callers observe the failure without the
// other shards losing work. An extmem::IoError additionally LATCHES the
// faulted shard (the broken part is its private device, which outlives
// the batch): further operations routed to it fail fast with the stored
// error, without touching the shard, while healthy shards keep serving.
// shardErrors() aggregates the latched errors for operators;
// clearShardErrors() re-admits traffic once the fault cleared (e.g.
// FaultyFileOps::clear() on the shim under the shard's file). Logic errors (CheckFailure)
// stay batch-scoped: they are rethrown but do not latch the shard.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "extmem/block_cache.h"
#include "tables/factory.h"
#include "tables/hash_table.h"
#include "util/thread_pool.h"

namespace exthash::extmem {
class MemoryArbiter;
}

namespace exthash::tables {

class ShardedTable final : public ExternalHashTable {
 public:
  /// `ctx` supplies the shared hash and the block geometry (via its
  /// device); the façade allocates a private device + budget per shard.
  /// `config`'s `shards` (clamped to >= 1), `sharded_inner` and shard_*
  /// fields shape the façade; the rest is the template for the inner
  /// tables, whose expected_n and buffer_items are divided across the
  /// shards.
  ShardedTable(TableContext ctx, const GeneralConfig& config);

  /// Namespaced block-id encoding for forwarded layout visits (see the
  /// file comment).
  static constexpr unsigned kShardIdBits = 8;
  static constexpr unsigned kLocalIdBits = 64 - kShardIdBits;
  static constexpr std::size_t kMaxShards =
      (std::size_t{1} << kShardIdBits) - 1;
  static constexpr extmem::BlockId namespacedBlockId(
      std::size_t shard, extmem::BlockId local) noexcept {
    return (static_cast<extmem::BlockId>(shard + 1) << kLocalIdBits) | local;
  }
  static constexpr std::size_t shardOfBlockId(extmem::BlockId id) noexcept {
    return static_cast<std::size_t>(id >> kLocalIdBits) - 1;
  }
  static constexpr extmem::BlockId localBlockId(extmem::BlockId id) noexcept {
    return id & ((extmem::BlockId{1} << kLocalIdBits) - 1);
  }

  bool insert(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> lookup(std::uint64_t key) override;
  bool erase(std::uint64_t key) override;
  /// Splits the batch per shard (op order preserved within a shard — and
  /// all ops of one key land in one shard) and applies shard-parallel.
  void applyBatch(std::span<const Op> ops) override;
  /// Shard-parallel batched lookups.
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  std::size_t size() const override;
  std::string_view name() const override { return "sharded"; }
  /// Forwards every shard's layout with block ids namespaced by shard
  /// index, so ids are collision-free across the façade.
  void visitLayout(LayoutVisitor& visitor) const override;
  /// The owning shard's primary block for `key`, namespaced.
  std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override;
  std::string debugString() const override;
  /// Aggregates per-shard device counters AND per-shard cache counters
  /// (cache_hits / cache_writebacks / cache_ghost_hits).
  extmem::IoStats ioStats() const override;
  /// Flush barrier across every auto-attached shard cache, one shard per
  /// fan-out slice. The façade must be quiescent (no batch in flight on
  /// the shard pool). Every healthy shard is attempted; a latched shard is
  /// skipped (its quarantined frames stay pinned until
  /// clearShardErrors()); an IoError latches its shard, and once every
  /// shard finished the lowest-index error is rethrown.
  void flushCache() const override;
  /// Recursive audit: every shard's deep per-kind audit plus its private
  /// cache's partition/charge audit (the inner tables inherit it through
  /// ExternalHashTable::validateLayout). Serial and quiescent-only; it
  /// skips latched shards, as flushCache() does.
  void validateLayout(AuditReport& report) const override;
  /// Per shard, the inner table's series (its device and cache) plus
  /// exthash_shard_{ops,lookups,failures}_total and exthash_shard_size,
  /// each labelled shard="s"; and the unlabelled
  /// exthash_shard_resets_total.
  void collect(obs::MetricsRegistry& registry) const override;

  /// One latched shard fault (see the file comment on fault isolation).
  struct ShardError {
    std::size_t shard = 0;
    std::string message;
  };

  /// Aggregated report of every latched shard fault, shard-ordered.
  std::vector<ShardError> shardErrors() const;
  std::size_t failedShardCount() const noexcept;
  bool shardFailed(std::size_t i) const noexcept {
    return shards_[i].error != nullptr;
  }
  /// Drop every latched shard error — call after the underlying fault
  /// cleared; the next flush barrier lands any quarantined frames.
  void clearShardErrors() noexcept;

  /// Ops / lookup keys dispatched to shard i through applyBatch /
  /// lookupBatch (one add per sub-batch; single-key calls are not
  /// counted), and the IoErrors that latched it.
  std::uint64_t shardOps(std::size_t i) const noexcept {
    return shards_[i].ops;
  }
  std::uint64_t shardLookups(std::size_t i) const noexcept {
    return shards_[i].lookups;
  }
  std::uint64_t shardLatches(std::size_t i) const noexcept {
    return shards_[i].latches;
  }
  /// resetShard() calls so far.
  std::uint64_t resets() const noexcept { return resets_; }

  /// Tear shard i down to an empty inner table on the SAME private device
  /// and rebuild it from scratch: the latch clears, every cached frame is
  /// discarded (quarantined ones included), the old structure's blocks are
  /// freed, and a fresh inner table is constructed exactly as at startup.
  /// The façade must be quiescent; the other shards are untouched and keep
  /// serving. This is the per-shard recovery primitive — callers repopulate
  /// the shard (e.g. by replaying its slice of a WAL) afterwards.
  void resetShard(std::size_t i);

  // Durability hooks: one durable device per shard; metadata is the
  // per-shard inner metadata, length-prefixed per shard.
  /// Rethrows the lowest latched shard's stored error instead, refusing
  /// the checkpoint: flushCache() skipped that shard, so its quarantined
  /// frames never reached its device, and its image would lack
  /// acknowledged ops whose WAL record the manifest's LSN stamp fences
  /// off.
  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;
  std::size_t durableDeviceCount() const override { return shards_.size(); }
  extmem::BlockDevice& durableDevice(std::size_t i) override {
    return *shards_[i].device;
  }
  /// One fan-out slice per shard, each capturing its shard's device.
  void captureImages(std::vector<extmem::BlockDevice::Image>& images) override;
  void invalidateCaches() override;

  std::size_t shardCount() const noexcept { return shards_.size(); }
  ExternalHashTable& shard(std::size_t i) { return *shards_[i].table; }
  extmem::BlockDevice& shardDevice(std::size_t i) {
    return *shards_[i].device;
  }
  const extmem::BlockDevice& shardDevice(std::size_t i) const {
    return *shards_[i].device;
  }
  /// The auto-attached cache of shard i (nullptr when it got no frames).
  extmem::BlockCache* shardCache(std::size_t i) const noexcept {
    return shards_[i].cache.get();
  }

  /// Register every auto-attached shard cache with a MemoryArbiter, so the
  /// arbiter re-splits the cache-side frame grant across shards by
  /// observed heat (hot shards earn frames) while trading the total
  /// against the pipeline's staging windows. The arbiter must only
  /// rebalance at quiescent points — no batch in flight on the shard pool
  /// (IngestPipeline::submitMaintenance provides exactly that). No-op
  /// when shard_cache_frames == 0.
  void registerCaches(extmem::MemoryArbiter& arbiter) const;

 private:
  // Destruction order matters: `table` is declared last so it is
  // destroyed first — its destructor flushes/invalidates through `cache`,
  // which must still be alive, and frees blocks on `device`.
  struct Shard {
    std::unique_ptr<extmem::BlockDevice> device;
    std::unique_ptr<extmem::MemoryBudget> memory;
    std::unique_ptr<extmem::BlockCache> cache;
    // Latched IoError (fail-fast gate for this shard). Written only by
    // this shard's own task inside a fan-out, or by the externally
    // serialized façade — shard-confined, so no lock (see the threading
    // comment). mutable: the const flush barrier can latch a fault too.
    mutable std::exception_ptr error;
    // Counters, shard-confined like `error`: written only by this shard's
    // task inside a fan-out or by the serialized façade.
    std::uint64_t ops = 0;
    std::uint64_t lookups = 0;
    mutable std::uint64_t latches = 0;
    std::unique_ptr<ExternalHashTable> table;
  };

  std::size_t shardOf(std::uint64_t key) const noexcept;
  /// The per-shard inner config the constructor derives (1/N sizing) —
  /// shared with resetShard so a rebuilt shard matches its siblings.
  GeneralConfig innerShardConfig() const;
  /// Run one shard's slice of work with the fault-isolation contract:
  /// fail fast on a latched shard (without touching it), latch IoErrors,
  /// pass every error back for the caller to rethrow after the fan-out.
  std::exception_ptr runGuarded(std::size_t s,
                                const std::function<void()>& fn);

  GeneralConfig config_;
  std::vector<Shard> shards_;
  std::uint64_t resets_ = 0;
  // mutable: the const flush barrier fans out too.
  mutable ThreadPool pool_;
};

}  // namespace exthash::tables
