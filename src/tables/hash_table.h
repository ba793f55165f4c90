// Public interface implemented by every external dictionary in the library
// (hash tables, the B-tree and LSM baselines, and the paper's Theorem-2
// structure).
//
// The interface mirrors the paper's abstraction:
//  * insert / lookup / erase are the dictionary operations whose I/O cost
//    the device counts; lookup is lookupBatch of one key, so each kind has
//    one query implementation;
//  * visitLayout exposes the *layout of items* — which records live in
//    memory and which live in which disk block — uncounted, for the
//    lower-bound analysis (memory / fast / slow zone accounting);
//  * primaryBlockOf is the table's memory-computable address function f:
//    the one block a query algorithm can locate with a single I/O.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/cached_io.h"
#include "extmem/memory_budget.h"
#include "extmem/record.h"
#include "hashfn/hash_function.h"
#include "util/assert.h"
#include "util/audit.h"

namespace exthash::tables {

/// A deferred dictionary operation. Batches of Ops are the unit the
/// buffering tradeoff is about: handing a table k operations at once lets
/// it group work by target block / level / shard and pay amortized I/O,
/// which single-op insert/erase calls can never expose.
enum class OpKind : std::uint8_t { kInsert, kErase };

struct Op {
  OpKind kind = OpKind::kInsert;
  std::uint64_t key = 0;
  std::uint64_t value = 0;  // ignored for kErase

  static Op insertOp(std::uint64_t key, std::uint64_t value) noexcept {
    return Op{OpKind::kInsert, key, value};
  }
  static Op eraseOp(std::uint64_t key) noexcept {
    return Op{OpKind::kErase, key, 0};
  }

  friend bool operator==(const Op&, const Op&) = default;
};

/// Non-owning bundle of the resources a table operates on. The device and
/// budget must outlive the table; the hash function is shared because
/// composite structures (logarithmic method, Theorem 2) need all of their
/// component tables to agree on h.
struct TableContext {
  extmem::BlockDevice* device = nullptr;
  extmem::MemoryBudget* memory = nullptr;
  hashfn::HashPtr hash;

  void check() const {
    EXTHASH_CHECK(device != nullptr);
    EXTHASH_CHECK(memory != nullptr);
    EXTHASH_CHECK(hash != nullptr);
  }
};

/// Receives the full item layout of a table (uncounted introspection).
class LayoutVisitor {
 public:
  virtual ~LayoutVisitor() = default;
  /// A record held in internal memory (the paper's memory zone M).
  virtual void memoryItem(const Record& record) { (void)record; }
  /// A record (or copy) held in disk block `block`.
  virtual void diskItem(extmem::BlockId block, const Record& record) {
    (void)block;
    (void)record;
  }
};

/// Thrown by operations a particular structure does not support.
class UnsupportedOperation : public std::logic_error {
 public:
  explicit UnsupportedOperation(const std::string& what)
      : std::logic_error(what) {}
};

class ExternalHashTable {
 public:
  explicit ExternalHashTable(TableContext ctx) : ctx_(std::move(ctx)) {
    ctx_.check();
  }
  virtual ~ExternalHashTable() = default;

  ExternalHashTable(const ExternalHashTable&) = delete;
  ExternalHashTable& operator=(const ExternalHashTable&) = delete;

  /// Insert `key` → `value`, updating in place if the key exists (see each
  /// structure's documentation for duplicate-key contracts). Returns true
  /// if the key was new.
  virtual bool insert(std::uint64_t key, std::uint64_t value) = 0;

  /// Point lookup; nullopt if absent. This is lookupBatch of one key, so
  /// the paper's tq is counted on the code batches run; a one-key batch
  /// charges no grouping scratch (batch::lookupScratch).
  std::optional<std::uint64_t> lookup(std::uint64_t key) {
    std::optional<std::uint64_t> value;
    lookupBatch({&key, 1}, {&value, 1});
    return value;
  }

  /// Remove `key`; returns true if it was present. Structures following
  /// the paper's insert-only model throw UnsupportedOperation.
  virtual bool erase(std::uint64_t key) {
    (void)key;
    throw UnsupportedOperation(std::string(name()) +
                               " does not support erase");
  }

  /// Apply a batch of operations in order. Logically equivalent to calling
  /// insert/erase one at a time (and the default does exactly that); tables
  /// where buffering pays override this to group operations by target
  /// bucket / level / shard so that k operations against one block cost one
  /// read-modify-write instead of k. Per-key operation order is always
  /// preserved; operations on distinct keys may be physically reordered.
  /// Batches containing kErase throw UnsupportedOperation on insert-only
  /// structures, like erase() itself.
  virtual void applyBatch(std::span<const Op> ops) {
    for (const Op& op : ops) {
      if (op.kind == OpKind::kInsert) insert(op.key, op.value);
      else erase(op.key);
    }
  }

  /// Batched point lookups: out[i] receives the result for keys[i]. The
  /// bucketed tables answer all keys that share a block extent with one
  /// read; this is every kind's one query path (lookup() included).
  virtual void lookupBatch(std::span<const std::uint64_t> keys,
                           std::span<std::optional<std::uint64_t>> out) = 0;

  /// Number of live records.
  virtual std::size_t size() const = 0;

  virtual std::string_view name() const = 0;

  /// Enumerate the complete item layout (uncounted; analysis only).
  virtual void visitLayout(LayoutVisitor& visitor) const = 0;

  /// The address function f: the block where a one-I/O query for `key`
  /// looks first. nullopt when the structure has no such single block
  /// (e.g. a B-tree, where queries are inherently multi-I/O).
  virtual std::optional<extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const {
    (void)key;
    return std::nullopt;
  }

  /// One-line structure-specific statistics for logs.
  virtual std::string debugString() const { return std::string(name()); }

  /// Structural invariant audit (uncounted, see util/audit.h): verify the
  /// table's on-device layout and in-memory metadata against each other
  /// and record every violation in `report`. Deep per-kind overrides
  /// exist for the structures whose layout carries the paper's I/O
  /// accounting (chaining chains, linear-hashing split state, extendible
  /// directory sharing, LSM run ordering, buffer-btree pivots, log-method
  /// level capacities); the base implementation audits the attached
  /// cache's partition/charge agreement, which every override should
  /// inherit via ExternalHashTable::validateLayout(report). Must be
  /// called with the table quiescent; write-back users flush first (the
  /// overrides do it themselves, mirroring visitLayout).
  virtual void validateLayout(AuditReport& report) const {
    if (read_cache_ != nullptr) read_cache_->audit(report);
  }

  // ---- Durability hooks (src/durability/) ------------------------------
  //
  // A checkpoint = flushCache() + serializeMeta() (the table's in-memory
  // metadata as a word vector) + captureImages() (an image of every
  // durable device); recovery constructs a FRESH table with the same
  // factory config, restores the device images underneath it, then
  // restoreMeta() overwrites the fresh object's in-memory state so it
  // describes the restored blocks. The restore path NEVER frees the fresh
  // constructor's allocations — the image restore already rewound the
  // allocation map wholesale.

  /// Serialize all in-memory metadata needed to re-adopt this table's
  /// on-device state (extents, directories, split pointers, level/run
  /// tables, memory-resident buffers). Throws when the devices cannot be
  /// imaged consistently (the sharded façade with a latched shard), which
  /// refuses the checkpoint. Default: unsupported.
  virtual std::vector<std::uint64_t> serializeMeta() const {
    throw UnsupportedOperation(std::string(name()) +
                               " does not support serializeMeta");
  }
  /// Inverse of serializeMeta, on a freshly constructed table whose
  /// devices have just been image-restored. Geometry derived from the
  /// construction config must match the serialized geometry (checked).
  virtual void restoreMeta(std::span<const std::uint64_t> words) {
    (void)words;
    throw UnsupportedOperation(std::string(name()) +
                               " does not support restoreMeta");
  }
  /// The devices whose contents checkpoint/restore must cover. Ordinary
  /// tables expose their context device; the sharded façade exposes one
  /// per shard.
  virtual std::size_t durableDeviceCount() const { return 1; }
  virtual extmem::BlockDevice& durableDevice(std::size_t i) {
    EXTHASH_CHECK(i == 0);
    return *ctx_.device;
  }
  /// Capture durable device i into images[i] (resized to
  /// durableDeviceCount()), reusing the buffers each image already owns
  /// (BlockDevice::captureImage). Quiescent-only, after flushCache().
  /// Default: one device after another; the sharded façade captures its
  /// shards on its fan-out.
  virtual void captureImages(std::vector<extmem::BlockDevice::Image>& images) {
    images.resize(durableDeviceCount());
    for (std::size_t i = 0; i < images.size(); ++i) {
      durableDevice(i).captureImage(images[i]);
    }
  }
  /// Drop every cached frame WITHOUT write-back — called by recovery
  /// after the device image was rewound underneath the cache(s), when
  /// every cached byte is a stale view.
  virtual void invalidateCaches() {
    if (read_cache_ != nullptr) read_cache_->discardAll();
  }

  /// Counted I/O this table has caused. For ordinary tables this is the
  /// context device's counters plus the attached cache's hit/writeback
  /// telemetry; composite façades that own private devices (the sharded
  /// front-end) override it to aggregate. Measurement code must diff
  /// this, not the raw device, to stay shard-correct.
  virtual extmem::IoStats ioStats() const {
    extmem::IoStats stats = ctx_.device->stats();
    if (read_cache_ != nullptr) {
      stats.cache_hits += read_cache_->hits();
      stats.cache_writebacks += read_cache_->writebacks();
      stats.cache_ghost_hits += read_cache_->ghostHits();
    }
    return stats;
  }

  /// Add this table's metrics to `registry` (obs/metrics.h): what ioStats()
  /// covers — the context device's counters and the attached cache's
  /// counters and gauges. The sharded façade overrides it to label every
  /// shard's series shard="s". Call at a quiescent point (after a
  /// pipeline's drain(), like flushCache()).
  virtual void collect(obs::MetricsRegistry& registry) const {
    ctx_.device->collect(registry);
    if (read_cache_ != nullptr) read_cache_->collect(registry);
  }

  /// Attach a non-owning block cache (see extmem/cached_io.h), either
  /// write-through or write-back. The cache must be layered over this
  /// table's context device and must outlive the table (or be detached
  /// with nullptr). Tables that honor it route their counted block
  /// accesses through it — currently the chained-bucket structures
  /// (chaining, linear hashing), extendible hashing, and the LSM's
  /// lookup path (its merges stay uncached — a compaction is a one-shot
  /// scan that would only pollute the frames); other kinds simply never
  /// read it. The sharded façade cannot honor a single
  /// cache: its shards own private devices (use its auto-attach config
  /// instead). With a write-back cache the table inserts its own flush
  /// barriers (destroy paths, visitLayout); external quiescent points —
  /// pipeline drain, measurement drain points — call flushCache().
  void attachCache(extmem::BlockCache* cache) {
    // Validates the device-identity precondition.
    extmem::CachedBlockIo probe(*ctx_.device, cache);
    (void)probe;
    read_cache_ = cache;
  }

  /// Flush barrier: write every dirty cached frame to the device
  /// (counted). Composite façades override it to reach their internal
  /// caches. Must be called with the table quiescent; afterwards the
  /// device is authoritative and ioStats() includes the deferred writes.
  virtual void flushCache() const {
    if (read_cache_ != nullptr) read_cache_->flush();
  }

  const TableContext& context() const noexcept { return ctx_; }
  extmem::BlockDevice& device() const noexcept { return *ctx_.device; }
  extmem::MemoryBudget& memory() const noexcept { return *ctx_.memory; }
  const hashfn::HashFunction& hash() const noexcept { return *ctx_.hash; }

 protected:
  /// Counted block access for cache-honoring tables: reads go through the
  /// attached cache (if any), writes/frees keep it coherent.
  extmem::CachedBlockIo io() const noexcept {
    return extmem::CachedBlockIo(*ctx_.device, read_cache_);
  }

  TableContext ctx_;
  extmem::BlockCache* read_cache_ = nullptr;
};

}  // namespace exthash::tables
