// Asynchronous ingest/query front-end: double-buffered batch accumulation
// with future-based lookup completions.
//
// The paper's result is that buffering update streams is what buys I/O
// below 1 per operation; this layer makes sure the system harvests that at
// wall-clock level too. A synchronous applyBatch fan-out leaves the shard
// devices idle while the *next* batch is being accumulated. IngestPipeline
// overlaps the two phases: operations accumulate into an in-memory staging
// batch (with last-write-wins coalescing per key, so a key overwritten k
// times inside one window costs one table operation) while previously
// sealed batches are applied on a background worker via applyBatch /
// lookupBatch. This is the throughput move of the buffer-tree line of work
// (Iacono–Pătrașcu; Conway et al.): keep the buffer-drain path busy
// continuously.
//
// Consistency contract (read-your-writes): a submitLookup observes every
// operation submitted before it on the same pipeline. Lookups whose key
// has a not-yet-applied operation (staging or sealed-but-unapplied) are
// answered from memory immediately; all other keys are answered by the
// background worker through lookupBatch, ordered so no lookup can observe
// an operation submitted after it.
//
// Caching: the wrapped table may have a BlockCache attached (any write
// policy × any replacement policy — LRU / 2Q / ARC). The cache is touched
// only by the background worker, like the table itself, and drain() is the
// flush barrier that writes dirty frames out and makes ioStats() include
// the deferred writes. Note the interaction the ABL-CACHE bench measures:
// the grouped applyBatch the worker issues turns each window into a sorted
// block sweep, which is exactly the access shape plain LRU handles worst —
// pipelined ingest below full cache residency wants a scan-resistant
// replacement policy.
//
// Backpressure: at most `max_pending_batches` sealed batches may be
// unapplied at once; submit()/flush() block until the worker frees a slot.
// The staging structures live outside the paper's I/O model; their size
// is bounded by batch_capacity · (max_pending_batches + 1) operations.
//
// Fail-stop under errors: the first background error (a worker-side
// CheckFailure, or an IoError that escaped the device's retry budget —
// see extmem/fault.h) latches the pipeline into an explicit fail-stop
// state. From then on submit()/submitLookup()/flush()/drain() rethrow the
// stored error instead of queueing work; window tasks still queued skip
// the table entirely (their ops count as ops_discarded — the table may
// hold a partially applied window and must not be driven further); queued
// lookup tasks resolve EVERY pending future with the error, so no future
// ever hangs or breaks its promise. drain() still waits for the worker to
// go idle before rethrowing — the table is quiescent afterwards either
// way. Once the underlying fault clears (e.g. FaultyFileOps::clear()),
// reset() returns the pipeline to service on the surviving table
// contents: it discards still-staged ops (counted, returned), fails any
// unsealed lookups with the stored error, and clears the latch.
//
// Log stage: with a WAL attached (PipelineConfig::wal), sealed windows
// pass through a FIFO log stage — a second background thread — that
// appends each one to the log and waits for it to become durable before
// handing it to the worker. The log stage touches only the WAL, never the
// table. At max_pending_batches >= 2 it logs and syncs window k+1 while
// the worker applies window k. It checks the fail-stop latch before each
// append and latches a refused append itself, so nothing is logged after
// an error and a window the log refused never reaches the table. A window
// logged before an EARLIER window's apply failed is durable but counts as
// discarded here: recovery replays it, the live pipeline never applies it
// — the same "durable but not applied" state a failed mid-window apply
// leaves behind.
//
// Threading: all public methods are safe to call from one producer thread
// (the common case) or several (the internal mutex serializes them). The
// wrapped table is touched ONLY by the single background worker between
// construction and drain(), so tables need no internal locking (the log
// stage, when present, touches only the WAL). After drain() returns the
// table is quiescent and may be inspected directly.
// The locking discipline is compiler-verified (-Wthread-safety, see
// util/thread_annotations.h): mutex_ guards every mutable member, the
// *Locked helpers require it held, and the public surface is annotated
// as acquiring it internally.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "tables/hash_table.h"
#include "util/audit.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace exthash::durability {
class WalWriter;
}  // namespace exthash::durability

namespace exthash::pipeline {

/// Model cost of one staging slot in words: the Op (kind, key, value) plus
/// its key-index entry. What the optional PipelineConfig::budget charge and
/// the memory arbiter's frame↔slot exchange rate are denominated in.
inline constexpr std::size_t kStagingOpWords = 4;

struct PipelineConfig {
  /// Operations accumulated per staging window before it seals. Resizable
  /// at runtime via setWindowCapacity (the memory arbiter's lever).
  std::size_t batch_capacity = 1024;
  /// Bound on sealed-but-unapplied batches (>= 1). 1 is the classic
  /// double buffer: one batch applies while the next accumulates.
  std::size_t max_pending_batches = 1;
  /// Last-write-wins coalescing of repeated keys inside one window. Off,
  /// every submitted op reaches the table (the table's own applyBatch
  /// still groups them; read-your-writes is unaffected).
  bool coalesce = true;
  /// Optional memory accounting for the staging windows: when set, the
  /// pipeline charges batch_capacity * (max_pending_batches + 1) *
  /// kStagingOpWords words for its bounded staging structures, resized
  /// whenever setWindowCapacity moves the capacity. This is what lets a
  /// MemoryArbiter trade staging slots against cache frames inside ONE
  /// MemoryBudget — the paper's "memory as buffer vs memory as cache"
  /// split made explicit. The budget must outlive the pipeline.
  extmem::MemoryBudget* budget = nullptr;
  /// Record per-window applyBatch wall latency into applyLatency(). A
  /// runtime flag (not tied to EXTHASH_TELEMETRY_MODE) so that
  /// bench_pipeline and perfbench report the apply tail in every build;
  /// costs two steady_clock reads per applied window when on.
  bool record_apply_latency = false;
  /// Ack-after-durable mode (see durability/): when set, a log stage (one
  /// more background thread) appends every sealed window to this
  /// write-ahead log, in seal order and blocking until the record is
  /// durable, before handing it to the worker for applyBatch. The WAL's
  /// LSN sequence IS the window seal sequence, and a crash between
  /// log-append and apply loses nothing that recovery cannot replay. At
  /// max_pending_batches >= 2 the log stage appends and syncs window k+1
  /// while the worker applies window k; at 1 nothing overlaps and each
  /// window pays one extra thread hop. submitMaintenance tasks are a
  /// barrier in the log stage: nothing sealed after one is logged until
  /// the worker has run it, so at every maintenance point the WAL's
  /// durableLsn() is the LSN of the last applied window. nullptr (the
  /// default) is the pay-for-what-you-use path: no log thread, zero
  /// overhead, pre-durability semantics. The writer must outlive the
  /// pipeline. Non-owning.
  durability::WalWriter* wal = nullptr;
};

struct PipelineStats {
  std::uint64_t ops_submitted = 0;
  std::uint64_t ops_applied = 0;       // ops reaching applyBatch post-coalesce
  std::uint64_t ops_coalesced = 0;     // overwritten in the staging window
  std::uint64_t ops_discarded = 0;     // dropped by fail-stop skip / reset()
  std::uint64_t batches_applied = 0;
  std::uint64_t lookups_submitted = 0;
  std::uint64_t lookups_from_memory = 0;  // staging / in-flight answers
  std::uint64_t lookups_from_table = 0;
  std::uint64_t lookups_failed = 0;    // resolved with an error (fail-stop)
  std::uint64_t submit_waits = 0;      // backpressure blocks
};

class IngestPipeline {
 public:
  /// The pipeline drives `table` exclusively until drain(); the table must
  /// outlive the pipeline.
  explicit IngestPipeline(tables::ExternalHashTable& table,
                          PipelineConfig config = {});
  /// Drains remaining work; a worker error pending at destruction is
  /// swallowed (call drain() explicitly to observe it).
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Stage one operation. Seals the window when it reaches batch_capacity;
  /// sealing blocks while max_pending_batches batches are unapplied.
  void submit(tables::Op op) EXTHASH_EXCLUDES(mutex_);
  void insert(std::uint64_t key, std::uint64_t value) {
    submit(tables::Op::insertOp(key, value));
  }
  void erase(std::uint64_t key) { submit(tables::Op::eraseOp(key)); }

  /// Point lookup observing every previously submitted operation. Keys
  /// with a pending operation resolve immediately from memory; the rest
  /// resolve when the background worker answers them via lookupBatch —
  /// dispatched at once if the worker is idle, or grouped behind the work
  /// in flight otherwise, so every future resolves without flush().
  std::future<std::optional<std::uint64_t>> submitLookup(std::uint64_t key)
      EXTHASH_EXCLUDES(mutex_);

  /// Seal the staging window and pending lookups into the worker queue
  /// without waiting for them to apply (may block on backpressure).
  void flush() EXTHASH_EXCLUDES(mutex_);

  /// flush() and wait until every queued batch, lookup, and maintenance
  /// task has completed; rethrows the first background error. Afterwards
  /// the wrapped table is quiescent and safe to use directly. Under audit
  /// mode (see util/audit.h) this barrier additionally runs the pipeline's
  /// own accounting audit plus the wrapped table's validateLayout and
  /// throws CheckFailure on any violation.
  void drain() EXTHASH_EXCLUDES(mutex_);

  /// Resize the staging window capacity at runtime (>= 1) — the memory
  /// arbiter's staging-side lever. Takes effect at the next submit(): a
  /// window already holding >= the new capacity seals on the following
  /// operation. Deliberately never seals inline — sealing can block on
  /// backpressure, and this method must be safe to call from a
  /// submitMaintenance task on the worker itself. Resizes the optional
  /// staging budget charge (growing may throw BudgetExceeded, leaving the
  /// old capacity in place).
  void setWindowCapacity(std::size_t ops) EXTHASH_EXCLUDES(mutex_);
  std::size_t windowCapacity() const EXTHASH_EXCLUDES(mutex_);

  /// Recover from fail-stop after the underlying fault cleared: waits for
  /// the worker to go idle, discards the ops still staged (returning how
  /// many — they were accepted but never sealed, so no WAL record holds
  /// them either), resolves any unsealed lookups with the stored error, and
  /// clears the error latch so submissions flow again against the
  /// surviving table contents. Harmless on a healthy pipeline (nothing
  /// discarded, 0 returned). Producer-side call: do not invoke from a
  /// worker task.
  std::size_t reset() EXTHASH_EXCLUDES(mutex_);

  /// Run `fn` on the background worker, FIFO-ordered after every window
  /// sealed so far and before any sealed later (with a WAL attached, the
  /// log stage also holds back every later window's append until `fn`
  /// has run; see PipelineConfig::wal). This is the quiescent
  /// hook for memory arbitration: between worker tasks nothing else
  /// touches the wrapped table or its caches, so `fn` may resize caches
  /// and flush safely while producers keep submitting. Errors from `fn`
  /// surface at the next drain()/submit like any background error. Once
  /// a background error has latched, queued maintenance is SKIPPED like
  /// queued windows — the table may hold a partially applied window, and
  /// running a checkpoint against it would commit torn state as healthy.
  void submitMaintenance(std::function<void()> fn) EXTHASH_EXCLUDES(mutex_);

  PipelineStats stats() const EXTHASH_EXCLUDES(mutex_);
  /// Snapshot of the configuration. By value under the lock:
  /// batch_capacity is runtime-mutable (setWindowCapacity may run on the
  /// worker mid-stream), so a live reference would be a data race.
  PipelineConfig config() const EXTHASH_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return config_;
  }

  /// Structural accounting audit (see util/audit.h): staging-index ↔
  /// staging-window agreement, in-flight bound, staging-charge
  /// reconciliation against the configured budget, and the submitted =
  /// coalesced + applied + still-buffered operation ledger. Safe to call
  /// concurrently with producers (it snapshots under the lock), but the
  /// ledger checks are only exact at a quiescent barrier — drain() calls
  /// this automatically under audit mode.
  void audit(AuditReport& report) const EXTHASH_EXCLUDES(mutex_);

  /// The wrapped table. Only meaningful to touch after drain().
  tables::ExternalHashTable& table() noexcept { return table_; }

  /// Per-window applyBatch wall-latency distribution (nanoseconds);
  /// populated only when PipelineConfig::record_apply_latency is set.
  /// Covers applyBatch alone: with a WAL attached, the append runs on the
  /// log stage and is not included. Lock-free reads are safe any time;
  /// exact once the worker is idle.
  const obs::LatencyHistogram& applyLatency() const noexcept {
    return apply_hist_;
  }

 private:
  struct PendingLookup {
    std::uint64_t key = 0;
    std::promise<std::optional<std::uint64_t>> promise;
  };
  /// A sealed staging window awaiting (or undergoing) its background
  /// apply. Carries the key index built during accumulation, so
  /// read-your-writes checks need no per-op bookkeeping at seal time and
  /// retirement is O(1) — the window just leaves the in-flight list.
  struct BatchWindow {
    std::vector<tables::Op> ops;
    std::unordered_map<std::uint64_t, std::size_t> index;  // key -> newest op
  };

  /// Answer a lookup from a staged/unapplied op. kInsert -> value,
  /// kErase -> nullopt.
  static std::optional<std::uint64_t> answerFrom(const tables::Op& op) {
    return op.kind == tables::OpKind::kInsert
               ? std::optional<std::uint64_t>(op.value)
               : std::nullopt;
  }

  // All *Locked methods require mutex_ held (compiler-enforced).
  void sealBatchLocked(util::MutexLock& lock) EXTHASH_REQUIRES(mutex_);
  void sealLookupsLocked() EXTHASH_REQUIRES(mutex_);
  void throwIfFailedLocked() EXTHASH_REQUIRES(mutex_);
  /// Largest op count any staging structure still physically holds (the
  /// accumulating window or a sealed in-flight window).
  std::size_t residentEnvelopeLocked() const EXTHASH_REQUIRES(mutex_);
  void rechargeStagingLocked() EXTHASH_REQUIRES(mutex_);

  // Test-only corruption hook for the invariant auditor (tests define the
  // struct; the library never does).
  friend struct AuditPeer;

  tables::ExternalHashTable& table_;
  // Immutable after construction (unlike config_.batch_capacity), so the
  // log stage reads it without the lock.
  durability::WalWriter* const wal_;
  PipelineConfig config_ EXTHASH_GUARDED_BY(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar room_cv_;   // a pending-batch slot freed
  util::CondVar done_cv_;   // some queued work completed

  // Staging window (accumulating, not yet sealed).
  std::vector<tables::Op> staging_ EXTHASH_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::size_t> staging_index_
      EXTHASH_GUARDED_BY(mutex_);

  // Lookups waiting to be sealed into a worker task.
  std::vector<PendingLookup> pending_lookups_ EXTHASH_GUARDED_BY(mutex_);

  // Sealed windows not yet applied, oldest first (the worker completes
  // them in FIFO order). Bounded by max_pending_batches.
  std::deque<std::shared_ptr<BatchWindow>> inflight_
      EXTHASH_GUARDED_BY(mutex_);

  std::size_t pending_lookup_tasks_ EXTHASH_GUARDED_BY(mutex_) = 0;
  std::size_t pending_maintenance_ EXTHASH_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ EXTHASH_GUARDED_BY(mutex_);

  // Charge for the bounded staging structures when config_.budget is set;
  // resized by setWindowCapacity.
  extmem::MemoryCharge staging_charge_ EXTHASH_GUARDED_BY(mutex_);

  PipelineStats stats_ EXTHASH_GUARDED_BY(mutex_);

  // Apply-latency distribution (see applyLatency()). Internally atomic —
  // the single worker records, any thread may read — so it needs no
  // mutex_ guard.
  obs::LatencyHistogram apply_hist_;

  // Single-thread FIFO executor; declared after the state above so it
  // stops (and finishes queued tasks referencing that state) before
  // anything else is destroyed.
  ThreadPool worker_;

  // The log stage: a single-thread FIFO executor that appends each sealed
  // window to wal_ and then submits its apply to worker_. Present only
  // when a WAL is attached. Declared after worker_ so it is joined first:
  // its queued tasks still submit to the worker.
  std::optional<ThreadPool> log_;
};

}  // namespace exthash::pipeline
