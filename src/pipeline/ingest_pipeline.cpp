#include "pipeline/ingest_pipeline.h"

#include <utility>

#include "durability/wal.h"
#include "obs/trace.h"

namespace exthash::pipeline {

using tables::Op;
using tables::OpKind;

namespace {

/// Words the optional staging charge covers for a window capacity of
/// `ops`: every op slot across the accumulating window plus the bounded
/// in-flight windows.
std::size_t stagingWords(const PipelineConfig& config, std::size_t ops) {
  return ops * (config.max_pending_batches + 1) * kStagingOpWords;
}

}  // namespace

std::size_t IngestPipeline::residentEnvelopeLocked() const {
  std::size_t span = staging_.size();
  for (const auto& window : inflight_) {
    span = std::max(span, window->ops.size());
  }
  return span;
}

void IngestPipeline::rechargeStagingLocked() {
  // Charge the envelope of what the staging structures PHYSICALLY hold,
  // not just the configured capacity: after a shrink, the accumulating
  // window and the sealed in-flight windows may still carry the old
  // capacity's ops until they seal/apply, and releasing their words
  // early would let an arbiter re-grant memory that is still resident
  // (the same convention as BlockCache::rechargeForResidency). Window
  // completions call back here, so the charge drains as the windows do.
  staging_charge_.resize(stagingWords(
      config_, std::max(config_.batch_capacity, residentEnvelopeLocked())));
}

IngestPipeline::IngestPipeline(tables::ExternalHashTable& table,
                               PipelineConfig config)
    : table_(table), wal_(config.wal), config_(config), worker_(1) {
  EXTHASH_CHECK_MSG(config_.batch_capacity >= 1,
                    "pipeline needs batch_capacity >= 1");
  EXTHASH_CHECK_MSG(config_.max_pending_batches >= 1,
                    "pipeline needs max_pending_batches >= 1");
  if (wal_ != nullptr) log_.emplace(1);
  if (config_.budget != nullptr) {
    staging_charge_ = extmem::MemoryCharge(
        *config_.budget, stagingWords(config_, config_.batch_capacity));
  }
  staging_.reserve(config_.batch_capacity);
  staging_index_.reserve(config_.batch_capacity);
}

IngestPipeline::~IngestPipeline() {
  try {
    drain();
  } catch (...) {
    // Errors already surfaced to drain() callers; a destructor cannot
    // rethrow. The log stage joins first, then the worker, before the
    // state their queued tasks reference is destroyed.
  }
}

void IngestPipeline::throwIfFailedLocked() {
  if (error_) std::rethrow_exception(error_);
}

void IngestPipeline::sealLookupsLocked() {
  if (pending_lookups_.empty()) return;
  auto batch = std::make_shared<std::vector<PendingLookup>>(
      std::move(pending_lookups_));
  pending_lookups_.clear();
  ++pending_lookup_tasks_;
  worker_.submit([this, batch] {
    // Fail-stop: once a background error latched, the table must not be
    // driven further — but every future still resolves, with the error.
    std::exception_ptr err;
    {
      util::MutexLock lock(mutex_);
      err = error_;
    }
    std::vector<std::optional<std::uint64_t>> out(batch->size());
    if (!err) {
      std::vector<std::uint64_t> keys;
      keys.reserve(batch->size());
      for (const PendingLookup& p : *batch) keys.push_back(p.key);
      try {
        table_.lookupBatch(keys, out);
      } catch (...) {
        err = std::current_exception();
      }
    }
    for (std::size_t i = 0; i < batch->size(); ++i) {
      if (err) (*batch)[i].promise.set_exception(err);
      else (*batch)[i].promise.set_value(out[i]);
    }
    {
      util::MutexLock lock(mutex_);
      if (err && !error_) error_ = err;
      --pending_lookup_tasks_;
      if (err) stats_.lookups_failed += batch->size();
      else stats_.lookups_from_table += batch->size();
      // Progress guarantee: dispatch lookups that accumulated meanwhile.
      sealLookupsLocked();
    }
    done_cv_.notify_all();
  });
}

void IngestPipeline::sealBatchLocked(util::MutexLock& lock) {
  // Pending table lookups were submitted before the ops in this window
  // seal; enqueue them first so FIFO order on the single worker keeps
  // them from observing this batch. (Their keys are disjoint from every
  // staged key anyway — a lookup on a staged key is answered from memory.)
  sealLookupsLocked();
  if (staging_.empty()) return;

  // Backpressure: wait for an unapplied-window slot. One episode counts
  // once, however many wakeups it takes.
  if (inflight_.size() >= config_.max_pending_batches) {
    ++stats_.submit_waits;
    const obs::TraceSpan wait_span("submit-wait", "pipeline");
    do {
      room_cv_.wait(lock);
    } while (inflight_.size() >= config_.max_pending_batches);
  }
  // The wait released the lock: a concurrent producer may have sealed the
  // staging window already.
  if (staging_.empty()) return;

  // The seal span closes before the hand-off below, so every event this
  // thread emits for the window happens-before the window's tasks (a
  // flight-recorder dump on the worker reads this thread's ring).
  auto window = std::make_shared<BatchWindow>();
  {
    const obs::TraceSpan seal_span("seal", "pipeline");
    window->ops = std::move(staging_);
    window->index = std::move(staging_index_);
    staging_ = {};
    staging_.reserve(config_.batch_capacity);
    staging_index_ = {};
    staging_index_.reserve(config_.batch_capacity);
    inflight_.push_back(window);
    obs::traceCounter("pipeline inflight",
                      static_cast<double>(inflight_.size()));
  }

  const bool record_latency = config_.record_apply_latency;
  auto apply = [this, window, record_latency] {
    // Fail-stop: after a prior background error the table may hold a
    // partially applied window — driving more batches into it could
    // compound the damage — or the log refused this very window, so
    // queued windows complete WITHOUT touching the table and their ops
    // are accounted as discarded.
    bool skip;
    {
      util::MutexLock guard(mutex_);
      skip = error_ != nullptr;
    }
    std::exception_ptr err;
    if (!skip) {
      try {
        obs::TraceSpan apply_span("worker-apply", "pipeline");
        apply_span.arg("ops", static_cast<double>(window->ops.size()));
        obs::ScopedLatencyTimer apply_timer(
            record_latency ? &apply_hist_ : nullptr);
        table_.applyBatch(window->ops);
      } catch (...) {
        err = std::current_exception();
      }
    }
    {
      util::MutexLock inner(mutex_);
      // The worker is FIFO, so the window completing is the oldest one.
      EXTHASH_CHECK(!inflight_.empty() && inflight_.front() == window);
      inflight_.pop_front();
      if (skip) {
        stats_.ops_discarded += window->ops.size();
      } else {
        ++stats_.batches_applied;
        stats_.ops_applied += window->ops.size();
      }
      if (err && !error_) error_ = err;
      // A retired oversized window may let the staging charge drop to
      // the (possibly shrunk) configured capacity.
      rechargeStagingLocked();
      // Progress guarantee: dispatch lookups that accumulated while this
      // window applied.
      sealLookupsLocked();
    }
    room_cv_.notify_all();
    done_cv_.notify_all();
  };
  if (!log_) {
    worker_.submit(std::move(apply));
    return;
  }
  log_->submit([this, window, apply = std::move(apply)]() mutable {
    // Ack-after-durable: the window is logged (and durable) before the
    // worker sees it. A crash after the append loses no acknowledged op —
    // recovery replays the record; a crash inside it means the record
    // never became durable and fail-stop keeps it unacknowledged. After a
    // latched error nothing more is logged, and a refused append latches
    // the error itself, so the worker retires the window as discarded.
    bool skip;
    {
      util::MutexLock guard(mutex_);
      skip = error_ != nullptr;
    }
    if (!skip) {
      try {
        const obs::TraceSpan wal_span("wal-append", "pipeline");
        wal_->append(window->ops);
      } catch (...) {
        util::MutexLock guard(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
    // Every window reaches the worker, logged or not: only the worker
    // retires windows, so drain() and the lookup progress guarantee see
    // one completion path.
    worker_.submit(std::move(apply));
  });
}

void IngestPipeline::submit(Op op) {
  util::MutexLock lock(mutex_);
  throwIfFailedLocked();
  // Pending table lookups need no action here: they stay correct as long
  // as they dispatch before this op's window does, and sealBatchLocked
  // enqueues them ahead of the window it seals.
  ++stats_.ops_submitted;
  if (config_.coalesce) {
    const auto [it, fresh] = staging_index_.try_emplace(op.key, staging_.size());
    if (!fresh) {
      staging_[it->second] = op;  // last write wins inside the window
      ++stats_.ops_coalesced;
      return;
    }
  } else {
    staging_index_[op.key] = staging_.size();  // newest op per key
  }
  staging_.push_back(op);
  if (staging_.size() >= config_.batch_capacity) sealBatchLocked(lock);
}

std::future<std::optional<std::uint64_t>> IngestPipeline::submitLookup(
    std::uint64_t key) {
  util::MutexLock lock(mutex_);
  throwIfFailedLocked();
  ++stats_.lookups_submitted;

  // Read-your-writes fast path: newest pending op wins — staging is newer
  // than any sealed window, and younger windows are newer than older ones.
  const tables::Op* pending_op = nullptr;
  const auto staged = staging_index_.find(key);
  if (staged != staging_index_.end()) {
    pending_op = &staging_[staged->second];
  } else {
    for (auto it = inflight_.rbegin(); it != inflight_.rend(); ++it) {
      const auto hit = (*it)->index.find(key);
      if (hit != (*it)->index.end()) {
        pending_op = &(*it)->ops[hit->second];
        break;
      }
    }
  }
  if (pending_op != nullptr) {
    ++stats_.lookups_from_memory;
    std::promise<std::optional<std::uint64_t>> ready;
    ready.set_value(answerFrom(*pending_op));
    return ready.get_future();
  }

  // No pending op on this key: the table's answer is current no matter
  // how far the worker has progressed; batch it with its neighbours.
  // Progress is guaranteed without flush(): if the worker is idle the
  // batch dispatches now, otherwise the task in flight dispatches it on
  // completion (so lookups group up exactly while there is something to
  // group behind).
  pending_lookups_.push_back(PendingLookup{key, {}});
  auto fut = pending_lookups_.back().promise.get_future();
  if (pending_lookups_.size() >= config_.batch_capacity ||
      (inflight_.empty() && pending_lookup_tasks_ == 0)) {
    sealLookupsLocked();
  }
  return fut;
}

void IngestPipeline::setWindowCapacity(std::size_t ops) {
  util::MutexLock lock(mutex_);
  EXTHASH_CHECK_MSG(ops >= 1, "pipeline needs batch_capacity >= 1");
  if (ops == config_.batch_capacity) return;
  if (ops > config_.batch_capacity) {
    // Charge first so a BudgetExceeded on growth leaves the capacity
    // as-is — to the envelope, not the bare capacity: a grow that is
    // still below an oversized resident window must not release the
    // words that window holds.
    staging_charge_.resize(
        stagingWords(config_, std::max(ops, residentEnvelopeLocked())));
    config_.batch_capacity = ops;
    return;
  }
  // Shrink: the charge only drops to the envelope of what the windows
  // still hold; completions release the rest as they drain.
  config_.batch_capacity = ops;
  rechargeStagingLocked();
}

std::size_t IngestPipeline::windowCapacity() const {
  util::MutexLock lock(mutex_);
  return config_.batch_capacity;
}

void IngestPipeline::submitMaintenance(std::function<void()> fn) {
  util::MutexLock lock(mutex_);
  throwIfFailedLocked();
  ++pending_maintenance_;
  auto task = [this, fn = std::move(fn)] {
    // Fail-stop covers maintenance too: after a background error the
    // table may hold a partially applied window, and a queued maintenance
    // task (a checkpoint, say) running against it would commit that torn
    // state as if it were healthy. Same skip rule as queued windows.
    bool skip;
    {
      util::MutexLock guard(mutex_);
      skip = error_ != nullptr;
    }
    std::exception_ptr err;
    if (!skip) {
      try {
        fn();
      } catch (...) {
        err = std::current_exception();
      }
    }
    {
      util::MutexLock inner(mutex_);
      if (err && !error_) error_ = err;
      --pending_maintenance_;
    }
    done_cv_.notify_all();
  };
  if (!log_) {
    worker_.submit(std::move(task));
    return;
  }
  // A barrier in the log stage: nothing sealed later is logged until the
  // worker has run `fn`, so a checkpoint sees every durable window applied
  // and may stamp the WAL's durableLsn().
  log_->submit([this, task = std::move(task)]() mutable {
    worker_.submit(std::move(task)).wait();
  });
}

void IngestPipeline::flush() {
  util::MutexLock lock(mutex_);
  throwIfFailedLocked();
  sealBatchLocked(lock);
  sealLookupsLocked();
}

void IngestPipeline::drain() {
  const obs::TraceSpan drain_span("drain", "pipeline");
  {
    util::MutexLock lock(mutex_);
    // Seal and wait even when a background error is pending: every queued
    // promise must resolve (with the error, not broken_promise) and the
    // worker must go idle before drain reports — the table is quiescent
    // after drain() whether it throws or not. (Explicit loop rather than
    // a predicate lambda: thread-safety analysis cannot see a lambda
    // predicate runs with the lock held.)
    sealBatchLocked(lock);
    sealLookupsLocked();
    while (!(inflight_.empty() && pending_lookup_tasks_ == 0 &&
             pending_maintenance_ == 0)) {
      done_cv_.wait(lock);
    }
    // Flush barrier: the worker is idle, so the table is quiescent — write
    // any dirty cached frames to the device now. Callers rely on drain()
    // leaving the device authoritative (direct table use, inspect-based
    // checks) and on ioStats() including the deferred writes. Fail-stop
    // skips the flush (the stored error wins; quarantined frames wait for
    // the fault to clear), and a flush fault latches fail-stop itself —
    // the barrier's promise of an authoritative device was not kept.
    if (!error_) {
      const obs::TraceSpan flush_span("flush-cache", "pipeline");
      try {
        table_.flushCache();
      } catch (...) {
        error_ = std::current_exception();
      }
    }
    throwIfFailedLocked();
  }
  // Barrier audit: everything is quiescent and flushed, so both the
  // pipeline's accounting invariants and the table's structural layout
  // are exact here. Off unless audit mode is on (compile option or env).
  if (audit::enabled()) {
    AuditReport report;
    audit(report);
    table_.validateLayout(report);
    report.throwIfFailed();
  }
}

std::size_t IngestPipeline::reset() {
  std::vector<PendingLookup> orphaned;
  std::exception_ptr cause;
  std::size_t discarded = 0;
  {
    util::MutexLock lock(mutex_);
    // Let queued work finish first: every sealed window has a worker task
    // (fail-stopped ones complete quickly without touching the table) and
    // every sealed lookup batch resolves its futures. Only then is it
    // safe to drop the structures those tasks reference.
    while (!(inflight_.empty() && pending_lookup_tasks_ == 0 &&
             pending_maintenance_ == 0)) {
      done_cv_.wait(lock);
    }
    discarded = staging_.size();
    stats_.ops_discarded += discarded;
    staging_.clear();
    staging_index_.clear();
    // Unsealed lookups were promised an answer; fail-stop semantics give
    // them the error rather than an answer reflecting discarded ops.
    cause = error_ != nullptr
                ? error_
                : std::make_exception_ptr(
                      CheckFailure("pipeline reset discarded this lookup"));
    orphaned = std::move(pending_lookups_);
    pending_lookups_.clear();
    stats_.lookups_failed += orphaned.size();
    error_ = nullptr;
    rechargeStagingLocked();
  }
  // Resolve outside the lock: future continuations must not re-enter.
  for (PendingLookup& lookup : orphaned) {
    lookup.promise.set_exception(cause);
  }
  room_cv_.notify_all();
  return discarded;
}

PipelineStats IngestPipeline::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

void IngestPipeline::collect(obs::MetricsRegistry& registry) const {
  util::MutexLock lock(mutex_);
  registry.counter("exthash_pipeline_batches_applied_total")
      .inc(stats_.batches_applied);
  registry.counter("exthash_pipeline_ops_applied_total")
      .inc(stats_.ops_applied);
  registry.counter("exthash_pipeline_submit_waits_total")
      .inc(stats_.submit_waits);
  registry.gauge("exthash_pipeline_inflight_windows")
      .set(static_cast<double>(inflight_.size()));
}

void IngestPipeline::audit(AuditReport& report) const {
  const char* kComponent = "pipeline";
  util::MutexLock lock(mutex_);

  // Staging window ↔ key index agreement: every index entry points at an
  // in-range op carrying that key; under coalescing the index is exactly
  // one entry per staged op (that is what makes last-write-wins O(1)).
  for (const auto& [key, idx] : staging_index_) {
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         idx < staging_.size() && staging_[idx].key == key,
                         "staging index maps key " << key << " to slot "
                             << idx << " of " << staging_.size());
  }
  if (config_.coalesce) {
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         staging_index_.size() == staging_.size(),
                         "coalescing index holds " << staging_index_.size()
                             << " keys for " << staging_.size()
                             << " staged ops");
  }

  // In-flight bound and per-window index agreement (windows are immutable
  // after sealing, so the same invariant as staging applies).
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       inflight_.size() <= config_.max_pending_batches,
                       inflight_.size() << " unapplied windows, bound is "
                           << config_.max_pending_batches);
  std::size_t inflight_ops = 0;
  for (const auto& window : inflight_) {
    inflight_ops += window->ops.size();
    for (const auto& [key, idx] : window->index) {
      EXTHASH_AUDIT_EXPECT(
          report, kComponent,
          idx < window->ops.size() && window->ops[idx].key == key,
          "sealed-window index maps key " << key << " to slot " << idx
              << " of " << window->ops.size());
    }
  }

  // Operation ledger: every submitted op was coalesced away, applied,
  // discarded (fail-stop skip / reset), or is still physically buffered.
  // Holds at any instant under the lock.
  EXTHASH_AUDIT_EXPECT(
      report, kComponent,
      stats_.ops_submitted == stats_.ops_coalesced + stats_.ops_applied +
                                  stats_.ops_discarded + staging_.size() +
                                  inflight_ops,
      stats_.ops_submitted << " submitted != " << stats_.ops_coalesced
          << " coalesced + " << stats_.ops_applied << " applied + "
          << stats_.ops_discarded << " discarded + " << staging_.size()
          << " staging + " << inflight_ops << " in flight");

  // Lookup ledger: exact only once no lookup task is on the worker.
  if (pending_lookup_tasks_ == 0) {
    EXTHASH_AUDIT_EXPECT(
        report, kComponent,
        stats_.lookups_submitted == stats_.lookups_from_memory +
                                        stats_.lookups_from_table +
                                        stats_.lookups_failed +
                                        pending_lookups_.size(),
        stats_.lookups_submitted << " lookups submitted != "
            << stats_.lookups_from_memory << " from memory + "
            << stats_.lookups_from_table << " from table + "
            << stats_.lookups_failed << " failed + "
            << pending_lookups_.size() << " pending");
  }

  // Staging charge reconciliation: when a budget is attached, the charge
  // covers the envelope of configured capacity and physically resident
  // windows (rechargeStagingLocked's contract).
  if (config_.budget != nullptr) {
    const std::size_t expected = stagingWords(
        config_,
        std::max(config_.batch_capacity, residentEnvelopeLocked()));
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         staging_charge_.words() == expected,
                         "staging charge " << staging_charge_.words()
                             << " words, expected " << expected);
  }
}

}  // namespace exthash::pipeline
