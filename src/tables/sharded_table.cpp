#include "tables/sharded_table.h"

#include <algorithm>
#include <string>

#include "extmem/memory_arbiter.h"
#include "obs/metrics.h"
#include "util/random.h"

#include "tables/meta_words.h"

namespace exthash::tables {

namespace {

/// Shard router: a fixed splitmix64 scramble, independent of the seeded
/// hash family members the inner tables use, so conditioning on the shard
/// leaves h(key) uniform.
inline std::uint64_t shardScramble(std::uint64_t key) noexcept {
  return splitmix64(key ^ 0x5111A9DE55555555ULL);
}

GeneralConfig withAtLeastOneShard(GeneralConfig config) {
  config.shards = std::max<std::size_t>(1, config.shards);
  return config;
}

}  // namespace

ShardedTable::ShardedTable(TableContext ctx, const GeneralConfig& config)
    : ExternalHashTable(ctx),
      config_(withAtLeastOneShard(config)),
      pool_(config_.shard_threads != 0
                ? config_.shard_threads
                : std::min<std::size_t>(
                      config_.shards,
                      std::max(1u, std::thread::hardware_concurrency()))) {
  EXTHASH_CHECK_MSG(config_.shards <= kMaxShards,
                    "shard count exceeds the block-id namespace ("
                        << kMaxShards << ")");
  EXTHASH_CHECK_MSG(config_.sharded_inner != TableKind::kSharded,
                    "sharded façades do not nest");
  const std::size_t n = config_.shards;
  const std::size_t cache_frames = config_.shard_cache_frames;
  const auto cache_policy =
      config_.shard_cache_write_back
          ? extmem::BlockCache::WritePolicy::kWriteBack
          : extmem::BlockCache::WritePolicy::kWriteThrough;
  const std::size_t words = ctx_.device->wordsPerBlock();
  const std::size_t mem_limit =
      ctx_.memory->unlimited()
          ? 0
          : std::max<std::size_t>(1, ctx_.memory->limit() / n);

  const GeneralConfig inner = innerShardConfig();

  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    // Distribute the frame budget exactly: base frames everywhere plus
    // one extra for the first (cache_frames mod n) shards, so the charge
    // against the shared budget equals the configured total (shards past
    // the budget simply get no cache).
    const std::size_t frames_per_shard =
        cache_frames / n + (s < cache_frames % n ? 1 : 0);
    Shard shard;
    shard.device = std::make_unique<extmem::BlockDevice>(
        words, config_.shard_storage);
    shard.memory = std::make_unique<extmem::MemoryBudget>(mem_limit);
    if (frames_per_shard > 0) {
      // Frames are charged to the caller's shared budget (ctx_.memory):
      // cache memory competes with staging buffers and every other
      // in-memory structure the caller accounts there, exactly like the
      // paper's single memory-of-m-words model.
      shard.cache = std::make_unique<extmem::BlockCache>(
          *shard.device, *ctx_.memory, frames_per_shard, cache_policy,
          config_.shard_cache_replacement);
    }
    shard.table = makeTable(
        config_.sharded_inner,
        TableContext{shard.device.get(), shard.memory.get(), ctx_.hash},
        inner);
    if (shard.cache) shard.table->attachCache(shard.cache.get());
    shards_.push_back(std::move(shard));
  }
}

GeneralConfig ShardedTable::innerShardConfig() const {
  const std::size_t n = config_.shards;
  GeneralConfig inner = config_;
  inner.expected_n =
      std::max<std::size_t>(1, (inner.expected_n + n - 1) / n);
  if (inner.buffer_items > 0) {
    inner.buffer_items =
        std::max<std::size_t>(1, (inner.buffer_items + n - 1) / n);
  }
  return inner;
}

std::size_t ShardedTable::shardOf(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>(
      hashfn::rangeBucket(shardScramble(key), shards_.size()));
}

std::exception_ptr ShardedTable::runGuarded(
    std::size_t s, const std::function<void()>& fn) {
  Shard& shard = shards_[s];
  // Fail fast on a latched shard WITHOUT touching it: its device faulted
  // past the retry budget, and driving more traffic into a half-written
  // structure only compounds the damage.
  if (shard.error) return shard.error;
  try {
    fn();
    return nullptr;
  } catch (const extmem::IoError&) {
    // The broken part is the shard's private device — latch, so the
    // façade degrades to (n-1)/n service instead of failing whole.
    shard.error = std::current_exception();
    ++shard.latches;
    return shard.error;
  } catch (...) {
    // Logic errors stay batch-scoped (the caller rethrows; the shard
    // keeps serving later batches — the pre-isolation behavior).
    return std::current_exception();
  }
}

namespace {

/// Rethrow the lowest-indexed captured error after a fan-out completed.
void rethrowFirst(const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

bool ShardedTable::insert(std::uint64_t key, std::uint64_t value) {
  const std::size_t s = shardOf(key);
  bool result = false;
  if (const auto err = runGuarded(
          s, [&] { result = shards_[s].table->insert(key, value); })) {
    std::rethrow_exception(err);
  }
  return result;
}

std::optional<std::uint64_t> ShardedTable::lookup(std::uint64_t key) {
  const std::size_t s = shardOf(key);
  std::optional<std::uint64_t> result;
  if (const auto err = runGuarded(
          s, [&] { result = shards_[s].table->lookup(key); })) {
    std::rethrow_exception(err);
  }
  return result;
}

bool ShardedTable::erase(std::uint64_t key) {
  const std::size_t s = shardOf(key);
  bool result = false;
  if (const auto err = runGuarded(
          s, [&] { result = shards_[s].table->erase(key); })) {
    std::rethrow_exception(err);
  }
  return result;
}

void ShardedTable::applyBatch(std::span<const Op> ops) {
  if (shards_.size() == 1) {
    const auto err =
        runGuarded(0, [&] { shards_[0].table->applyBatch(ops); });
    shards_[0].ops += ops.size();
    if (err) std::rethrow_exception(err);
    return;
  }
  // Partition preserving arrival order: every op for one key routes to one
  // shard, so per-key order survives the shard-parallel dispatch.
  std::vector<std::vector<Op>> per_shard(shards_.size());
  for (const Op& op : ops) per_shard[shardOf(op.key)].push_back(op);
  // Distinct slots per shard task — no shared mutable state in the
  // fan-out (the threading contract above).
  std::vector<std::exception_ptr> batch_errors(shards_.size());
  pool_.parallelFor(0, shards_.size(), [&](std::size_t s) {
    if (per_shard[s].empty()) return;
    batch_errors[s] = runGuarded(
        s, [&] { shards_[s].table->applyBatch(per_shard[s]); });
    shards_[s].ops += per_shard[s].size();
  });
  // Every healthy shard has applied its slice by now; the error still
  // surfaces to the caller (who may catch it and keep routing traffic —
  // ops for the faulted shard fail fast, the rest keep serving).
  rethrowFirst(batch_errors);
}

void ShardedTable::lookupBatch(std::span<const std::uint64_t> keys,
                               std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(keys.size() == out.size());
  if (shards_.size() == 1) {
    const auto err =
        runGuarded(0, [&] { shards_[0].table->lookupBatch(keys, out); });
    shards_[0].lookups += keys.size();
    if (err) std::rethrow_exception(err);
    return;
  }
  std::vector<std::vector<std::size_t>> per_shard(shards_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    per_shard[shardOf(keys[i])].push_back(i);
  }
  std::vector<std::exception_ptr> batch_errors(shards_.size());
  pool_.parallelFor(0, shards_.size(), [&](std::size_t s) {
    const auto& indices = per_shard[s];
    if (indices.empty()) return;
    batch_errors[s] = runGuarded(s, [&] {
      std::vector<std::uint64_t> sub_keys;
      sub_keys.reserve(indices.size());
      for (const std::size_t idx : indices) sub_keys.push_back(keys[idx]);
      std::vector<std::optional<std::uint64_t>> sub_out(sub_keys.size());
      shards_[s].table->lookupBatch(sub_keys, sub_out);
      for (std::size_t k = 0; k < indices.size(); ++k) {
        out[indices[k]] = sub_out[k];
      }
    });
    shards_[s].lookups += indices.size();
  });
  // Healthy shards' results are filled in even when a shard faulted; the
  // faulted shard's slots keep their input value (nullopt for a fresh
  // output span) and the error is rethrown for the caller to handle.
  rethrowFirst(batch_errors);
}

std::vector<ShardedTable::ShardError> ShardedTable::shardErrors() const {
  std::vector<ShardError> report;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s].error) continue;
    ShardError entry;
    entry.shard = s;
    try {
      std::rethrow_exception(shards_[s].error);
    } catch (const std::exception& e) {
      entry.message = e.what();
    } catch (...) {
      entry.message = "unknown error";
    }
    report.push_back(std::move(entry));
  }
  return report;
}

std::size_t ShardedTable::failedShardCount() const noexcept {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.error != nullptr;
  return n;
}

void ShardedTable::clearShardErrors() noexcept {
  for (const Shard& shard : shards_) shard.error = nullptr;
}

void ShardedTable::resetShard(std::size_t i) {
  EXTHASH_CHECK(i < shards_.size());
  Shard& shard = shards_[i];
  shard.error = nullptr;
  // Discard before destroying: the old table's destructor flushes through
  // the cache, and a quarantined dirty frame from the fault that killed
  // the shard must not be written into the rebuilt structure.
  if (shard.cache) shard.cache->discardAll();
  shard.table.reset();  // frees the old structure's blocks on the device
  shard.table = makeTable(
      config_.sharded_inner,
      TableContext{shard.device.get(), shard.memory.get(), ctx_.hash},
      innerShardConfig());
  if (shard.cache) shard.table->attachCache(shard.cache.get());
  ++resets_;
}

// ---------------------------------------------------------------------------
// Checkpoint metadata
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kShardedMetaMagic = 0x53484152444D4554ULL;  // SHARDMET
}  // namespace

std::vector<std::uint64_t> ShardedTable::serializeMeta() const {
  for (const Shard& shard : shards_) {
    if (shard.error) std::rethrow_exception(shard.error);
  }
  MetaWriter w;
  w.tag(kShardedMetaMagic);
  w.u64(shards_.size());
  w.u64(static_cast<std::uint64_t>(config_.sharded_inner));
  // Length-prefixed per-shard sections keep the inner formats opaque to
  // the façade.
  for (const Shard& shard : shards_) w.vec(shard.table->serializeMeta());
  return w.take();
}

void ShardedTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kShardedMetaMagic);
  EXTHASH_CHECK_MSG(
      r.u64() == shards_.size() &&
          static_cast<TableKind>(r.u64()) == config_.sharded_inner,
      "sharded checkpoint geometry mismatch");
  // The checkpointed state predates whatever fault latched a shard; the
  // restored structure is consistent, so the shard re-admits traffic.
  clearShardErrors();
  for (const Shard& shard : shards_) {
    const std::vector<std::uint64_t> inner_meta = r.vec();
    shard.table->restoreMeta(inner_meta);
  }
  EXTHASH_CHECK_MSG(r.done(), "trailing words in sharded checkpoint meta");
}

void ShardedTable::invalidateCaches() {
  // Each inner table's attached cache IS the shard's private cache.
  for (const Shard& shard : shards_) shard.table->invalidateCaches();
}

std::size_t ShardedTable::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.table->size();
  return total;
}

namespace {

/// Forwards a shard's layout with block ids namespaced by shard index, so
/// numerically colliding per-device ids stay distinct at the façade level.
class NamespacingVisitor final : public LayoutVisitor {
 public:
  NamespacingVisitor(LayoutVisitor& inner, std::size_t shard)
      : inner_(inner), shard_(shard) {}

  void memoryItem(const Record& record) override { inner_.memoryItem(record); }
  void diskItem(extmem::BlockId block, const Record& record) override {
    EXTHASH_CHECK_MSG(block < (extmem::BlockId{1} << ShardedTable::kLocalIdBits),
                      "shard-local block id overflows the namespace");
    inner_.diskItem(ShardedTable::namespacedBlockId(shard_, block), record);
  }

 private:
  LayoutVisitor& inner_;
  std::size_t shard_;
};

}  // namespace

void ShardedTable::visitLayout(LayoutVisitor& visitor) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    NamespacingVisitor forwarding(visitor, s);
    shards_[s].table->visitLayout(forwarding);
  }
}

std::optional<extmem::BlockId> ShardedTable::primaryBlockOf(
    std::uint64_t key) const {
  const std::size_t s = shardOf(key);
  const auto local = shards_[s].table->primaryBlockOf(key);
  if (!local) return std::nullopt;
  return namespacedBlockId(s, *local);
}

extmem::IoStats ShardedTable::ioStats() const {
  extmem::IoStats total;
  for (const Shard& shard : shards_) {
    total += shard.device->stats();
    if (shard.cache) {
      total.cache_hits += shard.cache->hits();
      total.cache_writebacks += shard.cache->writebacks();
      total.cache_ghost_hits += shard.cache->ghostHits();
    }
  }
  return total;
}

void ShardedTable::flushCache() const {
  std::vector<std::exception_ptr> errors(shards_.size());
  pool_.parallelFor(0, shards_.size(), [&](std::size_t s) {
    const Shard& shard = shards_[s];
    if (!shard.cache || shard.error) return;
    try {
      shard.cache->flush();
    } catch (const extmem::IoError&) {
      shard.error = std::current_exception();
      ++shard.latches;
      errors[s] = shard.error;
    }
  });
  rethrowFirst(errors);
}

void ShardedTable::captureImages(
    std::vector<extmem::BlockDevice::Image>& images) {
  images.resize(shards_.size());
  pool_.parallelFor(0, shards_.size(), [&](std::size_t s) {
    shards_[s].device->captureImage(images[s]);
  });
}

void ShardedTable::collect(obs::MetricsRegistry& registry) const {
  registry.counter("exthash_shard_resets_total").inc(resets_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    obs::MetricsRegistry part;
    shard.table->collect(part);
    part.counter("exthash_shard_ops_total").inc(shard.ops);
    part.counter("exthash_shard_lookups_total").inc(shard.lookups);
    part.counter("exthash_shard_failures_total").inc(shard.latches);
    part.gauge("exthash_shard_size")
        .set(static_cast<double>(shard.table->size()));
    registry.merge(part, "shard=\"" + std::to_string(s) + "\"");
  }
}

void ShardedTable::validateLayout(AuditReport& report) const {
  // No façade-level cache (attachCache is unusable over private shard
  // devices), so skip the base audit and recurse instead: each shard's
  // table audit inherits its own auto-attached cache's audit. Failed
  // shards are skipped — a batch that faulted mid-apply may have left the
  // structure mid-rewrite, which is exactly what the latch records.
  for (const Shard& shard : shards_) {
    if (shard.error) continue;
    shard.table->validateLayout(report);
  }
}

void ShardedTable::registerCaches(extmem::MemoryArbiter& arbiter) const {
  for (const Shard& shard : shards_) {
    if (shard.cache) arbiter.addCache(shard.cache.get());
  }
}

std::string ShardedTable::debugString() const {
  std::string s = "sharded{n=" + std::to_string(shards_.size()) +
                  ", inner=" +
                  std::string(tableKindName(config_.sharded_inner)) +
                  ", sizes=[";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(shards_[i].table->size());
  }
  s += "], io=" + std::to_string(ioStats().cost()) + "}";
  return s;
}

}  // namespace exthash::tables
