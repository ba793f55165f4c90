// W2 zipf-cached-mixed: the extmem cache and replacement path under
// skewed reads, with updates writing beside the reads in the same frames.
//
// A preloaded chaining table sits behind an ARC write-back BlockCache that
// holds 1/8 of the table's blocks, so the working set is larger than the
// cache. core, the pipeline, durability and files are bypassed.
#include <optional>
#include <span>

#include "extmem/block_cache.h"
#include "tables/factory.h"
#include "util/zipf.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kRecordsPerBlock = 64;  // b
constexpr std::size_t kBatch = 256;
constexpr std::size_t kPreloadBatch = 4096;
/// Keys in the table: about 4 MiB of table blocks. Fixed; --seconds
/// scales the replays (see thm2_ingest.cpp for why the table stays small).
constexpr std::size_t kKeys = 131'072;
/// Calls per replay: untimed warm-up calls, then the timed calls.
constexpr std::size_t kWarmCalls = 256;
constexpr std::size_t kTimedCalls = 2048;
/// Replays at scale 1: each sets up afresh (the same preloaded table and
/// warm cache) and makes the same calls.
constexpr std::size_t kBaseReplays = 36;
constexpr double kTheta = 0.99;
constexpr double kUpdateShare = 0.10;
constexpr std::size_t kCacheFraction = 8;  // cache = blocks / 8

struct State {
  std::vector<std::uint64_t> keys;
  /// Expected value per key index; the updates write it too.
  std::vector<std::uint64_t> shadow;
  /// Key index of every op, kBatch per call; warm-up calls first.
  std::vector<std::uint32_t> traffic;
  std::vector<std::uint8_t> is_update;  // per call
  std::uint64_t update_salt = 0;
  std::uint64_t updates_issued = 0;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<extmem::BlockCache> cache;
  std::unique_ptr<tables::ExternalHashTable> table;
  double keygen_ms = 0;
  double preload_ms = 0;
};

/// Run one traffic call: an applyBatch of updates or a lookupBatch checked
/// against the shadow. Adds the call's counted I/O to `io` and its time to
/// `clock`; returns the call's time in ns and adds the number of wrong
/// answers (or the whole batch when the call throws) to `failed`.
struct CallRunner {
  State& s;
  std::vector<tables::Op> ops = std::vector<tables::Op>(kBatch);
  std::vector<std::uint64_t> keys = std::vector<std::uint64_t>(kBatch);
  std::vector<std::optional<std::uint64_t>> out =
      std::vector<std::optional<std::uint64_t>>(kBatch);

  std::uint64_t update(std::size_t call, LayerClock& clock, extmem::IoStats& io,
                       std::uint64_t& failed) {
    const std::uint32_t* idx = s.traffic.data() + call * kBatch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::uint64_t key = s.keys[idx[i]];
      ops[i] = tables::Op::insertOp(
          key, valueFor(key, s.update_salt + s.updates_issued++));
    }
    const extmem::IoStats before = s.table->ioStats();
    std::uint64_t ns = 0;
    try {
      ns = timeCall(clock, "tables.applyBatch", [&] {
        s.table->applyBatch(std::span<const tables::Op>(ops));
      });
    } catch (const std::exception&) {
      failed += kBatch;
      return 0;
    }
    io += s.table->ioStats() - before;
    for (std::size_t i = 0; i < kBatch; ++i) s.shadow[idx[i]] = ops[i].value;
    return ns;
  }

  std::uint64_t lookup(std::size_t call, LayerClock& clock, extmem::IoStats& io,
                       std::uint64_t& failed) {
    const std::uint32_t* idx = s.traffic.data() + call * kBatch;
    for (std::size_t i = 0; i < kBatch; ++i) keys[i] = s.keys[idx[i]];
    std::fill(out.begin(), out.end(), std::nullopt);
    const extmem::IoStats before = s.table->ioStats();
    std::uint64_t ns = 0;
    try {
      ns = timeCall(clock, "tables.lookupBatch", [&] {
        s.table->lookupBatch(std::span<const std::uint64_t>(keys),
                             std::span(out));
      });
    } catch (const std::exception&) {
      failed += kBatch;
      return 0;
    }
    io += s.table->ioStats() - before;
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (out[i] != s.shadow[idx[i]]) ++failed;
    }
    return ns;
  }
};

/// The preloaded table on a fresh device, its cache, and the warm-up
/// calls. Every set-up builds the same table and cache state.
void preload(State& s, std::uint64_t stack_seed) {
  s.stack = std::make_unique<Stack>(kRecordsPerBlock, stack_seed);
  tables::GeneralConfig cfg;
  cfg.expected_n = s.keys.size();
  cfg.target_load = 0.5;
  s.table = tables::makeTable(tables::TableKind::kChaining,
                              s.stack->context(), cfg);

  const std::uint64_t preload_start = nowNs();
  {
    obs::TraceSpan span("workload.preload", "perfbench");
    std::vector<tables::Op> ops(kPreloadBatch);
    for (std::size_t off = 0; off < s.keys.size(); off += kPreloadBatch) {
      for (std::size_t i = 0; i < kPreloadBatch; ++i) {
        ops[i] = tables::Op::insertOp(s.keys[off + i], s.shadow[off + i]);
      }
      s.table->applyBatch(ops);
    }
    // The table is destroyed before the cache (member order), so the
    // cache outlives it as attachCache requires.
    const std::size_t frames = std::max<std::size_t>(
        1, s.table->device().blocksInUse() / kCacheFraction);
    s.cache = std::make_unique<extmem::BlockCache>(
        *s.stack->device, *s.stack->memory, frames,
        extmem::BlockCache::WritePolicy::kWriteBack,
        extmem::ReplacementKind::kArc);
    s.table->attachCache(s.cache.get());
    // Warm the cache with the first calls of the traffic.
    CallRunner runner{s};
    LayerClock unused_clock;
    extmem::IoStats unused_io;
    std::uint64_t wrong = 0;
    for (std::size_t c = 0; c < kWarmCalls; ++c) {
      if (s.is_update[c] != 0) {
        runner.update(c, unused_clock, unused_io, wrong);
      } else {
        runner.lookup(c, unused_clock, unused_io, wrong);
      }
    }
    EXTHASH_CHECK_MSG(wrong == 0, "wrong answer while warming the cache");
  }
  s.preload_ms = static_cast<double>(nowNs() - preload_start) / 1e6;
}

std::unique_ptr<State> setUp(const RunOptions& o) {
  auto s = std::make_unique<State>();
  const std::size_t n = kKeys;
  const std::size_t calls = kWarmCalls + kTimedCalls;

  const std::uint64_t keygen_start = nowNs();
  {
    obs::TraceSpan span("workload.keygen", "perfbench");
    const std::uint64_t salt = deriveSeed(o.seed, 21);
    s->update_salt = deriveSeed(o.seed, 22);
    const FeistelPermutation perm(deriveSeed(o.seed, 23));
    s->keys.resize(n);
    s->shadow.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      s->keys[i] = perm(i);
      s->shadow[i] = valueFor(s->keys[i], salt);
    }
    Xoshiro256StarStar rng(deriveSeed(o.seed, 24));
    const ZipfDistribution zipf(n, kTheta);
    s->traffic.resize(calls * kBatch);
    for (std::uint32_t& idx : s->traffic) {
      idx = static_cast<std::uint32_t>(zipf(rng) - 1);
    }
    s->is_update.resize(calls);
    for (std::uint8_t& u : s->is_update) u = rng.uniform01() < kUpdateShare;
  }
  s->keygen_ms = static_cast<double>(nowNs() - keygen_start) / 1e6;
  preload(*s, deriveSeed(o.seed, 25));
  return s;
}

}  // namespace

PassResult runZipfCachedMixed(const RunOptions& options) {
  PassResult r;
  std::unique_ptr<State> s;
  std::vector<double> setup_seconds;
  const std::size_t calls = kWarmCalls + kTimedCalls;
  const std::size_t rep_count = replayCount(kBaseReplays, options.scale);

  LayerClock apply;
  LayerClock lookup;
  FastestReplay fastest_update;
  FastestReplay fastest_lookup;
  // Counted I/O and cache counters of the first replay; every later one
  // must repeat its I/O exactly.
  extmem::IoStats update_io;
  extmem::IoStats lookup_io;
  extmem::IoStats replay_io;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t ghosts = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t update_ops = 0;
  std::uint64_t lookup_ops = 0;
  for (std::size_t rep = 0; rep < rep_count; ++rep) {
    setUpAgain(s, setup_seconds, [&] { return setUp(options); });
    tables::ExternalHashTable& table = *s->table;
    extmem::BlockCache& cache = *s->cache;
    extmem::IoStats rep_update_io;
    extmem::IoStats rep_lookup_io;
    const extmem::IoStats io_start = table.ioStats();
    const std::uint64_t hits0 = cache.hits();
    const std::uint64_t misses0 = cache.misses();
    const std::uint64_t ghosts0 = cache.ghostHits();
    const std::uint64_t writebacks0 = cache.writebacks();
    CallRunner runner{*s};
    std::size_t update_call = 0;
    std::size_t lookup_call = 0;
    {
      obs::TraceSpan phase("bench.mixed", "perfbench");
      for (std::size_t c = kWarmCalls; c < calls; ++c) {
        if (s->is_update[c] != 0) {
          fastest_update.add(update_call++,
                             runner.update(c, apply, rep_update_io, r.failed));
        } else {
          fastest_lookup.add(lookup_call++,
                             runner.lookup(c, lookup, rep_lookup_io, r.failed));
        }
      }
    }
    // Dirty frames the updates left behind reach the device here; their
    // writes are charged to the updates.
    const extmem::IoStats before_flush = table.ioStats();
    table.flushCache();
    rep_update_io += table.ioStats() - before_flush;
    const extmem::IoStats rep_io = table.ioStats() - io_start;
    update_ops += kBatch * update_call;
    lookup_ops += kBatch * lookup_call;
    if (rep == 0) {
      update_io = rep_update_io;
      lookup_io = rep_lookup_io;
      replay_io = rep_io;
      hits = cache.hits() - hits0;
      misses = cache.misses() - misses0;
      ghosts = cache.ghostHits() - ghosts0;
      writebacks = cache.writebacks() - writebacks0;
    } else if (rep_io.cost() != replay_io.cost()) {
      r.failed += kBatch * (update_call + lookup_call);
      r.notes.push_back("replays disagree on counted I/O");
    }
  }
  tables::ExternalHashTable& table = *s->table;
  extmem::BlockCache& cache = *s->cache;
  // Per-replay op counts: the counted metrics describe one replay.
  update_ops /= rep_count;
  lookup_ops /= rep_count;
  r.attempted = rep_count * (update_ops + lookup_ops);
  r.timed_ns = apply.ns + lookup.ns;

  const double ops = static_cast<double>(update_ops + lookup_ops);

  Metrics& m = r.metrics;
  m.add("ingest_ops_s",
        ratio(static_cast<double>(update_ops), fastest_update.totalSeconds()),
        "ops/s");
  reportLookupPhase(r, fastest_lookup, kBatch, rep_count);
  m.add("ingest_io_per_op",
        ratio(static_cast<double>(update_io.cost()),
              static_cast<double>(update_ops)),
        "count", true);
  m.add("lookup_io_per_op",
        ratio(static_cast<double>(lookup_io.cost()),
              static_cast<double>(lookup_ops)),
        "count", true);
  const double bytes_per_block =
      static_cast<double>(table.device().wordsPerBlock() * 8);
  m.add("space_amp",
        ratio(static_cast<double>(table.device().blocksInUse()) *
                  bytes_per_block,
              static_cast<double>(table.size()) * 16.0),
        "ratio", true);
  m.add("setup_s", fastestSetUp(setup_seconds), "s");

  m.add("workload.keygen_ms", s->keygen_ms, "ms");
  m.add("workload.preload_ms", s->preload_ms, "ms");
  m.add("hashfn.ns_per_key", hashNsPerKey(table.hash(), s->keys,
        [](std::uint64_t key) {
          return key;
        }),
"ns");
  m.add("tables.apply_ms", apply.ms(), "ms");
  m.add("tables.apply_calls", static_cast<double>(apply.calls), "count", true);
  m.add("tables.lookup_ms", lookup.ms(), "ms");
  m.add("tables.lookup_calls", static_cast<double>(lookup.calls), "count",
        true);
  reportDeviceCounts(m, replay_io, ops, table.device().blocksInUse());
  m.add("extmem.cache.hits", static_cast<double>(hits), "count", true);
  m.add("extmem.cache.hit_rate",
        ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "ratio", true);
  m.add("extmem.cache.ghost_hits", static_cast<double>(ghosts), "count", true);
  m.add("extmem.cache.writebacks_per_op",
        ratio(static_cast<double>(writebacks), ops), "count", true);
  r.notes.push_back(
      "table: chaining, b=64, load 0.5, mem backend; cache: ARC write-back, " +
      std::to_string(cache.capacityBlocks()) + " frames = 1/8 of " +
      std::to_string(table.device().blocksInUse()) + " blocks; " +
      std::to_string(s->keys.size()) + " keys, Zipf 0.99; " +
      std::to_string(rep_count) + " replays of " +
      std::to_string(kTimedCalls) + " timed calls of 256, each after " +
      std::to_string(kWarmCalls) + " untimed warm-up calls in a fresh "
      "set-up");
  return r;
}

}  // namespace perfbench
