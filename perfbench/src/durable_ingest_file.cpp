// W3 durable-ingest-file: the pipeline, durability and the file backend.
//
// A 4-shard chaining table on the file backend is fed by an IngestPipeline
// (window 1024, depth 2) with the WAL attached. Flush policy: one
// fdatasync per group-committed window, plus a DurabilityManager
// checkpoint maintenance task every 64 windows. The per-shard write-back
// caches hold the whole table, so nothing is evicted. After drain() the
// caches are dropped and the whole key universe is read back cold through
// lookupBatch(256) and compared with durability::AckLedger.
#include <sys/vfs.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "durability/ledger.h"
#include "durability/recovery.h"
#include "extmem/file_storage.h"
#include "pipeline/ingest_pipeline.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"
#include "timing_file_ops.h"
#include "util/zipf.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kRecordsPerBlock = 64;  // b
constexpr std::size_t kShards = 4;
constexpr std::size_t kShardThreads = 2;
constexpr std::size_t kWindow = 1024;
constexpr std::size_t kDepth = 2;
constexpr std::size_t kCheckpointEveryWindows = 64;
constexpr std::size_t kLookupBatch = 256;
/// Key universe: 1024 lookupBatch calls per sweep, about 8 MiB of table
/// blocks. The sizes are fixed; --seconds scales the replays.
constexpr std::size_t kUniverse = 262'144;
constexpr std::size_t kOps = 1'048'576;
/// Replays at scale 1: each sets up afresh, ingests every op into the empty
/// table and then sweeps it cold kSweeps times, so every replay makes the
/// same calls on the same table states.
constexpr std::size_t kBaseReplays = 4;
constexpr std::size_t kSweeps = 16;
constexpr double kTheta = 0.9;
constexpr double kLoad = 0.5;

struct State {
  std::vector<tables::Op> ops;
  /// Op indices after which a checkpoint is queued: every 64th window
  /// seal, found by replaying the pipeline's coalescing rule.
  std::vector<std::size_t> checkpoint_after;
  std::size_t universe = 0;
  std::uint64_t key_seed = 0;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<tables::ExternalHashTable> table;
  tables::ShardedTable* sharded = nullptr;
  std::unique_ptr<durability::DurabilityManager> durability;
  double keygen_ms = 0;
};

std::unique_ptr<State> setUp(const RunOptions& o,
                             const extmem::StorageOptions& storage) {
  auto s = std::make_unique<State>();
  s->universe = kUniverse;
  const std::size_t n = kOps;
  s->key_seed = deriveSeed(o.seed, 31);

  const std::uint64_t keygen_start = nowNs();
  {
    obs::TraceSpan span("workload.keygen", "perfbench");
    const FeistelPermutation perm(s->key_seed);
    const ZipfDistribution zipf(s->universe, kTheta);
    Xoshiro256StarStar rng(deriveSeed(o.seed, 32));
    const std::uint64_t value_salt = deriveSeed(o.seed, 33);
    s->ops.reserve(n);
    std::unordered_set<std::uint64_t> window;
    window.reserve(2 * kWindow);
    std::size_t windows = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = perm(zipf(rng));
      s->ops.push_back(tables::Op::insertOp(key, splitmix64(value_salt + i)));
      if (window.insert(key).second && window.size() == kWindow) {
        window.clear();
        if (++windows % kCheckpointEveryWindows == 0) {
          s->checkpoint_after.push_back(i);
        }
      }
    }
  }
  s->keygen_ms = static_cast<double>(nowNs() - keygen_start) / 1e6;

  s->stack = std::make_unique<Stack>(kRecordsPerBlock, deriveSeed(o.seed, 34));
  tables::GeneralConfig cfg;
  cfg.expected_n = s->universe;
  cfg.target_load = kLoad;
  cfg.shards = kShards;
  cfg.sharded_inner = tables::TableKind::kChaining;
  cfg.shard_threads = kShardThreads;
  // Twice the primary buckets: the whole table, overflow included, fits.
  cfg.shard_cache_frames =
      2 * static_cast<std::size_t>(static_cast<double>(s->universe) /
                                   (kLoad * kRecordsPerBlock)) + kShards;
  cfg.shard_cache_write_back = true;
  cfg.shard_storage = storage;
  s->table = tables::makeTable(tables::TableKind::kSharded,
                               s->stack->context(), cfg);
  s->sharded = dynamic_cast<tables::ShardedTable*>(s->table.get());
  s->durability = std::make_unique<durability::DurabilityManager>(
      s->stack->device->wordsPerBlock(), storage);
  s->durability->begin(*s->table);
  return s;
}

std::string filesystemName(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

/// What one ingest (submit through drain) did.
struct IngestResult {
  pipeline::PipelineStats stats;
  double apply_p50_us = 0;
  double apply_p99_us = 0;
  extmem::IoStats io;
  std::uint64_t fsyncs = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t checkpoints = 0;
};

/// Submit every op into the state's (fresh) table, queue a checkpoint every
/// 64 windows, drain. Records the time of each window's submit calls and of
/// the drain in `fastest` (the producer blocks while the worker is two
/// windows behind, so a window's submit time is the worker's pace). Adds
/// thrown ops to `failed`.
IngestResult ingestOnce(State& s, const RunOptions& options,
                        LayerClock& submit, LayerClock& drain,
                        LayerClock& checkpoint, FastestReplay& fastest,
                        PassResult& r) {
  tables::ExternalHashTable& table = *s.table;
  durability::DurabilityManager& dm = *s.durability;
  const std::size_t n = s.ops.size();
  pipeline::PipelineConfig pc;
  pc.batch_capacity = kWindow;
  pc.max_pending_batches = kDepth;
  pc.coalesce = true;
  pc.wal = &dm.wal();
  pc.record_apply_latency = options.traced;
  IngestResult out;
  const extmem::IoStats io_start = table.ioStats();
  const std::uint64_t wal_fsyncs0 = dm.walDevice().stats().fsyncs;
  const std::uint64_t manifest_fsyncs0 = dm.manifestDevice().stats().fsyncs;
  const std::uint64_t checkpoints0 = dm.checkpointsTaken();
  {
    pipeline::IngestPipeline pipe(table, pc);
    // `checkpoint` is written on the pipeline worker, read after drain.
    auto take_checkpoint = [&] {
      timeCall(checkpoint, "durability.checkpoint",
               [&] { dm.checkpoint(table); });
    };
    obs::TraceSpan phase("bench.ingest", "perfbench");
    try {
      std::size_t next_checkpoint = 0;
      for (std::size_t off = 0; off < n; off += kWindow) {
        const std::size_t end = std::min(n, off + kWindow);
        fastest.add(off / kWindow, timeCall(submit, "pipeline.submit", [&] {
          for (std::size_t i = off; i < end; ++i) {
            pipe.submit(s.ops[i]);
            if (next_checkpoint < s.checkpoint_after.size() &&
                s.checkpoint_after[next_checkpoint] == i) {
              pipe.submitMaintenance(take_checkpoint);
              ++next_checkpoint;
            }
          }
        }));
      }
      fastest.add((n + kWindow - 1) / kWindow,
                  timeCall(drain, "pipeline.drain", [&] { pipe.drain(); }));
    } catch (const std::exception& e) {
      r.failed += n;
      r.notes.push_back(std::string("ingest failed: ") + e.what());
    }
    out.stats = pipe.stats();
    out.apply_p50_us =
        static_cast<double>(pipe.applyLatency().valueAtQuantile(0.50)) / 1e3;
    out.apply_p99_us =
        static_cast<double>(pipe.applyLatency().valueAtQuantile(0.99)) / 1e3;
  }
  out.io = table.ioStats() - io_start;
  out.wal_fsyncs = dm.walDevice().stats().fsyncs - wal_fsyncs0;
  out.fsyncs = out.io.fsyncs + out.wal_fsyncs +
               (dm.manifestDevice().stats().fsyncs - manifest_fsyncs0);
  out.checkpoints = dm.checkpointsTaken() - checkpoints0;
  return out;
}

/// One cold read-back sweep: drop every cached frame (drain() flushed
/// them), then read the key universe (rank r has key perm(r), as in
/// set-up) and compare each answer with the ledger's state.
void sweepOnce(State& s,
               const std::unordered_map<std::uint64_t,
                                        std::optional<std::uint64_t>>& expected,
               LayerClock& lookup, FastestReplay& fastest, PassResult& r) {
  std::vector<std::uint64_t> keys(kLookupBatch);
  std::vector<std::optional<std::uint64_t>> out(kLookupBatch);
  const FeistelPermutation perm(s.key_seed);
  s.table->invalidateCaches();
  obs::TraceSpan phase("bench.lookup", "perfbench");
  for (std::size_t off = 0; off < s.universe; off += kLookupBatch) {
    for (std::size_t i = 0; i < kLookupBatch; ++i) keys[i] = perm(off + i + 1);
    std::fill(out.begin(), out.end(), std::nullopt);
    try {
      fastest.add(off / kLookupBatch,
                  timeCall(lookup, "tables.lookupBatch", [&] {
                    s.table->lookupBatch(std::span<const std::uint64_t>(keys),
                                         std::span(out));
                  }));
    } catch (const std::exception&) {
      r.failed += kLookupBatch;
      continue;
    }
    for (std::size_t i = 0; i < kLookupBatch; ++i) {
      const auto it = expected.find(keys[i]);
      const std::optional<std::uint64_t> want =
          it == expected.end() ? std::nullopt : it->second;
      if (out[i] != want) ++r.failed;
    }
  }
}

}  // namespace

PassResult runDurableIngestFile(const RunOptions& options) {
  PassResult r;
  std::filesystem::create_directories(options.data_dir);
  // Declared before the state so it outlives every file it serves.
  TimingFileOps file_ops;
  extmem::StorageOptions storage;
  storage.backend = extmem::StorageOptions::Backend::kFile;
  storage.directory = options.data_dir;
  storage.direct_io = false;
  storage.file_ops = options.traced ? &file_ops : nullptr;

  std::unique_ptr<State> s;
  std::vector<double> setup_seconds;
  setUpAgain(s, setup_seconds, [&] { return setUp(options, storage); });
  const std::size_t n = s->ops.size();
  const std::size_t rep_count = replayCount(kBaseReplays, options.scale);

  // The oracle: the ledger replays the pipeline's windowing over the same
  // op stream (every set-up generates the same ops); every sealed window
  // was acknowledged by drain().
  durability::AckLedger ledger(kWindow, /*coalesce=*/true);
  for (const tables::Op& op : s->ops) ledger.submit(op);
  ledger.seal();
  const auto expected = ledger.stateThroughLsn(~std::uint64_t{0});

  LayerClock submit;
  LayerClock drain;
  LayerClock checkpoint;
  LayerClock lookup;
  FastestReplay fastest_ingest;
  FastestReplay fastest_lookup;
  IngestResult ingest;  // the last replay's; counted parts equal the first's
  extmem::IoStats ingest_io;
  extmem::IoStats sweep_io;
  TimingFileOps::Snapshot files;
  for (std::size_t rep = 0; rep < rep_count; ++rep) {
    if (rep > 0) {
      setUpAgain(s, setup_seconds, [&] { return setUp(options, storage); });
    }
    durability::DurabilityManager& dm = *s->durability;
    const TimingFileOps::Snapshot files_start = file_ops.snapshot();
    ingest = ingestOnce(*s, options, submit, drain, checkpoint,
                        fastest_ingest, r);
    files = files + (file_ops.snapshot() - files_start);
    if (ledger.sealedWindows() != dm.wal().recordsAppended() ||
        ledger.lsnOfWindow(ledger.sealedWindows()) != dm.wal().durableLsn()) {
      r.failed += n;
      r.notes.push_back("WAL records do not match the ledger's windows");
    }
    const extmem::IoStats before_sweeps = s->table->ioStats();
    for (std::size_t pass = 0; pass < kSweeps; ++pass) {
      sweepOnce(*s, expected, lookup, fastest_lookup, r);
    }
    const extmem::IoStats rep_sweep_io = s->table->ioStats() - before_sweeps;
    if (rep == 0) {
      ingest_io = ingest.io;
      sweep_io = rep_sweep_io;
    } else if (ingest.io.cost() != ingest_io.cost() ||
               rep_sweep_io.cost() != sweep_io.cost()) {
      r.failed += n;
      r.notes.push_back("replays disagree on counted I/O");
    }
  }
  tables::ExternalHashTable& table = *s->table;
  durability::DurabilityManager& dm = *s->durability;
  const pipeline::PipelineStats& stats = ingest.stats;

  // Counted metrics describe one replay.
  const double ingest_ops = static_cast<double>(n);
  const double lookups = static_cast<double>(kSweeps * s->universe);
  r.attempted = rep_count * (n + kSweeps * s->universe);
  r.timed_ns = submit.ns + drain.ns + lookup.ns;

  std::size_t blocks_in_use = 0;
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < s->sharded->shardCount(); ++i) {
    blocks_in_use += s->sharded->shardDevice(i).blocksInUse();
    if (const extmem::BlockCache* c = s->sharded->shardCache(i)) {
      misses += c->misses();
    }
  }
  const extmem::IoStats io_all = ingest_io + sweep_io;

  Metrics& m = r.metrics;
  m.add("ingest_ops_s", ratio(ingest_ops, fastest_ingest.totalSeconds()),
        "ops/s");
  reportLookupPhase(r, fastest_lookup, kLookupBatch, rep_count * kSweeps);
  m.add("ingest_io_per_op",
        ratio(static_cast<double>(ingest_io.cost()), ingest_ops), "count",
        true);
  m.add("lookup_io_per_op",
        ratio(static_cast<double>(sweep_io.cost()), lookups), "count", true);
  const double bytes_per_block =
      static_cast<double>(table.context().device->wordsPerBlock() * 8);
  m.add("space_amp",
        ratio(static_cast<double>(blocks_in_use) * bytes_per_block,
              static_cast<double>(table.size()) * 16.0),
        "ratio", true);
  m.add("setup_s", fastestSetUp(setup_seconds), "s");

  const double ops = ingest_ops + lookups;
  m.add("workload.keygen_ms", s->keygen_ms, "ms");
  m.add("tables.lookup_ms", lookup.ms(), "ms");
  m.add("tables.lookup_calls", static_cast<double>(lookup.calls), "count",
        true);
  reportDeviceCounts(m, io_all, ops, blocks_in_use);
  // Cache misses are read from the last replay's caches; set-up's begin()
  // checkpoint touches no frame, so the totals cover the timed phases.
  const double hits = static_cast<double>(io_all.cache_hits);
  m.add("extmem.cache.hits", hits, "count", true);
  m.add("extmem.cache.hit_rate",
        ratio(hits, hits + static_cast<double>(misses)), "ratio", true);
  m.add("extmem.cache.ghost_hits",
        static_cast<double>(io_all.cache_ghost_hits), "count", true);
  m.add("extmem.cache.writebacks_per_op",
        ratio(static_cast<double>(io_all.cache_writebacks), ops), "count",
        true);
  m.add("extmem.fsyncs_per_op",
        ratio(static_cast<double>(ingest.fsyncs), ingest_ops), "count", true);
  if (options.traced) {
    // Syscalls of the ingest phases (submit through drain), all replays.
    m.add("extmem.file.pread_ms", files.pread.ms(), "ms");
    m.add("extmem.file.pread_calls", static_cast<double>(files.pread.calls),
          "count");
    m.add("extmem.file.pwrite_ms", files.pwrite.ms(), "ms");
    m.add("extmem.file.pwrite_calls",
          static_cast<double>(files.pwrite.calls), "count");
    m.add("extmem.file.fsync_ms", files.fsync.ms(), "ms");
    m.add("extmem.file.fsync_calls", static_cast<double>(files.fsync.calls),
          "count");
    m.add("extmem.file.write_amp",
          ratio(static_cast<double>(files.pwrite.bytes),
                16.0 * ingest_ops * static_cast<double>(rep_count)),
          "ratio");
    m.add("pipeline.apply_p50_us", ingest.apply_p50_us, "us");
    m.add("pipeline.apply_p99_us", ingest.apply_p99_us, "us");
  }
  m.add("pipeline.submit_ms", submit.ms(), "ms");
  m.add("pipeline.submit_waits", static_cast<double>(stats.submit_waits),
        "count");
  m.add("pipeline.coalesce_frac",
        ratio(static_cast<double>(stats.ops_coalesced),
              static_cast<double>(stats.ops_submitted)),
        "ratio", true);
  m.add("pipeline.windows", static_cast<double>(stats.batches_applied),
        "count", true);
  m.add("pipeline.drain_ms", drain.ms(), "ms");
  m.add("durability.wal_records",
        static_cast<double>(dm.wal().recordsAppended()), "count", true);
  m.add("durability.wal_blocks_written",
        static_cast<double>(dm.wal().blocksWritten()), "count", true);
  m.add("durability.group_commits",
        static_cast<double>(dm.wal().groupCommits()), "count", true);
  m.add("durability.wal_fsyncs", static_cast<double>(ingest.wal_fsyncs),
        "count", true);
  m.add("durability.checkpoints", static_cast<double>(ingest.checkpoints),
        "count", true);
  m.add("durability.checkpoint_ms", checkpoint.ms(), "ms");

  const auto* file = dynamic_cast<const extmem::FileStorage*>(
      &s->sharded->shardDevice(0).storage());
  r.notes.push_back(
      "table: sharded x4 chaining, b=64, load 0.5, file backend, "
      "shard_threads=2, per-shard write-back caches of " +
      std::to_string(s->sharded->shardCache(0)->capacityBlocks()) +
      " frames (whole table, no evictions); " + std::to_string(n) +
      " Zipf 0.9 upserts over " + std::to_string(s->universe) +
      " keys; " + std::to_string(rep_count) +
      " replays, each setting up afresh, ingesting every op and then sweeping "
      "the universe " + std::to_string(kSweeps) +
      " times with the caches dropped before each sweep");
  r.notes.push_back(
      "flush policy: one fdatasync per group-committed WAL window (1024 ops, "
      "depth 2) + a DurabilityManager checkpoint every 64 windows");
  r.notes.push_back("file directory: " + options.data_dir + " (" +
                    filesystemName(options.data_dir) +
                    "), direct_io requested=no, "
                    "FileStorage::directActive()=" +
                    (file != nullptr && file->directActive() ? "yes" : "no"));
  r.notes.push_back(
      "latencies are this host's (page cache, shared disk), not a real "
      "device's");
  return r;
}

}  // namespace perfbench
