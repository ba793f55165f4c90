// obs/ layer: histogram percentile math against a known distribution,
// bucket-geometry invariants, registry find-or-create, label merging and
// the Prometheus sink, Chrome-trace JSON round-trips through the repo's
// own validator, concurrent recording (the TSAN-exercised case), the
// library's own pipeline spans, the cache-bypass attribution counter,
// the apply-latency tail, and — one source per number — every family
// collect() exports from a file-backed sharded, cached, arbitrated,
// WAL-attached stack against its owner's accessor.
#include <gtest/gtest.h>

#include <cerrno>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "durability/recovery.h"
#include "extmem/block_cache.h"
#include "extmem/memory_arbiter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "pipeline/ingest_pipeline.h"
#include "table_test_util.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"
#include "workload/keygen.h"

namespace exthash::obs {
namespace {

using exthash::testing::TestRig;

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, QuantilesAgainstKnownUniformDistribution) {
  LatencyHistogram h;
  constexpr std::uint64_t kN = 1024;
  for (std::uint64_t v = 1; v <= kN; ++v) h.record(v);

  EXPECT_EQ(h.count(), kN);
  EXPECT_EQ(h.sum(), kN * (kN + 1) / 2);
  EXPECT_EQ(h.max(), kN);

  // Quantiles return the holding bucket's upper edge: never below the
  // exact value, at most 25% above it (the documented bucket width).
  const struct {
    double q;
    std::uint64_t exact;
  } cases[] = {{0.5, 512}, {0.9, 922}, {0.99, 1014}, {0.999, 1023}};
  for (const auto& c : cases) {
    const std::uint64_t got = h.valueAtQuantile(c.q);
    EXPECT_GE(got, c.exact) << "q=" << c.q;
    EXPECT_LE(got, c.exact + c.exact / 4 + 1) << "q=" << c.q;
  }
  EXPECT_EQ(h.valueAtQuantile(1.0), h.valueAtQuantile(0.9999));
}

TEST(LatencyHistogram, BucketGeometryIsMonotoneAndContinuous) {
  // Index is monotone in the value, the upper bound brackets its bucket,
  // and consecutive buckets tile the range with no gaps.
  std::size_t prev_idx = 0;
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{3}, std::uint64_t{4},
                          std::uint64_t{5}, std::uint64_t{63},
                          std::uint64_t{64}, std::uint64_t{1000},
                          std::uint64_t{1} << 32,
                          (std::uint64_t{1} << 63) + 12345}) {
    const std::size_t idx = LatencyHistogram::bucketIndex(v);
    EXPECT_GE(idx, prev_idx);
    EXPECT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_LE(v, LatencyHistogram::bucketUpperBound(idx));
    prev_idx = idx;
  }
  for (std::size_t i = 0; i + 1 < 200; ++i) {
    const std::uint64_t upper = LatencyHistogram::bucketUpperBound(i);
    EXPECT_EQ(LatencyHistogram::bucketIndex(upper), i);
    EXPECT_EQ(LatencyHistogram::bucketIndex(upper + 1), i + 1);
    // Relative width stays within the advertised 25%.
    const std::uint64_t next = LatencyHistogram::bucketUpperBound(i + 1);
    EXPECT_GT(next, upper);
    if (upper >= LatencyHistogram::kSubBuckets) {
      EXPECT_LE(next - upper, upper / 4 + 1);
    }
  }
}

// The TSAN-exercised case (matches the CI sanitizer filter): concurrent
// recorders against one histogram and one counter must be race-free and
// lose no samples.
TEST(LatencyHistogram, ConcurrentRecordersLoseNothing) {
  LatencyHistogram h;
  Counter c;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, &c, t] {
      for (std::uint64_t i = 1; i <= kPerThread; ++i) {
        h.record(i + t);
        c.inc();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.max(), kPerThread + kThreads - 1);
  // Quantile readout is coherent once quiescent.
  EXPECT_GT(h.valueAtQuantile(0.5), 0u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry + sinks
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("exthash_test_total");
  a.inc(3);
  Counter& b = reg.counter("exthash_test_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_TRUE(reg.has("exthash_test_total"));
  EXPECT_FALSE(reg.has("exthash_other"));
}

TEST(MetricsRegistry, PrometheusDumpGroupsFamiliesAndQuantiles) {
  MetricsRegistry reg;
  reg.counter("exthash_unit_ops_total{shard=\"0\"}").inc(5);
  reg.counter("exthash_unit_ops_total{shard=\"1\"}").inc(7);
  reg.gauge("exthash_unit_depth").set(2.5);
  reg.gauge("exthash_unit_size").set(1234567.25);

  std::ostringstream os;
  reg.dump(os);
  const std::string text = os.str();

  // One TYPE line per family (labels split series, not families).
  EXPECT_EQ(text.find("# TYPE exthash_unit_ops_total counter"),
            text.rfind("# TYPE exthash_unit_ops_total counter"));
  EXPECT_NE(text.find("exthash_unit_ops_total{shard=\"0\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("exthash_unit_ops_total{shard=\"1\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE exthash_unit_depth gauge"), std::string::npos);
  // Gauges print exactly, not to the stream's six significant digits.
  EXPECT_NE(text.find("exthash_unit_size 1234567.25\n"), std::string::npos);
}

TEST(MetricsRegistry, MergeLabelsEverySeriesAndAddsCounters) {
  MetricsRegistry part;
  part.counter("exthash_unit_total").inc(2);
  part.counter("exthash_unit_total{kind=\"a\"}").inc(3);
  part.gauge("exthash_unit_level").set(1.5);
  MetricsRegistry reg;
  reg.merge(part, "shard=\"0\"");
  reg.merge(part, "shard=\"0\"");
  reg.merge(part, "shard=\"1\"");
  EXPECT_EQ(reg.counter("exthash_unit_total{shard=\"0\"}").value(), 4u);
  EXPECT_EQ(reg.counter("exthash_unit_total{shard=\"1\"}").value(), 2u);
  EXPECT_EQ(
      reg.counter("exthash_unit_total{kind=\"a\",shard=\"0\"}").value(),
      6u);
  EXPECT_EQ(reg.gauge("exthash_unit_level{shard=\"1\"}").value(), 1.5);
  EXPECT_FALSE(reg.has("exthash_unit_total"));
}

// ---------------------------------------------------------------------------
// Trace sessions
// ---------------------------------------------------------------------------

TEST(TraceSession, JsonRoundTripsThroughTheValidator) {
  TraceSession session;
  session.start();
  {
    TraceSpan outer("outer", "test");
    outer.arg("n", 42.0);
    { TraceSpan inner("inner", "test"); }
    traceCounter("depth", 3.0, "test");
    traceCounter("marker", 1.0, "test");
  }
  session.stop();

  std::ostringstream os;
  session.writeJson(os);
  const TraceCheckResult result = checkTraceJson(os.str());
  ASSERT_TRUE(result) << result.error;
  EXPECT_EQ(result.events, 4u);
  EXPECT_EQ(session.eventCount(), 4u);
  EXPECT_EQ(session.dropped(), 0u);
}

TEST(TraceSession, EmissionIsMutedOutsideStartStop) {
  TraceSession session;
  { TraceSpan before("before", "test"); }
  session.start();
  { TraceSpan during("during", "test"); }
  session.stop();
  { TraceSpan after("after", "test"); }
  EXPECT_EQ(session.eventCount(), 1u);
}

TEST(TraceSession, FullBuffersDropAndCountInsteadOfGrowing) {
  TraceSession::Options opt;
  opt.buffer_events_per_thread = 4;
  TraceSession session(opt);
  session.start();
  for (int i = 0; i < 10; ++i) traceCounter("spam", i, "test");
  session.stop();
  EXPECT_EQ(session.eventCount(), 4u);
  EXPECT_EQ(session.dropped(), 6u);
  std::ostringstream os;
  session.writeJson(os);
  EXPECT_TRUE(checkTraceJson(os.str()));
}

TEST(TraceSession, BudgetRefusalDegradesToCountedDrops) {
  // A budget too small for even one thread buffer: emission must not
  // allocate past it — events are counted as dropped, the JSON is valid.
  extmem::MemoryBudget budget(8);
  TraceSession::Options opt;
  opt.buffer_events_per_thread = 1024;
  opt.budget = &budget;
  TraceSession session(opt);
  session.start();
  for (int i = 0; i < 5; ++i) traceCounter("over-budget", i, "test");
  session.stop();
  EXPECT_EQ(session.eventCount(), 0u);
  EXPECT_EQ(session.dropped(), 5u);
  std::ostringstream os;
  session.writeJson(os);
  EXPECT_TRUE(checkTraceJson(os.str()));
}

TEST(TraceSession, ConcurrentEmittersWriteTheirOwnBuffers) {
  TraceSession session;
  session.start();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpans = 500;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (std::size_t i = 0; i < kSpans; ++i) {
        TraceSpan span("worker-span", "test");
      }
    });
  }
  for (auto& w : workers) w.join();
  session.stop();
  EXPECT_EQ(session.eventCount(), kThreads * kSpans);
  std::ostringstream os;
  session.writeJson(os);
  const TraceCheckResult result = checkTraceJson(os.str());
  ASSERT_TRUE(result) << result.error;
  EXPECT_EQ(result.events, kThreads * kSpans);
}

TEST(TraceCheck, RejectsMalformedDocuments) {
  EXPECT_FALSE(checkTraceJson(""));
  EXPECT_FALSE(checkTraceJson("{}"));
  EXPECT_FALSE(checkTraceJson("{\"traceEvents\": 3}"));
  EXPECT_FALSE(checkTraceJson("{\"traceEvents\": [{\"ph\": \"X\"}]}"));
  EXPECT_FALSE(checkTraceJson(
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": 1}]} x"));
  EXPECT_TRUE(checkTraceJson(
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": 1}]}"));
}

// ---------------------------------------------------------------------------
// Library spans and collected metrics, in every build
// ---------------------------------------------------------------------------

/// (name, tid) of every event in a writeJson document (one event a line).
std::vector<std::pair<std::string, int>> eventsOf(const std::string& json) {
  std::vector<std::pair<std::string, int>> events;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const auto name = line.find("\"name\":\"");
    const auto tid = line.find("\"tid\":");
    if (name == std::string::npos || tid == std::string::npos) continue;
    const auto begin = name + 8;
    events.emplace_back(line.substr(begin, line.find('"', begin) - begin),
                        std::stoi(line.substr(tid + 6)));
  }
  return events;
}

TEST(TraceSession, LibrarySpansInEveryBuild) {
  TestRig rig(8);
  tables::GeneralConfig cfg;
  cfg.expected_n = 2048;
  cfg.target_load = 0.5;
  auto table = makeTable(tables::TableKind::kChaining, rig.context(), cfg);
  durability::DurabilityManager dm(rig.device->wordsPerBlock(),
                                   exthash::testing::testStorageOptions());
  TraceSession session;
  session.start();
  {
    pipeline::PipelineConfig pc;
    pc.batch_capacity = 128;
    pc.max_pending_batches = 2;
    pc.wal = &dm.wal();
    pipeline::IngestPipeline pipe(*table, pc);
    const auto keys = exthash::testing::distinctKeys(1024);
    for (std::size_t i = 0; i < keys.size(); ++i) pipe.insert(keys[i], i);
    pipe.drain();
  }
  session.stop();

  std::ostringstream os;
  session.writeJson(os);
  const TraceCheckResult check = checkTraceJson(os.str());
  ASSERT_TRUE(check) << check.error;
  EXPECT_EQ(session.dropped(), 0u);
  // The producer seals and drains, the log thread appends, the worker
  // applies: the library's spans, on three threads.
  std::map<std::string, std::set<int>> threads_of;
  std::set<int> threads;
  for (const auto& [name, tid] : eventsOf(os.str())) {
    threads_of[name].insert(tid);
    threads.insert(tid);
  }
  for (const char* span : {"seal", "worker-apply", "wal-append", "drain"}) {
    EXPECT_EQ(threads_of.count(span), 1u) << span;
  }
  EXPECT_GE(threads.size(), 3u);
}

/// Every series of a Prometheus dump, by name.
std::map<std::string, double> seriesOf(const MetricsRegistry& registry) {
  std::ostringstream os;
  registry.dump(os);
  std::map<std::string, double> series;
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    series[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return series;
}

// One source per number: collect() writes each family from the field its
// owner keeps, so on a stack that exercises every owner — file-backed
// shards with write-back ARC caches, an arbiter, a WAL-attached depth-2
// pipeline, a checkpoint, a recovery, one retried EAGAIN and one latched
// shard — every exported series equals the owner's own accessor.
TEST(Metrics, ExportedCountersEqualTheirOwners) {
  using extmem::FileSyscall;
  extmem::FaultyFileOps shim(23);  // declared first: outlives every device
  const extmem::StorageOptions storage =
      exthash::testing::fileStorageOptions(&shim);
  TestRig rig(8);
  rig.useStorage(storage);
  tables::GeneralConfig cfg;
  cfg.expected_n = 4096;
  cfg.target_load = 0.5;
  cfg.shards = 4;
  cfg.sharded_inner = tables::TableKind::kChaining;
  cfg.shard_threads = 2;
  cfg.shard_cache_frames = 512;
  cfg.shard_cache_write_back = true;
  cfg.shard_cache_replacement = extmem::ReplacementKind::kArc;
  cfg.shard_storage = storage;
  auto table = makeTable(tables::TableKind::kSharded, rig.context(), cfg);
  auto& sharded = dynamic_cast<tables::ShardedTable&>(*table);
  durability::DurabilityManager dm(rig.device->wordsPerBlock(), storage);
  dm.begin(*table);

  // One EAGAIN on shard 0's next pwrite, absorbed by its retry ladder.
  const int shard0 = exthash::testing::fileOf(sharded.shardDevice(0));
  shim.failNth(FileSyscall::kPwrite,
               shim.count(FileSyscall::kPwrite, shard0) + 1, EAGAIN,
               /*sticky=*/false, shard0);

  extmem::ArbiterConfig ac;
  ac.slots_per_frame = 4;
  extmem::MemoryArbiter arbiter(ac);
  sharded.registerCaches(arbiter);
  pipeline::PipelineConfig pc;
  pc.batch_capacity = 256;
  pc.max_pending_batches = 2;
  pc.wal = &dm.wal();
  pipeline::IngestPipeline pipe(*table, pc);
  pipeline::IngestPipeline* p = &pipe;
  arbiter.setStaging(
      [p](std::size_t slots) { p->setWindowCapacity(slots); },
      [p] {
        const auto s = p->stats();
        return extmem::StagingSignals{s.ops_coalesced, s.submit_waits};
      },
      pc.batch_capacity);

  workload::ZipfKeyStream keys(17, 2048, 0.99);
  std::vector<std::uint64_t> inserted;
  for (std::size_t i = 1; i <= 4096; ++i) {
    inserted.push_back(keys.next());
    pipe.insert(inserted.back(), i);
    if (i % 512 == 0) {
      pipe.submitMaintenance([a = &arbiter] { a->rebalance(); });
    }
    if (i == 2048) {
      pipe.submitMaintenance([&dm, &table] { dm.checkpoint(*table); });
    }
  }
  pipe.drain();
  std::vector<std::optional<std::uint64_t>> found(inserted.size());
  table->lookupBatch(inserted, found);

  // Recover a fresh twin from the checkpoint and the WAL tail past it.
  auto fresh = makeTable(tables::TableKind::kSharded, rig.context(), cfg);
  EXPECT_GT(dm.recover(*fresh).replayed_records, 0u);

  // Shard 1's disk dies under its cache: evictions and the flush barrier
  // fail, the frames stay quarantined, and the shard latches.
  const int shard1 = exthash::testing::fileOf(sharded.shardDevice(1));
  shim.failNth(FileSyscall::kPwrite,
               shim.count(FileSyscall::kPwrite, shard1) + 1, EIO,
               /*sticky=*/true, shard1);
  std::vector<tables::Op> more;
  for (const std::uint64_t key : exthash::testing::distinctKeys(1024, 5)) {
    more.push_back(tables::Op::insertOp(key, key));
  }
  table->applyBatch(more);
  EXPECT_THROW(table->flushCache(), extmem::IoError);
  sharded.resetShard(2);

  MetricsRegistry registry;
  table->collect(registry);
  pipe.collect(registry);
  arbiter.collect(registry);
  dm.collect(registry);
  shim.clear();  // the teardown's flushes run fault-free

  std::map<std::string, double> want;
  const auto add = [&want](const std::string& family,
                           const std::string& label, double value) {
    want[family + (label.empty() ? "" : "{" + label + "}")] = value;
  };
  const auto addDevice = [&add](const std::string& label,
                                const extmem::BlockDevice& device) {
    add("exthash_io_retries_total", label, device.stats().io_retries);
    add("exthash_io_gave_up_total", label, device.stats().io_gave_up);
    add("exthash_device_fsyncs_total", label, device.stats().fsyncs);
  };
  for (std::size_t s = 0; s < sharded.shardCount(); ++s) {
    const std::string label = "shard=\"" + std::to_string(s) + "\"";
    addDevice(label, sharded.shardDevice(s));
    const extmem::BlockCache& cache = *sharded.shardCache(s);
    add("exthash_cache_hits_total", label, cache.hits());
    add("exthash_cache_misses_total", label, cache.misses());
    add("exthash_cache_evictions_total", label, cache.evictions());
    add("exthash_cache_writebacks_total", label, cache.writebacks());
    add("exthash_cache_writeback_failures_total", label,
        cache.writebackFailures());
    add("exthash_cache_quarantine_gave_up_total", label,
        cache.quarantineGaveUp());
    add("exthash_cache_capacity_frames", label, cache.capacityBlocks());
    add("exthash_cache_resident_frames", label, cache.residentBlocks());
    add("exthash_cache_dirty_frames", label, cache.dirtyBlocks());
    add("exthash_cache_quarantined_frames", label,
        cache.quarantinedFrames());
    add("exthash_shard_ops_total", label, sharded.shardOps(s));
    add("exthash_shard_lookups_total", label, sharded.shardLookups(s));
    add("exthash_shard_failures_total", label, sharded.shardLatches(s));
    add("exthash_shard_size", label, sharded.shard(s).size());
  }
  add("exthash_shard_resets_total", "", sharded.resets());
  const pipeline::PipelineStats ps = pipe.stats();
  add("exthash_pipeline_batches_applied_total", "", ps.batches_applied);
  add("exthash_pipeline_ops_applied_total", "", ps.ops_applied);
  add("exthash_pipeline_submit_waits_total", "", ps.submit_waits);
  add("exthash_pipeline_inflight_windows", "", 0);
  add("exthash_arbiter_rebalances_total", "", arbiter.rebalances());
  add("exthash_arbiter_frames_moved_total", "", arbiter.moves());
  add("exthash_arbiter_cache_frames", "", arbiter.cacheFrames());
  add("exthash_arbiter_staging_frames", "", arbiter.stagingFrames());
  add("exthash_arbiter_cache_gain", "", arbiter.decisions().back().cache_gain);
  add("exthash_arbiter_staging_gain", "",
      arbiter.decisions().back().staging_gain);
  add("exthash_wal_records_total", "", dm.wal().recordsAppended());
  add("exthash_wal_block_writes_total", "", dm.wal().blocksWritten());
  add("exthash_manifest_writes_total", "",
      dm.manifest().checkpointsWritten());
  add("exthash_checkpoints_total", "", dm.checkpointsTaken());
  add("exthash_recoveries_total", "", dm.recoveriesCompleted());
  add("exthash_recovery_replayed_records_total", "", dm.replayedRecords());
  addDevice("device=\"wal\"", dm.walDevice());
  addDevice("device=\"manifest\"", dm.manifestDevice());

  // Exactly these series, each equal to its owner, from 34 families.
  EXPECT_EQ(seriesOf(registry), want);
  std::set<std::string> families;
  for (const auto& [name, value] : want) {
    families.insert(name.substr(0, name.find('{')));
  }
  EXPECT_EQ(families.size(), 34u);

  // The stack really exercised each owner.
  EXPECT_EQ(sharded.shardDevice(0).stats().io_retries, 1u);
  EXPECT_GT(sharded.shardDevice(1).stats().io_gave_up, 0u);
  EXPECT_GT(dm.walDevice().stats().fsyncs, 0u);
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  for (std::size_t s = 0; s < sharded.shardCount(); ++s) {
    hits += sharded.shardCache(s)->hits();
    evictions += sharded.shardCache(s)->evictions();
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(sharded.shardCache(1)->quarantinedFrames(), 0u);
  EXPECT_EQ(sharded.shardLatches(1), 1u);
  EXPECT_EQ(sharded.resets(), 1u);
  EXPECT_GT(sharded.shardLookups(0), 0u);
  EXPECT_GT(ps.batches_applied, 0u);
  EXPECT_GT(arbiter.rebalances(), 0u);
  EXPECT_GT(dm.wal().recordsAppended(), 0u);
  EXPECT_EQ(dm.recoveriesCompleted(), 1u);
  EXPECT_GT(dm.replayedRecords(), 0u);
}

// ---------------------------------------------------------------------------
// Instrumented components end-to-end
// ---------------------------------------------------------------------------

TEST(TelemetryEndToEnd, BufferedMergeReadsAreAttributedAsBypasses) {
  // The buffered table's Ĥ merge is a deliberate uncached stream; its
  // device reads must land in cache_bypass_reads (S2's annotation), in
  // every build — the scope is plain code, not macro-gated.
  TestRig rig(8);
  tables::GeneralConfig cfg;
  cfg.expected_n = 2048;
  cfg.buffer_items = 32;
  cfg.beta = 4;
  auto table = makeTable(tables::TableKind::kBuffered, rig.context(), cfg);
  for (std::uint64_t i = 0; i < 2048; ++i) {
    table->insert(i * 2654435761u + 1, i);
  }
  const auto io = table->ioStats();
  EXPECT_GT(io.cache_bypass_reads, 0u);
  EXPECT_LE(io.cache_bypass_reads, io.reads);
}

// The pipeline records the apply tail on the worker thread; the readout
// happens after drain. (Also the TSAN angle for the always-on histogram.)
TEST(TelemetryEndToEnd, PipelineRecordsApplyTail) {
  TestRig rig(16);
  tables::GeneralConfig cfg;
  cfg.expected_n = 2048;
  cfg.target_load = 0.5;
  auto table = makeTable(tables::TableKind::kChaining, rig.context(), cfg);
  pipeline::PipelineConfig pc;
  pc.batch_capacity = 128;
  pc.max_pending_batches = 2;
  pc.record_apply_latency = true;
  pipeline::IngestPipeline pipe(*table, pc);
  const auto keys = exthash::testing::distinctKeys(2048);
  for (std::size_t i = 0; i < keys.size(); ++i) pipe.insert(keys[i], i);
  pipe.drain();

  const LatencyHistogram& hist = pipe.applyLatency();
  EXPECT_EQ(hist.count(), 16u);  // 2048 distinct keys in windows of 128
  EXPECT_GT(hist.valueAtQuantile(0.5), 0u);
  EXPECT_GE(hist.valueAtQuantile(0.99), hist.valueAtQuantile(0.5));
}

}  // namespace
}  // namespace exthash::obs
