// PIPE — serial vs batched vs pipelined ingest.
//
// The paper buys I/O below 1 per op by buffering; this benchmark checks
// each submission protocol keeps that counted cost. Three protocols over
// identical key streams:
//   serial     per-op applyBatch (batch = 1), the classic protocol
//   batched    synchronous applyBatch fan-out at batch size B (PR 1)
//   pipelined  IngestPipeline at window B: accumulation + coalescing of
//              window k+1 overlaps the background apply of window k
// on sharded façades (chaining and buffered inners — two table kinds) and
// the plain buffered table, each under uniform-distinct and Zipf keys.
//
// The counted columns (I/O per op, write I/O, coalesced) are
// deterministic; window coalescing is what lets the pipelined protocol
// cut the op stream itself on skewed keys. ops/s, speedup and the apply
// latencies are one wall-clock run on a RAM-speed device, informational
// only: perfbench (perfbench/README.md) carries the wall-clock claims.
// After each run the final live contents are checksummed (grouped
// lookups over the key universe) and compared: pipelining must not
// change what the table answers (exit 1 otherwise).
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/ingest_pipeline.h"
#include "util/cli.h"

namespace {

using namespace exthash;

enum class Protocol { kSerial, kBatched, kPipelined };

/// Auto-attached per-shard cache spec for a run. Emitted as three
/// machine-comparable columns — frames / write policy / replacement —
/// rather than encoded into the row label, so bench_results CSV diffs
/// line up across configurations ("-" and 0 for uncached rows).
struct CacheSpec {
  bool cached = false;
  bool write_back = false;
  extmem::ReplacementKind replacement = extmem::ReplacementKind::kLru;

  std::string framesColumn(std::size_t cache_frames) const {
    return std::to_string(cached ? cache_frames : 0);
  }
  std::string writePolicyColumn() const {
    if (!cached) return "-";
    return write_back ? "wb" : "wt";
  }
  std::string replacementColumn() const {
    if (!cached) return "-";
    return std::string(extmem::replacementKindName(replacement));
  }
};

struct RunResult {
  double seconds = 0.0;
  double io_per_op = 0.0;
  double write_io_per_op = 0.0;  // device writes + rmws, flush included
  std::uint64_t checksum = 0;  // over live (key, value) pairs
  std::size_t size = 0;
  std::uint64_t coalesced = 0;
  // Per-applyBatch wall-latency tail (log-bucketed histogram upper edges).
  double apply_p50_us = 0.0;
  double apply_p99_us = 0.0;
};

std::unique_ptr<tables::ExternalHashTable> makeTableFor(
    const bench::Rig& rig, const std::string& kind_name, std::size_t n,
    const CacheSpec& cache, std::size_t cache_frames,
    const extmem::StorageOptions& storage) {
  tables::GeneralConfig cfg;
  cfg.expected_n = n;
  cfg.target_load = 0.5;
  cfg.buffer_items = 4096;
  cfg.beta = 8;
  cfg.gamma = 2;
  cfg.shards = 4;
  cfg.shard_threads = 4;
  cfg.shard_storage = storage;
  if (cache.cached) {
    cfg.shard_cache_frames = cache_frames;
    cfg.shard_cache_write_back = cache.write_back;
    cfg.shard_cache_replacement = cache.replacement;
  }
  tables::TableKind kind;
  if (kind_name == "sharded-chaining") {
    kind = tables::TableKind::kSharded;
    cfg.sharded_inner = tables::TableKind::kChaining;
  } else if (kind_name == "sharded-buffered") {
    kind = tables::TableKind::kSharded;
    cfg.sharded_inner = tables::TableKind::kBuffered;
  } else {
    kind = tables::parseTableKind(kind_name);
  }
  return makeTable(kind, rig.context(), cfg);
}

RunResult runProtocol(Protocol protocol, const CacheSpec& cache,
                      const std::string& kind_name,
                      const std::vector<std::uint64_t>& keys,
                      const std::vector<std::uint64_t>& universe,
                      std::size_t batch, std::size_t depth, std::size_t b,
                      std::size_t cache_frames, std::uint64_t seed,
                      const extmem::StorageOptions& storage,
                      obs::MetricsRegistry& metrics) {
  bench::Rig rig(b, /*memory_words=*/0, deriveSeed(seed, 11), storage);
  auto table = makeTableFor(rig, kind_name, keys.size(), cache, cache_frames,
                            storage);

  RunResult r;
  obs::TraceSpan run_span("protocol-run", "bench");
  run_span.arg("keys", static_cast<double>(keys.size()));
  auto fillLatency = [&](const obs::LatencyHistogram& hist) {
    if (hist.count() == 0) return;
    r.apply_p50_us = static_cast<double>(hist.valueAtQuantile(0.5)) / 1000.0;
    r.apply_p99_us = static_cast<double>(hist.valueAtQuantile(0.99)) / 1000.0;
  };
  const auto t0 = std::chrono::steady_clock::now();
  if (protocol == Protocol::kPipelined) {
    pipeline::PipelineConfig pc;
    pc.batch_capacity = batch;
    pc.max_pending_batches = depth;
    pc.record_apply_latency = true;
    pipeline::IngestPipeline pipe(*table, pc);
    for (const std::uint64_t key : keys) {
      pipe.insert(key, key ^ 0x5bd1e995);
    }
    pipe.drain();  // flush barrier: dirty shard frames are charged here
    r.coalesced = pipe.stats().ops_coalesced;
    pipe.collect(metrics);
    fillLatency(pipe.applyLatency());
  } else {
    const std::size_t chunk = protocol == Protocol::kSerial ? 1 : batch;
    obs::LatencyHistogram apply_hist;
    std::vector<tables::Op> ops;
    ops.reserve(chunk);
    for (const std::uint64_t key : keys) {
      ops.push_back(tables::Op::insertOp(key, key ^ 0x5bd1e995));
      if (ops.size() >= chunk) {
        obs::ScopedLatencyTimer timer(&apply_hist);
        table->applyBatch(ops);
        ops.clear();
      }
    }
    if (!ops.empty()) {
      obs::ScopedLatencyTimer timer(&apply_hist);
      table->applyBatch(ops);
    }
    table->flushCache();
    fillLatency(apply_hist);
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  const auto io = table->ioStats();
  r.io_per_op = static_cast<double>(io.cost()) /
                static_cast<double>(keys.size());
  r.write_io_per_op = static_cast<double>(io.writeCost()) /
                      static_cast<double>(keys.size());
  r.size = table->size();
  r.checksum = bench::contentChecksum(*table, universe);
  table->collect(metrics);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace exthash;
  ArgParser args("bench_pipeline",
                 "serial vs batched vs pipelined ingest throughput");
  args.addUintFlag("n", 1 << 16, "operations per run");
  args.addUintFlag("b", 64, "records per block");
  args.addUintFlag("batch", 4096, "batch size / pipeline window");
  args.addUintFlag("depth", 2, "pipeline max pending batches");
  args.addUintFlag("cache", 0,
                   "total cache frames split across shards for the cached "
                   "sharded-chaining rows (0 = the whole primary area: "
                   "batch grouping already coalesces within a batch, so "
                   "write-back needs cross-batch residency to show its "
                   "win)");
  args.addUintFlag("seed", 1, "root seed");
  args.addStringFlag("device", "mem",
                     "storage backend for the root and shard devices: "
                     "mem | file | file:<dir>");
  args.addBoolFlag("direct", false,
                   "request O_DIRECT on file backends (best effort)");
  args.addStringFlag("trace", "",
                     "write a Chrome trace_event JSON of the run here "
                     "(open at ui.perfetto.dev)");
  args.addStringFlag("metrics", "",
                     "write a Prometheus-format metrics snapshot of every "
                     "run's devices, caches, shards and pipelines here");
  if (!args.parse(argc, argv)) return 0;
  const std::size_t n = args.getUint("n");
  const std::size_t b = args.getUint("b");
  const std::size_t batch = args.getUint("batch");
  const std::size_t depth = args.getUint("depth");
  const std::size_t cache_frames =
      args.getUint("cache") != 0 ? args.getUint("cache") : 2 * n / b;  // = d
  const std::uint64_t seed = args.getUint("seed");
  const extmem::StorageOptions storage =
      bench::parseDeviceSpec(args.getString("device"), args.getBool("direct"));
  const std::string trace_file = args.getString("trace");
  const std::string metrics_file = args.getString("metrics");

  // Every run collects its stack's metrics here at its final barrier;
  // counters add up across runs.
  obs::MetricsRegistry metrics;
  std::optional<obs::TraceSession> trace;
  if (!trace_file.empty()) {
    trace.emplace();
    trace->start();
  }

  bench::printHeader(
      "PIPE: pipelined ingest — overlapping accumulation with apply",
      "Identical key streams through three submission protocols. ops/s is "
      "wall-clock from one run (informational); I/O is the counted cost "
      "per submitted op (write I/O = writes + rmws, cache flushes "
      "included). The cached sharded-chaining rows auto-attach per-shard "
      "caches; the cache configuration is emitted as its own columns "
      "(frames / write policy wt|wb / replacement lru|2q|arc) so CSV "
      "diffs line up. "
      "Pipelined windows are bucket-grouped sweeps, the cyclic shape "
      "where scan-resistant replacement decides what stays resident. "
      "'ok' = final live contents identical to the serial protocol.");

  if (storage.backend == extmem::StorageOptions::Backend::kFile) {
    std::cout << "device: file-backed ("
              << (storage.directory.empty() ? "system temp dir"
                                            : storage.directory)
              << (storage.direct_io ? ", O_DIRECT requested" : "")
              << ") — counted I/O is unchanged; wall-clock now includes "
                 "real pread/pwrite.\n\n";
  }

  TablePrinter out({"table", "keys", "protocol", "cache frames",
                    "write policy", "replacement", "ops/s", "speedup",
                    "I/O per op", "write I/O", "coalesced",
                    "apply p50 us", "apply p99 us", "contents"});

  bool all_equal = true;
  for (const std::string kind :
       {"sharded-chaining", "sharded-buffered", "buffered"}) {
    for (const std::string stream : {"uniform", "zipf"}) {
      std::vector<std::uint64_t> keys;
      keys.reserve(n);
      if (stream == "uniform") {
        workload::DistinctKeyStream ks(deriveSeed(seed, 2));
        for (std::size_t i = 0; i < n; ++i) keys.push_back(ks.next());
      } else {
        workload::ZipfKeyStream ks(deriveSeed(seed, 3), n / 2, 0.99);
        for (std::size_t i = 0; i < n; ++i) keys.push_back(ks.next());
      }
      // Lookup universe: the distinct submitted keys.
      std::vector<std::uint64_t> universe = keys;
      std::sort(universe.begin(), universe.end());
      universe.erase(std::unique(universe.begin(), universe.end()),
                     universe.end());

      // The base matrix runs uncached; the cache-honoring sharded kind
      // additionally runs the pipelined protocol through per-shard caches
      // across write x replacement policies (write-through LRU as the
      // strawman baseline, then write-back under all three replacements —
      // the pipelined windows are bucket-grouped sweeps, so this is the
      // cyclic access shape where the policy choice decides residency).
      std::vector<std::pair<Protocol, CacheSpec>> combos = {
          {Protocol::kSerial, CacheSpec{}},
          {Protocol::kBatched, CacheSpec{}},
          {Protocol::kPipelined, CacheSpec{}}};
      if (kind == "sharded-chaining") {
        combos.push_back({Protocol::kPipelined,
                          CacheSpec{true, false, extmem::ReplacementKind::kLru}});
        for (const auto repl :
             {extmem::ReplacementKind::kLru, extmem::ReplacementKind::kTwoQ,
              extmem::ReplacementKind::kArc}) {
          combos.push_back(
              {Protocol::kPipelined, CacheSpec{true, true, repl}});
        }
      }

      std::vector<RunResult> results;
      results.reserve(combos.size());
      for (const auto& combo : combos) {
        results.push_back(
            runProtocol(combo.first, combo.second, kind, keys, universe,
                        batch, depth, b, cache_frames, seed, storage,
                        metrics));
      }
      const RunResult& serial = results[0];  // combos[0] is serial/uncached
      for (std::size_t c = 0; c < combos.size(); ++c) {
        const RunResult& r = results[c];
        const bool equal = r.checksum == serial.checksum;
        all_equal = all_equal && equal;
        const char* proto_name =
            combos[c].first == Protocol::kSerial    ? "serial"
            : combos[c].first == Protocol::kBatched ? "batched"
                                                    : "pipelined";
        out.addRow({kind, stream, proto_name,
                    combos[c].second.framesColumn(cache_frames),
                    combos[c].second.writePolicyColumn(),
                    combos[c].second.replacementColumn(),
                    TablePrinter::num(static_cast<double>(n) / r.seconds, 0),
                    TablePrinter::num(serial.seconds / r.seconds, 2),
                    TablePrinter::num(r.io_per_op, 4),
                    TablePrinter::num(r.write_io_per_op, 4),
                    TablePrinter::num(std::uint64_t{r.coalesced}),
                    TablePrinter::num(r.apply_p50_us, 1),
                    TablePrinter::num(r.apply_p99_us, 1),
                    equal ? "ok" : "MISMATCH"});
      }
    }
  }

  out.print(std::cout);
  bench::saveCsv(out, "pipeline");
  if (trace) {
    trace->stop();
    std::ofstream os(trace_file, std::ios::trunc);
    trace->writeJson(os);
    std::cout << "\ntrace: " << trace_file << " (" << trace->eventCount()
              << " events, " << trace->dropped() << " dropped)\n";
  }
  if (!metrics_file.empty()) {
    std::ofstream os(metrics_file, std::ios::trunc);
    metrics.dump(os);
    std::cout << "metrics snapshot: " << metrics_file << "\n";
  }
  std::cout << "\nReading the table: 'batched' buys counted I/O (grouped "
               "block work); 'pipelined'\nkeeps that I/O figure, and on "
               "skewed (zipf) streams its last-write-wins\ncoalescing cuts "
               "the op stream itself. ops/s and the apply latencies are "
               "one\nwall-clock run, informational only; perfbench carries "
               "the wall-clock claims.\n";
  if (!all_equal) {
    std::cerr << "FAIL: final table contents diverged across protocols\n";
    return 1;
  }
  return 0;
}
