// WAL — the price of durability, and a hard recovery-oracle gate.
//
// Part 1 (informational): zipf-keyed pipelined ingest through the same
// table at queue depths 1/2/4 (max_pending_batches), once with the WAL
// detached (PipelineConfig.wal == nullptr, the pay-for-what-you-use
// default) and once with every sealed window logged durably before it
// applies. The off arm measures that durability-off throughput is the
// pre-durability pipeline, byte for byte; the on/off ratio is the cost
// of the WAL itself (the pipeline is a single appender, so no group ever
// forms). At depth >= 2 the pipeline's log stage writes and syncs the
// next window while the current one applies, hiding part of that cost;
// depth 1 cannot overlap and pays one extra thread hop per window.
//
// Part 2 (PASS gate, exit 1 on any miss — CI fails the build): a
// crash-recovery oracle per seed. Ingest runs WAL-attached with periodic
// checkpoints while a deterministic crash point freezes the table device
// mid-apply; recovery onto a fresh table must reproduce the acknowledged
// prefix exactly — the AckLedger (durability/ledger.h) mirrors the
// submit stream through the same coalescing/seal rules as the pipeline,
// so ledger window k IS WAL LSN k and stateThroughLsn(recovered_lsn) is
// the ground truth. The gate checks: the crash fired, recovered_lsn
// covers every acknowledged LSN, and the full-universe sweep matches the
// ledger bit-exactly.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "durability/ledger.h"
#include "durability/recovery.h"
#include "extmem/fault.h"
#include "pipeline/ingest_pipeline.h"
#include "util/cli.h"

namespace {

using namespace exthash;
using durability::AckLedger;
using durability::DurabilityManager;
using durability::RecoveryResult;
using extmem::FaultPolicy;
using extmem::IoOpKind;
using pipeline::IngestPipeline;
using tables::GeneralConfig;
using tables::Op;
using tables::TableKind;

constexpr std::size_t kWindow = 64;

GeneralConfig benchConfig(std::size_t universe) {
  GeneralConfig cfg;
  cfg.expected_n = universe;
  cfg.target_load = 0.5;
  cfg.buffer_items = 64;
  return cfg;
}

struct ThroughputPoint {
  double ops_per_s = 0;
  std::uint64_t durable_lsn = 0;
  std::uint64_t fsyncs = 0;  // barriers the WAL device issued (fsync tax)
};

ThroughputPoint ingestArm(TableKind kind, std::size_t ops_count,
                          std::size_t universe, double theta,
                          std::size_t depth, std::uint64_t seed,
                          bool durable, const extmem::StorageOptions& storage) {
  bench::Rig rig(/*b=*/8, /*memory_words=*/0, deriveSeed(seed, 1), storage);
  GeneralConfig cfg = benchConfig(universe);
  cfg.shard_storage = storage;
  auto table = makeTable(kind, rig.context(), cfg);

  std::optional<DurabilityManager> dm;
  if (durable) {
    dm.emplace(rig.device->wordsPerBlock(), storage);
    dm->begin(*table);
  }

  workload::ZipfKeyStream keys(deriveSeed(seed, 2), universe, theta);
  ThroughputPoint point;
  const auto start = std::chrono::steady_clock::now();
  {
    pipeline::PipelineConfig pc;
    pc.batch_capacity = kWindow;
    pc.max_pending_batches = depth;
    if (durable) pc.wal = &dm->wal();
    IngestPipeline pipe(*table, pc);
    for (std::size_t i = 0; i < ops_count; ++i) {
      pipe.insert(keys.next(), i + 1);
    }
    pipe.drain();
  }
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  point.ops_per_s = elapsed > 0 ? static_cast<double>(ops_count) / elapsed : 0;
  if (durable) {
    point.durable_lsn = dm->wal().durableLsn();
    point.fsyncs = dm->walDevice().stats().fsyncs;
  }
  return point;
}

struct OracleResult {
  bool crash_fired = false;
  bool prefix_ok = false;
  bool contents_ok = false;
  std::uint64_t acked_lsn = 0;
  std::uint64_t recovered_lsn = 0;
  std::uint64_t replayed_records = 0;

  bool pass() const { return crash_fired && prefix_ok && contents_ok; }
};

OracleResult recoveryOracle(TableKind kind, std::size_t ops_count,
                            std::size_t universe, double theta,
                            std::uint64_t seed,
                            const extmem::StorageOptions& storage) {
  bench::Rig rig(/*b=*/8, /*memory_words=*/0, deriveSeed(seed, 1), storage);
  GeneralConfig cfg = benchConfig(universe);
  cfg.shard_storage = storage;
  auto table = makeTable(kind, rig.context(), cfg);
  DurabilityManager dm(rig.device->wordsPerBlock(), storage);
  dm.begin(*table);

  // Crash mid-apply, well into the run: the window being applied is
  // already durable (log-before-apply), so recovery must replay it.
  FaultPolicy policy(deriveSeed(seed, 3));
  policy.crashOpNumber(IoOpKind::kWrite, ops_count / 8,
                       /*torn_words=*/rig.device->wordsPerBlock() / 2);
  policy.crashOpNumber(IoOpKind::kRmw, ops_count / 8, /*torn_words=*/2);
  table->durableDevice(0).setFaultPolicy(&policy);

  workload::ZipfKeyStream keys(deriveSeed(seed, 2), universe, theta);
  AckLedger ledger(kWindow);
  OracleResult out;
  // Every key the stream produced — submitted or not — gets swept below,
  // so both lost acknowledged ops AND resurrected unacknowledged ones
  // surface as mismatches.
  std::vector<std::uint64_t> touched;
  touched.reserve(ops_count);
  {
    pipeline::PipelineConfig pc;
    pc.batch_capacity = kWindow;
    pc.max_pending_batches = 2;
    pc.wal = &dm.wal();
    IngestPipeline pipe(*table, pc);
    for (std::size_t i = 0; i < ops_count; ++i) {
      const Op op = Op::insertOp(keys.next(), i + 1);
      touched.push_back(op.key);
      try {
        pipe.submit(op);
      } catch (...) {
        out.crash_fired = true;
        break;
      }
      ledger.submit(op);
      if ((i + 1) % (kWindow * 8) == 0) {
        try {
          pipe.submitMaintenance([&dm, &table] { dm.checkpoint(*table); });
        } catch (...) {
          out.crash_fired = true;
          break;
        }
      }
    }
    if (!out.crash_fired) {
      try {
        pipe.drain();
      } catch (...) {
        out.crash_fired = true;
      }
    }
  }
  ledger.seal();
  out.crash_fired = out.crash_fired && policy.crashesFired() > 0;
  out.acked_lsn = dm.wal().durableLsn();

  dm.freezeAll(*table);
  table->durableDevice(0).setFaultPolicy(nullptr);
  policy.clear();
  table.reset();
  rig.device->thaw();

  auto fresh = makeTable(kind, rig.context(), cfg);
  const RecoveryResult rr = dm.recover(*fresh);
  out.recovered_lsn = rr.recovered_lsn;
  out.replayed_records = rr.replayed_records;
  out.prefix_ok = rr.recovered_lsn >= out.acked_lsn;

  out.contents_ok = true;
  const auto expected = ledger.stateThroughLsn(rr.recovered_lsn);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const std::uint64_t key : touched) {
    const auto it = expected.find(key);
    const std::optional<std::uint64_t> want =
        it == expected.end() || !it->second.has_value() ? std::nullopt
                                                        : it->second;
    if (fresh->lookup(key) != want) {
      out.contents_ok = false;
      break;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_wal",
                 "Durability lane: WAL on/off ingest throughput and a "
                 "crash-recovery oracle gate");
  args.addUintFlag("ops", 20000, "operations per throughput arm");
  args.addUintFlag("universe", 4096, "zipf key-universe size");
  args.addDoubleFlag("theta", 0.8, "zipf skew");
  args.addStringFlag("kind", "chaining", "table kind for both parts");
  args.addStringFlag("seeds", "1,7,42", "comma-separated oracle seeds");
  args.addStringFlag("device", "mem",
                     "storage backend for every device (table, WAL, "
                     "manifests): mem | file | file:<dir>");
  args.addBoolFlag("direct", false,
                   "request O_DIRECT on file backends (best effort)");
  if (!args.parse(argc, argv)) return 0;

  const std::size_t ops_count = args.getUint("ops");
  const std::size_t universe = args.getUint("universe");
  const double theta = args.getDouble("theta");
  const TableKind kind = tables::parseTableKind(args.getString("kind"));
  const extmem::StorageOptions storage =
      bench::parseDeviceSpec(args.getString("device"), args.getBool("direct"));
  const char* device_name =
      storage.backend == extmem::StorageOptions::Backend::kFile ? "file"
                                                                : "mem";
  std::vector<std::uint64_t> seeds;
  {
    const std::string& s = args.getString("seeds");
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = s.find(',', pos);
      const std::string tok =
          s.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  bench::printHeader(
      "WAL: group-commit durability vs the pay-for-what-you-use default",
      "Ack-after-durable logs every sealed window before it applies; "
      "detached (the default) the pipeline is byte-identical to the "
      "pre-durability hot path.");

  TablePrinter tput({"kind", "device", "depth", "wal", "ops_per_s",
                     "durable_lsn", "fsyncs"});
  for (const std::size_t depth : {1u, 2u, 4u}) {
    const ThroughputPoint off =
        ingestArm(kind, ops_count, universe, theta, depth, 1, false, storage);
    const ThroughputPoint on =
        ingestArm(kind, ops_count, universe, theta, depth, 1, true, storage);
    tput.addRow({std::string(tableKindName(kind)), device_name,
                 std::to_string(depth), "off",
                 TablePrinter::num(off.ops_per_s, 0), "-", "-"});
    tput.addRow({std::string(tableKindName(kind)), device_name,
                 std::to_string(depth), "on",
                 TablePrinter::num(on.ops_per_s, 0),
                 std::to_string(on.durable_lsn),
                 std::to_string(on.fsyncs)});
  }
  tput.print(std::cout);
  bench::saveCsv(tput, "wal_throughput");

  std::cout << "\n";
  TablePrinter oracle({"kind", "seed", "crash", "acked", "recovered",
                       "replayed", "contents", "verdict"});
  bool pass = true;
  for (const std::uint64_t seed : seeds) {
    const OracleResult r =
        recoveryOracle(kind, ops_count / 2, universe, theta, seed, storage);
    pass = pass && r.pass();
    oracle.addRow({std::string(tableKindName(kind)), std::to_string(seed),
                   r.crash_fired ? "fired" : "NEVER-FIRED",
                   std::to_string(r.acked_lsn),
                   std::to_string(r.recovered_lsn),
                   std::to_string(r.replayed_records),
                   r.contents_ok ? "exact" : "LOST/DUP",
                   r.pass() ? "ok" : "FAIL"});
  }
  oracle.print(std::cout);
  bench::saveCsv(oracle, "wal_oracle");

  if (!pass) {
    std::cout << "\nWAL: FAIL — recovery lost or duplicated an acknowledged "
                 "operation, or the crash schedule never fired\n";
    return 1;
  }
  std::cout << "\nWAL: PASS — every acknowledged op survived the crash "
               "(prefix-exact recovery across all seeds)\n";
  return 0;
}
