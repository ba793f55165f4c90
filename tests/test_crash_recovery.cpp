// End-to-end crash-recovery sweep on files: every table kind runs an
// acknowledged ingest through the WAL-attached pipeline while a
// deterministic power cut (seal, torn log append, mid-checkpoint,
// mid-apply before or after a periodic checkpoint, mid-replay, or a
// seed-drawn syscall) kills the machine, and recovery on a fresh table
// must reproduce EXACTLY the acknowledged prefix — the AckLedger replays the same submit stream through the same
// coalescing/seal rules as the pipeline, so ledger window k IS WAL LSN k
// and stateThroughLsn(L) is the ground truth for any recovered LSN L.
// Distinct per-op values make the oracle exactly-once: a lost
// acknowledged op or a resurrected unacknowledged one both surface as a
// value mismatch on the full universe sweep. Satellite coverage for
// per-shard recovery (ShardedTable::resetShard) lives at the bottom.
#include <gtest/gtest.h>

#include <cerrno>
#include <optional>
#include <random>
#include <vector>

#include "durability/ledger.h"
#include "durability/recovery.h"
#include "extmem/block_device.h"
#include "extmem/faulty_file_ops.h"
#include "pipeline/ingest_pipeline.h"
#include "table_test_util.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"

namespace exthash {
namespace {

using durability::AckLedger;
using durability::DurabilityManager;
using durability::RecoveryResult;
using extmem::FaultyFileOps;
using extmem::FileSyscall;
using extmem::StorageOptions;
using pipeline::IngestPipeline;
using pipeline::PipelineConfig;
using tables::GeneralConfig;
using tables::Op;
using tables::TableKind;

constexpr std::size_t kWindow = 32;        // pipeline + ledger seal size
constexpr std::size_t kCheckpointEvery = 128;  // ops between checkpoints

// The buffered table (and the sharded façade over it, its default inner)
// is the paper's insert-only distinct-key model; every other kind takes
// the mixed insert/erase stream.
bool insertOnlyKind(TableKind kind) {
  return kind == TableKind::kBuffered || kind == TableKind::kSharded;
}

struct Workload {
  std::vector<std::uint64_t> universe;
  std::vector<Op> ops;
  std::vector<std::uint64_t> unseen;  // never submitted
};

Workload makeWorkload(TableKind kind, std::uint64_t seed) {
  Workload w;
  // Keys for the serve-after-recovery check: the universe's Feistel
  // permutation at indices past it — distinct by construction, which
  // matters for the insert-only kinds where re-inserting shadows instead
  // of updating.
  const auto all = testing::distinctKeys(520, /*seed=*/99);
  w.unseen.assign(all.begin() + 512, all.end());
  if (insertOnlyKind(kind)) {
    // Distinct keys, insert-only; seed shuffles the order.
    w.universe = testing::distinctKeys(512, /*seed=*/99);
    std::vector<std::uint64_t> order = w.universe;
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i = 0; i < order.size(); ++i) {
      w.ops.push_back(Op::insertOp(order[i], 2 * i + 1));
    }
    return w;
  }
  w.universe = testing::distinctKeys(256, /*seed=*/99);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < 384; ++i) {
    const std::uint64_t key = w.universe[rng() % w.universe.size()];
    if (rng() % 8 == 0) {
      w.ops.push_back(Op::eraseOp(key));
    } else {
      // Distinct values (and != the tombstone sentinel) per op, so the
      // oracle detects stale/duplicated replay, not just presence.
      w.ops.push_back(Op::insertOp(key, 2 * i + 1));
    }
  }
  return w;
}

// Which file the power cut counts pwrites on. kTableAfterCheckpoint arms
// late: the first periodic checkpoint's maintenance task arms the cut
// right after the checkpoint lands, so recovery starts from that
// checkpoint, not from begin()'s at LSN 0. kAnySyscall cuts at a
// seed-drawn syscall of any file instead.
enum class CrashTarget {
  kNone,
  kWal,
  kManifest,
  kTable,
  kTableAfterCheckpoint,
  kAnySyscall,
};

struct CrashPoint {
  const char* name;
  CrashTarget target;
  std::uint64_t nth_pwrite;  // cut at the target file's nth pwrite
  bool torn;                 // the cut pwrite lands half a block
};

GeneralConfig sweepConfig(const StorageOptions& storage) {
  GeneralConfig cfg;
  cfg.expected_n = 512;
  cfg.buffer_items = 32;
  cfg.shards = 2;
  cfg.shard_threads = 1;
  cfg.shard_cache_frames = 0;  // no write-back frames to flush at teardown
  cfg.shard_storage = storage;
  return cfg;
}

// Run one ingest-crash-recover episode and check the oracle. Every device
// (table, shards, WAL, manifests) keeps its blocks in a file behind one
// FaultyFileOps shim, and the crash is a power cut: the pwrite in flight
// may land a torn prefix, the page-cache model drops every write no sync
// covered, and every later syscall fails until the reboot. WAL acks and
// manifest commits gate on sync(), so the acknowledged prefix is exactly
// the synced prefix, and recovery from the surviving file bytes must
// reproduce it bit-exactly against the AckLedger oracle. Returns the
// recovery result for point-specific assertions.
RecoveryResult runEpisode(TableKind kind, std::uint64_t seed,
                          const CrashPoint& point) {
  FaultyFileOps shim(seed);  // declared first: outlives every device
  const bool cut = point.target != CrashTarget::kNone;
  // The page-cache model in every episode: a closed file's unsynced
  // writes are written back, so only the cut loses bytes.
  shim.enableWriteBuffering();
  const StorageOptions storage = testing::fileStorageOptions(&shim);

  testing::TestRig rig(8);
  rig.useStorage(storage);
  const GeneralConfig cfg = sweepConfig(storage);
  const Workload w = makeWorkload(kind, seed);

  auto table = makeTable(kind, rig.context(), cfg);
  DurabilityManager dm(rig.device->wordsPerBlock(), storage);
  dm.begin(*table);

  // Arm the cut AFTER the initial checkpoint, so pwrite counts are
  // relative to the ingest phase.
  const std::size_t block_bytes =
      rig.device->wordsPerBlock() * sizeof(extmem::Word);
  const std::size_t torn_bytes = point.torn ? block_bytes / 2 : 0;
  int target = FaultyFileOps::kAnyFile;
  switch (point.target) {
    case CrashTarget::kNone:
      break;
    case CrashTarget::kWal:
      target = testing::fileOf(dm.walDevice());
      break;
    case CrashTarget::kManifest:
      target = testing::fileOf(dm.manifestDevice());
      break;
    case CrashTarget::kTable:
    case CrashTarget::kTableAfterCheckpoint:
      target = testing::fileOf(table->durableDevice(0));
      break;
    case CrashTarget::kAnySyscall: {
      // A pseudo-random number of syscalls into the ingest, tearing a
      // random byte prefix (bytes % 8 != 0 ⇒ mid-word) of whatever pwrite
      // is in flight.
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
      shim.powerCutAfter(shim.syscalls() + 8 + rng() % 120,
                         /*torn_bytes=*/rng() % (block_bytes + 1));
      break;
    }
  }
  const auto arm = [&shim, &point, target, torn_bytes] {
    shim.powerCutAtPwrite(
        shim.count(FileSyscall::kPwrite, target) + point.nth_pwrite,
        torn_bytes, target);
  };
  const bool arm_late = point.target == CrashTarget::kTableAfterCheckpoint;
  if (target != FaultyFileOps::kAnyFile && !arm_late) arm();
  // Read and cleared only by maintenance tasks, which run on the worker
  // thread that owns the table.
  bool arm_after_checkpoint = arm_late;

  AckLedger ledger(kWindow);
  bool crashed = false;
  {
    PipelineConfig pcfg;
    pcfg.batch_capacity = kWindow;
    pcfg.max_pending_batches = 2;
    pcfg.wal = &dm.wal();
    IngestPipeline pipe(*table, pcfg);
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      try {
        pipe.submit(w.ops[i]);
      } catch (...) {
        crashed = true;
        break;
      }
      // Mirror ONLY accepted ops — the fail-stop latch rejects at entry,
      // so a throwing submit never reached the staging window.
      ledger.submit(w.ops[i]);
      if ((i + 1) % kCheckpointEvery == 0 && i + 1 < w.ops.size()) {
        try {
          pipe.submitMaintenance([&dm, &table, &arm, &arm_after_checkpoint] {
            dm.checkpoint(*table);
            if (arm_after_checkpoint) {
              arm();
              arm_after_checkpoint = false;
            }
          });
        } catch (...) {
          crashed = true;
          break;
        }
      }
    }
    if (!crashed) {
      try {
        pipe.drain();
      } catch (...) {
        crashed = true;
      }
    }
    // Pipeline teardown swallows background errors from the crash.
  }
  ledger.seal();  // mirror drain()'s final partial-window seal

  EXPECT_EQ(crashed, cut) << "the power cut never fired, or a clean run "
                             "failed";
  EXPECT_EQ(shim.powerCutFired(), cut);

  // Snapshot the acknowledgement horizon, then stop the machine.
  const std::uint64_t acked_lsn = dm.wal().durableLsn();
  dm.freezeAll(*table);
  table.reset();  // frozen devices free as a no-op

  // The reboot: power comes back (unsynced writes stay lost), devices
  // thaw, and recovery reads what actually survived in the files.
  shim.restorePower();
  rig.device->thaw();  // the fresh table's constructor must allocate

  auto fresh = makeTable(kind, rig.context(), cfg);
  const RecoveryResult result = dm.recover(*fresh);

  // Prefix consistency: everything acknowledged before the crash is in.
  EXPECT_GE(result.recovered_lsn, acked_lsn);
  if (arm_late) {
    // Recovery started from the periodic checkpoint and replayed the
    // tail past it.
    EXPECT_GT(result.checkpoint_lsn, 0u);
    EXPECT_GE(result.replayed_records, 1u);
  }

  // Bit-exact contents vs the reference model of acknowledged operations.
  testing::expectMatchesLedger(*fresh, ledger, result.recovered_lsn,
                               w.universe);
  testing::expectServesNewKeys(*fresh, w.unseen);
  return result;
}

void sweep(const CrashPoint& point) {
  for (const TableKind kind : tables::kAllTableKindsWithSharded) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      SCOPED_TRACE(::testing::Message()
                   << tableKindName(kind) << " seed=" << seed
                   << " point=" << point.name);
      runEpisode(kind, seed, point);
    }
  }
}

// A window seal's WAL append vanishes whole: the record was never
// acknowledged, so recovery must land exactly on the previous window.
TEST(CrashRecoveryFileBacked, CrashAtWindowSealOnFiles) {
  sweep({"seal", CrashTarget::kWal, /*nth_pwrite=*/5, /*torn=*/false});
}

// The same append tears mid-block: the reader must truncate the torn
// tail and recovery replays only the durable prefix.
TEST(CrashRecoveryFileBacked, TornWriteDuringLogAppendOnFiles) {
  sweep({"log-append-torn", CrashTarget::kWal, /*nth_pwrite=*/9,
         /*torn=*/true});
}

// Power lost inside the periodic checkpoint (manifest payload or header
// write): the superblock pair guarantees the OTHER slot's checkpoint +
// the full log still recover everything acknowledged.
TEST(CrashRecoveryFileBacked, CrashDuringCheckpointOnFiles) {
  sweep({"checkpoint", CrashTarget::kManifest, /*nth_pwrite=*/3,
         /*torn=*/true});
}

// Power lost while applyBatch writes table blocks — the window's WAL
// record is already durable (log-before-apply), so replay reconstructs
// it; the torn table write itself is immaterial because table devices
// rewind to the checkpoint images.
TEST(CrashRecoveryFileBacked, TornWriteDuringApplyOnFiles) {
  sweep({"apply", CrashTarget::kTable, /*nth_pwrite=*/4, /*torn=*/true});
}

// The same cut, armed after the first periodic checkpoint: the table
// devices rewind to that checkpoint's images and replay the WAL tail past
// it, so the manifest path and a non-empty replay both run.
TEST(CrashRecoveryFileBacked, TornWriteDuringApplyAfterACheckpointOnFiles) {
  sweep({"apply-after-checkpoint", CrashTarget::kTableAfterCheckpoint,
         /*nth_pwrite=*/4, /*torn=*/true});
}

// Power lost in the middle of recovery's own replay, then recover AGAIN:
// the LSN fence makes replay idempotent across attempts.
TEST(CrashRecovery, CrashMidReplayThenRecoverAgain) {
  for (const TableKind kind : tables::kAllTableKindsWithSharded) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      SCOPED_TRACE(::testing::Message()
                   << tableKindName(kind) << " seed=" << seed
                   << " point=mid-replay");
      FaultyFileOps shim(seed);  // declared first: outlives every device
      const StorageOptions storage = testing::fileStorageOptions(&shim);
      testing::TestRig rig(8);
      rig.useStorage(storage);
      const GeneralConfig cfg = sweepConfig(storage);
      const Workload w = makeWorkload(kind, seed);

      auto table = makeTable(kind, rig.context(), cfg);
      DurabilityManager dm(rig.device->wordsPerBlock(), storage);
      dm.begin(*table);

      AckLedger ledger(kWindow);
      {
        PipelineConfig pcfg;
        pcfg.batch_capacity = kWindow;
        pcfg.max_pending_batches = 2;
        pcfg.wal = &dm.wal();
        IngestPipeline pipe(*table, pcfg);
        for (std::size_t i = 0; i < w.ops.size(); ++i) {
          pipe.submit(w.ops[i]);
          ledger.submit(w.ops[i]);
          // Checkpoint mid-stream only: the tail past the last checkpoint
          // is what recovery will replay.
          if ((i + 1) % kCheckpointEvery == 0 && i + 1 < w.ops.size()) {
            pipe.submitMaintenance([&dm, &table] { dm.checkpoint(*table); });
          }
        }
        pipe.drain();
      }
      ledger.seal();
      const std::uint64_t acked_lsn = dm.wal().durableLsn();
      ASSERT_GT(acked_lsn, 0u);

      dm.freezeAll(*table);  // clean power loss after a full drain
      table.reset();
      rig.device->thaw();

      // Recovery attempt #1 loses power at the second pwrite replay
      // issues to the fresh table's file. The first pwrite after arming
      // restores the checkpoint image (one pwrite per 1,024-block arena
      // chunk, and these images are smaller).
      auto fresh1 = makeTable(kind, rig.context(), cfg);
      const int file = testing::fileOf(fresh1->durableDevice(0));
      const std::uint64_t wal_reads = dm.walDevice().stats().reads;
      shim.powerCutAtPwrite(shim.count(FileSyscall::kPwrite, file) + 3,
                            /*torn_bytes=*/2 * sizeof(extmem::Word), file);
      EXPECT_THROW(dm.recover(*fresh1), extmem::DeviceCrashed);
      EXPECT_TRUE(shim.powerCutFired());
      // Replay had begun: recovery scans the log only once every image is
      // restored.
      EXPECT_GT(dm.walDevice().stats().reads, wal_reads);

      shim.restorePower();  // before the half-recovered table tears down
      fresh1.reset();       // recover() re-thawed everything on the way out

      // Attempt #2 on another fresh table succeeds and lands on the same
      // state — replay is idempotent behind the LSN fence.
      auto fresh2 = makeTable(kind, rig.context(), cfg);
      const RecoveryResult result = dm.recover(*fresh2);
      EXPECT_GE(result.recovered_lsn, acked_lsn);
      EXPECT_GT(result.replayed_records, 0u);

      testing::expectMatchesLedger(*fresh2, ledger, result.recovered_lsn,
                                   w.universe);
    }
  }
}

// No crash at all: the full sweep doubles as a clean-shutdown recovery
// check (freeze after drain, recover, everything acknowledged present).
TEST(CrashRecoveryFileBacked, CleanShutdownRecoversEverythingOnFiles) {
  for (const TableKind kind : tables::kAllTableKindsWithSharded) {
    SCOPED_TRACE(tableKindName(kind));
    const RecoveryResult result =
        runEpisode(kind, /*seed=*/7, {"none", CrashTarget::kNone, 0, false});
    EXPECT_FALSE(result.torn_tail);
  }
}

// The power cut at the Nth SYSCALL of any file — beneath the EINTR loops,
// beneath the retry ladder — with the in-flight pwrite keeping a torn
// byte prefix, mid-word cuts included.
TEST(CrashRecoveryFileBacked, SyscallPowerCutAgainstAckLedgerOracle) {
  for (const TableKind kind :
       {TableKind::kBuffered, TableKind::kChaining, TableKind::kSharded}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
      SCOPED_TRACE(::testing::Message()
                   << tableKindName(kind) << " seed=" << seed
                   << " point=syscall-power-cut");
      runEpisode(kind, seed,
                 {"syscall-power-cut", CrashTarget::kAnySyscall, 0, false});
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: per-shard recovery primitive — a reset shard rejoins while
// the healthy shards never stop serving.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, ResetShardServesWhileOthersKeepServing) {
  FaultyFileOps shim(/*seed=*/3);
  testing::TestRig rig(8);
  tables::GeneralConfig scfg;
  scfg.shards = 3;
  scfg.sharded_inner = TableKind::kChaining;
  scfg.expected_n = 256;
  scfg.shard_threads = 1;
  scfg.shard_storage = testing::fileStorageOptions(&shim);
  tables::ShardedTable table(rig.context(), scfg);

  const auto keys = testing::distinctKeys(96);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.insert(keys[i], i + 1);
  }

  // Classify keys by owning shard BEFORE faulting anything.
  std::vector<std::size_t> shard_of(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto block = table.primaryBlockOf(keys[i]);
    ASSERT_TRUE(block.has_value());
    shard_of[i] = tables::ShardedTable::shardOfBlockId(*block);
  }

  // Shard 0's file goes bad: every read and write faults until the shim
  // clears, so its first lookup exhausts retries and latches the shard.
  const int shard0 = testing::fileOf(table.shardDevice(0));
  for (const auto sc : {FileSyscall::kPread, FileSyscall::kPwrite}) {
    shim.failNth(sc, shim.count(sc, shard0) + 1, EAGAIN, /*sticky=*/true,
                 shard0);
  }

  std::size_t failed_lookups = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (shard_of[i] == 0) {
      EXPECT_THROW(table.lookup(keys[i]), extmem::IoError);
      ++failed_lookups;
    } else {
      // Healthy shards keep serving while shard 0 is down.
      EXPECT_EQ(table.lookup(keys[i]), std::optional<std::uint64_t>(i + 1));
    }
  }
  ASSERT_GT(failed_lookups, 0u);
  EXPECT_TRUE(table.shardFailed(0));
  EXPECT_EQ(table.failedShardCount(), 1u);

  // The fault clears; reset rebuilds shard 0 empty on the same device.
  shim.clear();
  table.resetShard(0);
  EXPECT_FALSE(table.shardFailed(0));
  EXPECT_EQ(table.failedShardCount(), 0u);

  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (shard_of[i] == 0) {
      // Reset shard is empty (this test attaches no WAL) but SERVES.
      EXPECT_EQ(table.lookup(keys[i]), std::nullopt);
    } else {
      // The others never lost their contents.
      EXPECT_EQ(table.lookup(keys[i]), std::optional<std::uint64_t>(i + 1));
    }
  }

  // Repopulating the reset shard works like day one.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (shard_of[i] == 0) {
      EXPECT_TRUE(table.insert(keys[i], 1000 + i));
      EXPECT_EQ(table.lookup(keys[i]), std::optional<std::uint64_t>(1000 + i));
    }
  }
}

}  // namespace
}  // namespace exthash
