// End-to-end crash-recovery sweep: every table kind runs an acknowledged
// ingest through the WAL-attached pipeline while a deterministic crash
// point (seal, torn log append, mid-checkpoint, mid-apply before or after
// a periodic checkpoint, mid-replay) freezes one of the devices, and
// recovery on a fresh table must reproduce EXACTLY the acknowledged
// prefix — the AckLedger replays the same submit stream through the same
// coalescing/seal rules as the pipeline, so ledger window k IS WAL LSN k
// and stateThroughLsn(L) is the ground truth for any recovered LSN L.
// Distinct per-op values make the oracle exactly-once: a lost
// acknowledged op or a resurrected unacknowledged one both surface as a
// value mismatch on the full universe sweep. Satellite coverage for
// per-shard recovery (ShardedTable::resetShard) lives at the bottom.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "durability/ledger.h"
#include "durability/recovery.h"
#include "extmem/block_device.h"
#include "extmem/fault.h"
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
using extmem::BlockDevice;
using extmem::FaultPolicy;
using extmem::FaultyFileOps;
using extmem::IoOpKind;
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

// kTableAfterCheckpoint arms the table device late: the first periodic
// checkpoint's maintenance task installs the policy right after the
// checkpoint lands, so recovery starts from that checkpoint, not from
// begin()'s at LSN 0.
enum class CrashTarget {
  kNone,
  kWal,
  kManifest,
  kTable,
  kTableAfterCheckpoint,
};

struct CrashPoint {
  const char* name;
  CrashTarget target;
  std::uint64_t nth_write;   // crash at the nth kWrite (0 = disarmed)
  std::uint64_t nth_rmw;     // additionally arm the nth kRmw (0 = none)
  bool torn;                 // tear the crashing write mid-block
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

/// File-backed everything (table, WAL, manifests), regardless of the
/// EXTHASH_TEST_STORAGE environment — the explicit real-file arm.
StorageOptions fileStorage() {
  StorageOptions options = testing::testStorageOptions();
  options.backend = StorageOptions::Backend::kFile;
  return options;
}

// Run one ingest-crash-recover episode and check the oracle. Returns the
// recovery result for point-specific assertions. `storage` selects where
// every device in the episode (table, shards, WAL, manifests) keeps its
// blocks; the default follows EXTHASH_TEST_STORAGE like every other test.
RecoveryResult runEpisode(TableKind kind, std::uint64_t seed,
                          const CrashPoint& point,
                          const StorageOptions& storage =
                              testing::testStorageOptions()) {
  testing::TestRig rig(8);
  rig.device = std::make_unique<BlockDevice>(rig.device->wordsPerBlock(),
                                             storage);
  const GeneralConfig cfg = sweepConfig(storage);
  const Workload w = makeWorkload(kind, seed);

  auto table = makeTable(kind, rig.context(), cfg);
  DurabilityManager dm(rig.device->wordsPerBlock(), storage);
  dm.begin(*table);

  // Arm the crash AFTER the initial checkpoint so op counts are relative
  // to the ingest phase. The policy must outlive the pipeline.
  FaultPolicy policy(/*seed=*/seed);
  BlockDevice* target = nullptr;
  switch (point.target) {
    case CrashTarget::kNone:
      break;
    case CrashTarget::kWal:
      target = &dm.walDevice();
      break;
    case CrashTarget::kManifest:
      target = &dm.manifestDevice();
      break;
    case CrashTarget::kTable:
    case CrashTarget::kTableAfterCheckpoint:
      target = &table->durableDevice(0);
      break;
  }
  const bool arm_late = point.target == CrashTarget::kTableAfterCheckpoint;
  const std::size_t torn_words = point.torn ? rig.device->wordsPerBlock() / 2 : 0;
  if (target != nullptr) {
    policy.crashOpNumber(IoOpKind::kWrite, point.nth_write, torn_words);
    if (point.nth_rmw != 0) {
      policy.crashOpNumber(IoOpKind::kRmw, point.nth_rmw, torn_words);
    }
    if (!arm_late) target->setFaultPolicy(&policy);
  }
  // Read and cleared only by maintenance tasks, which run on the worker
  // thread that owns the table.
  BlockDevice* arm_after_checkpoint = arm_late ? target : nullptr;

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
          pipe.submitMaintenance(
              [&dm, &table, &policy, &arm_after_checkpoint] {
                dm.checkpoint(*table);
                if (arm_after_checkpoint != nullptr) {
                  arm_after_checkpoint->setFaultPolicy(&policy);
                  arm_after_checkpoint = nullptr;
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

  if (target != nullptr) {
    EXPECT_TRUE(crashed) << "armed crash point never fired";
    EXPECT_GE(policy.crashesFired(), 1u);
  } else {
    EXPECT_FALSE(crashed);
  }

  // Snapshot the acknowledgement horizon, then stop the machine.
  const std::uint64_t acked_lsn = dm.wal().durableLsn();
  dm.freezeAll(*table);
  if (target != nullptr) {
    target->setFaultPolicy(nullptr);  // before the shard devices die
    policy.clear();
  }
  table.reset();         // frozen devices free as a no-op
  rig.device->thaw();    // the fresh table's constructor must allocate

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

void sweep(const CrashPoint& point,
           const StorageOptions& storage = testing::testStorageOptions()) {
  for (const TableKind kind : tables::kAllTableKindsWithSharded) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      SCOPED_TRACE(::testing::Message()
                   << tableKindName(kind) << " seed=" << seed
                   << " point=" << point.name);
      runEpisode(kind, seed, point, storage);
    }
  }
}

// A window seal's WAL append vanishes whole: the record was never
// acknowledged, so recovery must land exactly on the previous window.
TEST(CrashRecovery, CrashAtWindowSeal) {
  sweep({"seal", CrashTarget::kWal, /*nth_write=*/5, /*nth_rmw=*/0,
         /*torn=*/false});
}

// The same append tears mid-block: the reader must truncate the torn
// tail and recovery replays only the durable prefix.
TEST(CrashRecovery, TornWriteDuringLogAppend) {
  sweep({"log-append-torn", CrashTarget::kWal, /*nth_write=*/9,
         /*nth_rmw=*/0, /*torn=*/true});
}

// Crash inside the periodic checkpoint (manifest payload or header
// write): the superblock pair guarantees the OTHER slot's checkpoint +
// the full log still recover everything acknowledged.
TEST(CrashRecovery, CrashDuringCheckpoint) {
  sweep({"checkpoint", CrashTarget::kManifest, /*nth_write=*/3,
         /*nth_rmw=*/0, /*torn=*/true});
}

// Crash while applyBatch writes table blocks — the window's WAL record
// is already durable (log-before-apply), so replay reconstructs it; the
// torn table write itself is immaterial because table devices rewind to
// the checkpoint images.
TEST(CrashRecovery, TornWriteDuringApply) {
  sweep({"apply", CrashTarget::kTable, /*nth_write=*/4, /*nth_rmw=*/6,
         /*torn=*/true});
}

// The same crash, armed after the first periodic checkpoint: the table
// devices rewind to that checkpoint's images and replay the WAL tail
// past it, so the manifest path and a non-empty replay both run.
TEST(CrashRecovery, TornWriteDuringApplyAfterACheckpoint) {
  sweep({"apply-after-checkpoint", CrashTarget::kTableAfterCheckpoint,
         /*nth_write=*/4, /*nth_rmw=*/6, /*torn=*/true});
}

// Crash in the middle of recovery's own replay, then recover AGAIN: the
// LSN fence makes replay idempotent across attempts.
TEST(CrashRecovery, CrashMidReplayThenRecoverAgain) {
  for (const TableKind kind : tables::kAllTableKindsWithSharded) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      SCOPED_TRACE(::testing::Message()
                   << tableKindName(kind) << " seed=" << seed
                   << " point=mid-replay");
      testing::TestRig rig(8);
      const GeneralConfig cfg = sweepConfig(testing::testStorageOptions());
      const Workload w = makeWorkload(kind, seed);

      auto table = makeTable(kind, rig.context(), cfg);
      DurabilityManager dm(rig.device->wordsPerBlock(),
                           testing::testStorageOptions());
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

      // Recovery attempt #1 crashes while replay writes into the fresh
      // table.
      FaultPolicy policy(seed);
      auto fresh1 = makeTable(kind, rig.context(), cfg);
      policy.crashOpNumber(IoOpKind::kWrite, 2, /*torn_words=*/2);
      policy.crashOpNumber(IoOpKind::kRmw, 2, /*torn_words=*/2);
      fresh1->durableDevice(0).setFaultPolicy(&policy);
      EXPECT_THROW(dm.recover(*fresh1), extmem::DeviceCrashed);
      EXPECT_GE(policy.crashesFired(), 1u);

      fresh1->durableDevice(0).setFaultPolicy(nullptr);
      policy.clear();
      fresh1.reset();  // recover() re-thawed everything on the way out

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
TEST(CrashRecovery, CleanShutdownRecoversEverything) {
  for (const TableKind kind : tables::kAllTableKindsWithSharded) {
    SCOPED_TRACE(tableKindName(kind));
    const RecoveryResult result = runEpisode(
        kind, /*seed=*/7, {"none", CrashTarget::kNone, 0, 0, false});
    EXPECT_FALSE(result.torn_tail);
  }
}

// ---------------------------------------------------------------------------
// File-backed arm: the SAME kind × crash-point × seed sweeps, but every
// device (table, shards, WAL, manifests) keeps its blocks in real files,
// every group-commit ack and manifest commit is gated on a real fdatasync,
// and the crash points fire against that stack. Nothing above the device
// layer changes — that is the point of the StorageBackend seam.
// ---------------------------------------------------------------------------

TEST(CrashRecoveryFileBacked, CrashAtWindowSealOnFiles) {
  sweep({"seal", CrashTarget::kWal, /*nth_write=*/5, /*nth_rmw=*/0,
         /*torn=*/false},
        fileStorage());
}

TEST(CrashRecoveryFileBacked, TornWriteDuringLogAppendOnFiles) {
  sweep({"log-append-torn", CrashTarget::kWal, /*nth_write=*/9,
         /*nth_rmw=*/0, /*torn=*/true},
        fileStorage());
}

TEST(CrashRecoveryFileBacked, CrashDuringCheckpointOnFiles) {
  sweep({"checkpoint", CrashTarget::kManifest, /*nth_write=*/3,
         /*nth_rmw=*/0, /*torn=*/true},
        fileStorage());
}

TEST(CrashRecoveryFileBacked, TornWriteDuringApplyOnFiles) {
  sweep({"apply", CrashTarget::kTable, /*nth_write=*/4, /*nth_rmw=*/6,
         /*torn=*/true},
        fileStorage());
}

TEST(CrashRecoveryFileBacked, TornWriteDuringApplyAfterACheckpointOnFiles) {
  sweep({"apply-after-checkpoint", CrashTarget::kTableAfterCheckpoint,
         /*nth_write=*/4, /*nth_rmw=*/6, /*torn=*/true},
        fileStorage());
}

TEST(CrashRecoveryFileBacked, CleanShutdownRecoversEverythingOnFiles) {
  for (const TableKind kind : tables::kAllTableKindsWithSharded) {
    SCOPED_TRACE(tableKindName(kind));
    const RecoveryResult result =
        runEpisode(kind, /*seed=*/7, {"none", CrashTarget::kNone, 0, 0, false},
                   fileStorage());
    EXPECT_FALSE(result.torn_tail);
  }
}

// The power-loss arm: instead of a FaultPolicy trigger at a counted
// access, the machine dies at the Nth SYSCALL — beneath the EINTR loops,
// beneath the retry ladder — with the FaultyFileOps page-cache model
// dropping every unsynced buffered write (the in-flight pwrite may keep a
// torn byte prefix, mid-word cuts included). Because WAL acks and
// manifest commits gate on sync(), the acknowledged prefix is exactly the
// synced prefix, and recovery from the surviving file bytes must
// reproduce it bit-exactly against the AckLedger oracle.
void runPowerCutEpisode(TableKind kind, std::uint64_t seed) {
  FaultyFileOps shim(seed);  // declared first: outlives every device
  shim.enableWriteBuffering();
  StorageOptions durable = fileStorage();
  durable.file_ops = &shim;

  testing::TestRig rig(8);
  rig.device = std::make_unique<BlockDevice>(rig.device->wordsPerBlock(),
                                             durable);
  const GeneralConfig cfg = sweepConfig(durable);
  const Workload w = makeWorkload(kind, seed);

  auto table = makeTable(kind, rig.context(), cfg);
  DurabilityManager dm(rig.device->wordsPerBlock(), durable);
  dm.begin(*table);

  // Kill the machine a pseudo-random number of syscalls into the ingest,
  // tearing a random byte prefix (bytes % 8 != 0 ⇒ mid-word) of whatever
  // pwrite is in flight.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const std::size_t block_bytes =
      rig.device->wordsPerBlock() * sizeof(extmem::Word);
  shim.powerCutAfter(shim.syscalls() + 8 + rng() % 120,
                     /*torn_bytes=*/rng() % (block_bytes + 1));

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
      ledger.submit(w.ops[i]);
      if ((i + 1) % kCheckpointEvery == 0 && i + 1 < w.ops.size()) {
        try {
          pipe.submitMaintenance([&dm, &table] { dm.checkpoint(*table); });
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
  }
  ledger.seal();
  ASSERT_TRUE(crashed) << "power cut never fired";
  EXPECT_TRUE(shim.powerCutFired());

  const std::uint64_t acked_lsn = dm.wal().durableLsn();
  dm.freezeAll(*table);
  table.reset();

  // The reboot: power comes back (unsynced writes stay lost), devices
  // thaw, and recovery reads what actually survived in the files.
  shim.restorePower();
  rig.device->thaw();

  auto fresh = makeTable(kind, rig.context(), cfg);
  const RecoveryResult result = dm.recover(*fresh);
  EXPECT_GE(result.recovered_lsn, acked_lsn);

  testing::expectMatchesLedger(*fresh, ledger, result.recovered_lsn,
                               w.universe);
  testing::expectServesNewKeys(*fresh, w.unseen);
}

TEST(CrashRecoveryFileBacked, SyscallPowerCutAgainstAckLedgerOracle) {
  for (const TableKind kind :
       {TableKind::kBuffered, TableKind::kChaining, TableKind::kSharded}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
      SCOPED_TRACE(::testing::Message()
                   << tableKindName(kind) << " seed=" << seed
                   << " point=syscall-power-cut");
      runPowerCutEpisode(kind, seed);
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: per-shard recovery primitive — a reset shard rejoins while
// the healthy shards never stop serving.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, ResetShardServesWhileOthersKeepServing) {
  testing::TestRig rig(8);
  tables::ShardedTableConfig scfg;
  scfg.shards = 3;
  scfg.inner = TableKind::kChaining;
  scfg.inner_config.expected_n = 256;
  scfg.threads = 1;
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

  // Shard 0's device goes bad: every access faults until the policy
  // clears, so its first lookup exhausts retries and latches the shard.
  FaultPolicy policy(/*seed=*/3);
  policy.setFailureProbability(1.0);
  table.shardDevice(0).setFaultPolicy(&policy);

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
  table.shardDevice(0).setFaultPolicy(nullptr);
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
