// Durability primitives in isolation: the block-framed WAL (round-trip,
// records straddling block boundaries, torn-tail truncation, LSN fencing
// across reset, threaded appends, a sequence gap or a stale LSN ending
// the stream) and the manifest superblock pair (slot alternation,
// newest-valid-wins, a torn or damaged header and a corrupt payload
// falling back to the older slot, both-corrupt as the unrecoverable
// signal), recovery dropping frames cached before its image restore, and
// the sharded checkpoint (a latched shard refuses it; the fan-out capture
// equals a serial one). The end-to-end crash sweeps live in
// test_crash_recovery.cpp; this file pins the layer-by-layer contracts
// those sweeps build on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "durability/manifest.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "extmem/block_cache.h"
#include "extmem/block_device.h"
#include "extmem/fault.h"
#include "extmem/faulty_file_ops.h"
#include "obs/flight_recorder.h"
#include "table_test_util.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"
#include "util/assert.h"

namespace exthash {
namespace {

using durability::DurabilityManager;
using durability::ManifestPair;
using durability::RecoveryError;
using durability::WalLog;
using durability::WalReader;
using durability::WalWriter;
using extmem::BlockDevice;
using extmem::FaultyFileOps;
using extmem::FileSyscall;
using extmem::Word;
using tables::Op;

std::vector<Op> makeOps(std::size_t n, std::uint64_t salt) {
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops.push_back(Op::insertOp(salt * 1000 + i, salt * 10000 + 2 * i + 1));
  }
  return ops;
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

TEST(Wal, RoundTripsRecordsWithContiguousLsns) {
  BlockDevice device(16, testing::testStorageOptions());
  WalWriter wal(device);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(wal.append(makeOps(3, i)), i);
    EXPECT_EQ(wal.durableLsn(), i);  // append blocks until durable
  }
  EXPECT_EQ(wal.recordsAppended(), 5u);

  WalReader reader(device);
  const WalLog log = reader.readAll();
  EXPECT_FALSE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 5u);
  EXPECT_EQ(log.next_lsn, 6u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(log.records[i - 1].lsn, i);
    EXPECT_EQ(log.records[i - 1].ops, makeOps(3, i));
  }
}

TEST(Wal, EmptyLogReadsAsCleanEnd) {
  BlockDevice device(16, testing::testStorageOptions());
  WalReader reader(device);
  const WalLog log = reader.readAll();
  EXPECT_TRUE(log.records.empty());
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.next_lsn, 1u);

  // A formatted-but-record-free log (writer constructed, nothing appended)
  // reads the same way.
  WalWriter wal(device);
  EXPECT_TRUE(WalReader(device).readAll().records.empty());
}

TEST(Wal, RecordStraddlingBlocksRoundTrips) {
  // wpb = 8 leaves 7 payload words per block; a 3-op record is
  // 4 + 3*3 = 13 words, so every record straddles a block boundary.
  BlockDevice device(8, testing::testStorageOptions());
  WalWriter wal(device);
  wal.append(makeOps(3, 1));
  wal.append(makeOps(3, 2));
  EXPECT_GT(wal.blocksInLog(), 2u);

  const WalLog log = WalReader(device).readAll();
  EXPECT_FALSE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].ops, makeOps(3, 1));
  EXPECT_EQ(log.records[1].ops, makeOps(3, 2));
}

TEST(Wal, TornTailTruncatesToTheDurablePrefix) {
  // Cut the power at the second tail-block write with only 3 of its words
  // persisting: the block keeps a valid frame header but the record
  // inside it tears, so the reader must keep record 1 and truncate the
  // tail.
  FaultyFileOps shim(1);
  BlockDevice device(8, testing::fileStorageOptions(&shim));
  WalWriter wal(device);
  wal.append(makeOps(1, 1));  // 7 words: exactly one block's payload

  shim.powerCutAtPwrite(shim.count(FileSyscall::kPwrite) + 1,
                        /*torn_bytes=*/3 * sizeof(Word));
  EXPECT_THROW(wal.append(makeOps(1, 2)), extmem::DeviceCrashed);
  EXPECT_TRUE(shim.powerCutFired());
  EXPECT_TRUE(device.frozen());

  // The writer is poisoned until reset() — the record was never durable.
  EXPECT_EQ(wal.durableLsn(), 1u);
  EXPECT_THROW(wal.append(makeOps(1, 3)), extmem::DeviceCrashed);

  shim.restorePower();
  device.thaw();
  const WalLog log = WalReader(device).readAll();
  EXPECT_TRUE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].lsn, 1u);
  EXPECT_EQ(log.records[0].ops, makeOps(1, 1));
}

TEST(Wal, TornWriteInsideAStraddlingRecordKeepsThePrefix) {
  // Record 2 spans blocks; crash the write of its SECOND block so the
  // record's head lands durable but its tail does not — the checksum must
  // reject the half-record and the scan must stop there.
  FaultyFileOps shim(2);
  BlockDevice device(8, testing::fileStorageOptions(&shim));
  WalWriter wal(device);
  wal.append(makeOps(1, 1));  // fills block 1 exactly

  // A 3-op record rewrites the new tail block (write 1) and overflows
  // into another (write 2); tear that second write mid-block.
  shim.powerCutAtPwrite(shim.count(FileSyscall::kPwrite) + 2,
                        /*torn_bytes=*/4 * sizeof(Word));
  EXPECT_THROW(wal.append(makeOps(3, 2)), extmem::DeviceCrashed);

  shim.restorePower();
  device.thaw();
  const WalLog log = WalReader(device).readAll();
  EXPECT_TRUE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].ops, makeOps(1, 1));
}

TEST(Wal, ResetContinuesTheLsnSequenceAndRefusesRewinds) {
  BlockDevice device(16, testing::testStorageOptions());
  WalWriter wal(device);
  wal.append(makeOps(2, 1));
  wal.append(makeOps(2, 2));
  ASSERT_EQ(wal.durableLsn(), 2u);

  // Rewinding to (or below) an acknowledged LSN would reuse it — refused.
  EXPECT_THROW(wal.reset(2), CheckFailure);
  EXPECT_THROW(wal.reset(1), CheckFailure);

  wal.reset(3);
  EXPECT_EQ(device.blocksInUse(), 0u);  // log truncated whole
  EXPECT_EQ(wal.durableLsn(), 2u);      // acknowledged history stands
  EXPECT_EQ(wal.append(makeOps(2, 3)), 3u);

  // Block sequence numbers keep counting across the reset, so the reader
  // orders the new epoch's blocks without ambiguity.
  const WalLog log = WalReader(device).readAll();
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].lsn, 3u);
}

TEST(Wal, ThreadedAppendsGroupCommitWithoutLosingRecords) {
  BlockDevice device(64, testing::testStorageOptions());
  WalWriter wal(device);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 25;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t lsn = wal.append(makeOps(2, t * 100 + i));
        // append returns only once the record is durable.
        EXPECT_LE(lsn, wal.durableLsn());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wal.durableLsn(), kThreads * kPerThread);
  const WalLog log = WalReader(device).readAll();
  EXPECT_FALSE(log.torn_tail);
  ASSERT_EQ(log.records.size(), kThreads * kPerThread);
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    EXPECT_EQ(log.records[i].lsn, i + 1);  // contiguous, no gaps
  }
  // Every appended record arrived exactly once (order across threads is
  // whichever thread took the writer's mutex first).
  std::vector<std::uint64_t> salts;
  for (const auto& record : log.records) {
    ASSERT_EQ(record.ops.size(), 2u);
    salts.push_back(record.ops[0].key / 1000);
  }
  std::sort(salts.begin(), salts.end());
  EXPECT_EQ(std::adjacent_find(salts.begin(), salts.end()), salts.end());
}

// The reader's two stream guards, on logs built by hand: wpb = 8 leaves 7
// payload words per block and a one-op record is 4 + 3 = 7 words, so LSN n
// fills the block whose header carries sequence n, exactly.
Word walBlockHeader(std::uint64_t seq) {
  return (durability::kWalBlockMagic << 48) | seq;
}

void appendTwoOneBlockRecords(BlockDevice& device, WalWriter& wal) {
  wal.append(makeOps(1, 1));
  wal.append(makeOps(1, 2));
  ASSERT_EQ(wal.blocksInLog(), 2u);
  ASSERT_EQ(device.withRead(1, [](std::span<const Word> w) { return w[0]; }),
            walBlockHeader(2));
}

TEST(Wal, SequenceGapEndsTheStream) {
  BlockDevice device(8, testing::testStorageOptions());
  WalWriter wal(device);
  ASSERT_NO_FATAL_FAILURE(appendTwoOneBlockRecords(device, wal));

  // Relabel the second block as sequence 3: block 2 of the stream is
  // missing, so LSN 2's intact record lies past the gap.
  device.withWrite(1, [](std::span<Word> w) { w[0] = walBlockHeader(3); });

  const WalLog log = WalReader(device).readAll();
  EXPECT_TRUE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].lsn, 1u);
}

TEST(Wal, StaleLsnEndsTheStream) {
  BlockDevice device(8, testing::testStorageOptions());
  WalWriter wal(device);
  ASSERT_NO_FATAL_FAILURE(appendTwoOneBlockRecords(device, wal));

  // In LSN 2's place, plant a well-formed record with a valid checksum
  // that claims LSN 7: only the contiguity test can reject it.
  const Op op = makeOps(1, 2)[0];
  const std::vector<Word> payload = {static_cast<Word>(op.kind), op.key,
                                     op.value};
  device.withWrite(1, [&](std::span<Word> w) {
    w[1] = durability::kWalRecordMagic;
    w[2] = 7;  // lsn
    w[3] = 1;  // op count
    w[4] = durability::walChecksum(7, payload);
    std::copy(payload.begin(), payload.end(), w.begin() + 5);
  });

  const WalLog log = WalReader(device).readAll();
  EXPECT_TRUE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].lsn, 1u);
}

// ---------------------------------------------------------------------------
// Manifest pair
// ---------------------------------------------------------------------------

std::vector<Word> metaPayload(std::size_t n, Word salt) {
  std::vector<Word> meta(n);
  for (std::size_t i = 0; i < n; ++i) meta[i] = salt ^ (i * 0x9E37ULL);
  return meta;
}

TEST(Manifest, FreshDeviceHasNoValidSlot) {
  BlockDevice device(8, testing::testStorageOptions());
  ManifestPair manifest(device);
  EXPECT_FALSE(manifest.readNewest().has_value());
}

TEST(Manifest, AlternatingWritesAlwaysReadNewest) {
  BlockDevice device(8, testing::testStorageOptions());
  ManifestPair manifest(device);
  for (std::uint64_t v = 1; v <= 5; ++v) {
    EXPECT_EQ(manifest.write(v * 10, metaPayload(20, v)), v);
    const auto data = manifest.readNewest();
    ASSERT_TRUE(data.has_value());
    EXPECT_EQ(data->version, v);
    EXPECT_EQ(data->durable_lsn, v * 10);
    EXPECT_EQ(data->meta, metaPayload(20, v));
  }
}

TEST(Manifest, BothSlotsValidPicksTheHigherVersion) {
  BlockDevice device(8, testing::testStorageOptions());
  ManifestPair manifest(device);
  manifest.write(1, metaPayload(5, 1));  // slot 1
  manifest.write(2, metaPayload(5, 2));  // slot 0; both slots now valid
  const auto data = manifest.readNewest();
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->version, 2u);

  // A re-opened pair (the recovery path) resynchronizes and keeps
  // committing past the highest version on the device.
  ManifestPair reopened(device);
  ASSERT_TRUE(reopened.readNewest().has_value());
  EXPECT_EQ(reopened.nextVersion(), 3u);
  EXPECT_EQ(reopened.write(30, metaPayload(5, 3)), 3u);
}

TEST(Manifest, TornHeaderFallsBackToTheOlderSlot) {
  BlockDevice device(8, testing::testStorageOptions());
  ManifestPair manifest(device);
  manifest.write(10, metaPayload(12, 1));  // v1 → slot 1
  manifest.write(20, metaPayload(12, 2));  // v2 → slot 0

  // Tear v2's header (block 0): keep a prefix, zero the rest — exactly
  // what a torn superblock overwrite leaves behind.
  device.withOverwrite(0, [&](std::span<Word> w) {
    const std::vector<Word> old(w.begin(), w.end());
    std::fill(w.begin(), w.end(), Word{0});
    for (std::size_t i = 0; i < 3; ++i) w[i] = old[i];
  });

  const auto data = ManifestPair(device).readNewest();
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->version, 1u);
  EXPECT_EQ(data->durable_lsn, 10u);
  EXPECT_EQ(data->meta, metaPayload(12, 1));
}

TEST(Manifest, CorruptPayloadFallsBackToTheOlderSlot) {
  BlockDevice device(8, testing::testStorageOptions());
  ManifestPair manifest(device);
  manifest.write(10, metaPayload(12, 1));
  manifest.write(20, metaPayload(12, 2));

  // Flip one payload word of v2: the header survives but the payload
  // checksum must reject the slot.
  bool flipped = false;
  for (extmem::BlockId id = 2; !flipped && id < device.idSpaceSize(); ++id) {
    if (!device.isAllocated(id)) continue;
    device.withRead(id, [&](std::span<const Word> w) {
      // v2's payload words carry salt 2; find one of its blocks.
      flipped = std::find(w.begin(), w.end(), Word{2}) != w.end();
    });
    if (flipped) {
      device.withWrite(id, [](std::span<Word> w) { w[0] ^= 0xFFULL; });
    }
  }
  ASSERT_TRUE(flipped);

  const auto data = ManifestPair(device).readNewest();
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->version, 1u);
}

// The payload checksum is seeded by the version, not the LSN, so damage
// to the header's LSN word alone passes every check but the header
// checksum; trusting it would fence replay at the wrong record.
TEST(Manifest, DamagedHeaderLsnFallsBackToTheOlderSlot) {
  BlockDevice device(8, testing::testStorageOptions());
  ManifestPair manifest(device);
  manifest.write(10, metaPayload(12, 1));  // v1 → slot 1
  manifest.write(20, metaPayload(12, 2));  // v2 → slot 0

  // Header word 2 holds the durable LSN.
  device.withWrite(0, [](std::span<Word> w) { w[2] ^= 0xFFULL; });

  const auto data = ManifestPair(device).readNewest();
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->version, 1u);
  EXPECT_EQ(data->durable_lsn, 10u);
}

TEST(Manifest, BothSlotsCorruptIsUnrecoverable) {
  BlockDevice device(8, testing::testStorageOptions());
  ManifestPair manifest(device);
  manifest.write(10, metaPayload(6, 1));
  manifest.write(20, metaPayload(6, 2));
  for (extmem::BlockId slot = 0; slot < 2; ++slot) {
    device.withWrite(slot, [](std::span<Word> w) {
      std::fill(w.begin(), w.end(), Word{0xBAADULL});
    });
  }
  EXPECT_FALSE(ManifestPair(device).readNewest().has_value());
}

// ---------------------------------------------------------------------------
// DurabilityManager edges (the crash sweeps live in test_crash_recovery)
// ---------------------------------------------------------------------------

TEST(Durability, CheckpointFencesReplayToZeroRecords) {
  testing::TestRig rig(8);
  tables::GeneralConfig cfg;
  cfg.expected_n = 64;
  auto table = makeTable(tables::TableKind::kChaining, rig.context(), cfg);
  DurabilityManager dm(rig.device->wordsPerBlock(), testing::testStorageOptions());
  dm.begin(*table);

  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::vector<Op> window = {Op::insertOp(i, 2 * i + 1)};
    dm.wal().append(window);
    table->applyBatch(window);
  }
  dm.checkpoint(*table);  // durable LSN 40 — the whole log is fenced

  dm.freezeAll(*table);  // power loss at a fully checkpointed state
  table.reset();
  rig.device->thaw();
  auto fresh = makeTable(tables::TableKind::kChaining, rig.context(), cfg);
  const auto result = dm.recover(*fresh);
  EXPECT_EQ(result.checkpoint_lsn, 40u);
  EXPECT_EQ(result.recovered_lsn, 40u);
  EXPECT_EQ(result.replayed_records, 0u);  // everything fenced off
  EXPECT_FALSE(result.torn_tail);
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(fresh->lookup(i), std::optional<std::uint64_t>(2 * i + 1));
  }
}

// recover() restores the images UNDER the fresh table, so every frame its
// cache took in before that is stale. Here the fresh table sits on a
// fresh device behind a write-through cache that lookups warmed before
// recover(). (A fresh table on the crashed device would not do: the
// frozen teardown freed nothing, so its extent lands on other ids and
// its warmed frames are never hit.)
TEST(Durability, RecoverDropsFramesCachedBeforeTheRestore) {
  testing::TestRig rig(8);
  tables::GeneralConfig cfg;
  cfg.expected_n = 64;
  auto table = makeTable(tables::TableKind::kChaining, rig.context(), cfg);
  DurabilityManager dm(rig.device->wordsPerBlock(),
                       testing::testStorageOptions());
  dm.begin(*table);
  for (std::uint64_t i = 0; i < 48; ++i) {
    const std::vector<Op> window = {Op::insertOp(i, 2 * i + 1)};
    dm.wal().append(window);
    table->applyBatch(window);
    if (i == 31) dm.checkpoint(*table);  // the last 16 windows replay
  }
  dm.freezeAll(*table);
  table.reset();

  rig.useStorage(testing::testStorageOptions());
  extmem::BlockCache cache(*rig.device, *rig.memory, /*capacity_blocks=*/64);
  auto fresh = makeTable(tables::TableKind::kChaining, rig.context(), cfg);
  fresh->attachCache(&cache);
  for (std::uint64_t i = 0; i < 48; ++i) {
    EXPECT_EQ(fresh->lookup(i), std::nullopt);
  }

  const auto result = dm.recover(*fresh);
  EXPECT_EQ(result.checkpoint_lsn, 32u);
  EXPECT_EQ(result.replayed_records, 16u);
  for (std::uint64_t i = 0; i < 48; ++i) {
    EXPECT_EQ(fresh->lookup(i), std::optional<std::uint64_t>(2 * i + 1))
        << "key " << i;
  }
}

TEST(Durability, BothManifestsCorruptRaisesAndDumpsFlightRecorder) {
  testing::TestRig rig(8);
  tables::GeneralConfig cfg;
  cfg.expected_n = 64;
  auto table = makeTable(tables::TableKind::kChaining, rig.context(), cfg);
  DurabilityManager dm(rig.device->wordsPerBlock(), testing::testStorageOptions());
  dm.begin(*table);
  dm.checkpoint(*table);

  for (extmem::BlockId slot = 0; slot < 2; ++slot) {
    dm.manifestDevice().withWrite(slot, [](std::span<Word> w) {
      std::fill(w.begin(), w.end(), Word{0xBAADULL});
    });
  }
  dm.freezeAll(*table);
  table.reset();
  rig.device->thaw();
  auto fresh = makeTable(tables::TableKind::kChaining, rig.context(), cfg);

  // The fatal path dumps the flight recorder when one is armed.
  std::ostringstream sink;
  obs::FlightRecorderOptions opts;
  opts.sink = &sink;
  obs::FlightRecorder::arm(opts);
  const std::uint64_t dumps_before = obs::FlightRecorder::dumpCount();
  EXPECT_THROW(dm.recover(*fresh), RecoveryError);
  EXPECT_EQ(obs::FlightRecorder::dumpCount(), dumps_before + 1);
  obs::FlightRecorder::disarm();
  EXPECT_NE(sink.str().find("no valid manifest slot"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sharded checkpoints: the flush and the capture run on the shard fan-out
// ---------------------------------------------------------------------------

/// A 4-shard chaining table on files, whose write-back caches hold every
/// block (nothing evicts, so nothing reaches a shard file before a flush).
tables::GeneralConfig shardedOnFiles(extmem::FileOps* ops) {
  tables::GeneralConfig cfg;
  cfg.expected_n = 1024;
  cfg.target_load = 0.5;
  cfg.shards = 4;
  cfg.sharded_inner = tables::TableKind::kChaining;
  cfg.shard_threads = 2;
  cfg.shard_cache_frames = 1024;
  cfg.shard_cache_write_back = true;
  cfg.shard_storage = testing::fileStorageOptions(ops);
  return cfg;
}

std::vector<Op> distinctInserts(std::size_t n) {
  std::vector<Op> ops;
  const auto keys = testing::distinctKeys(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops.push_back(Op::insertOp(keys[i], 2 * i + 1));
  }
  return ops;
}

// A latched shard's quarantined frames never reached its device. A
// checkpoint taken anyway would image the shard without them and stamp an
// LSN that fences their WAL record off, so recovery would lose them.
TEST(Durability, LatchedShardRefusesTheCheckpoint) {
  FaultyFileOps shim(/*seed=*/37);  // outlives the table's files
  testing::TestRig rig(8);
  const tables::GeneralConfig cfg = shardedOnFiles(&shim);
  auto table = makeTable(tables::TableKind::kSharded, rig.context(), cfg);
  auto& sharded = dynamic_cast<tables::ShardedTable&>(*table);
  DurabilityManager dm(rig.device->wordsPerBlock(),
                       testing::testStorageOptions());
  dm.begin(*table);

  const std::vector<Op> ops = distinctInserts(512);
  const std::uint64_t lsn = dm.wal().append(ops);
  table->applyBatch(ops);

  // Shard 0's file refuses every write from now on: the first checkpoint's
  // flush latches it, and the second's flush skips it.
  const int shard0 = testing::fileOf(sharded.shardDevice(0));
  shim.failNth(FileSyscall::kPwrite,
               shim.count(FileSyscall::kPwrite, shard0) + 1, EIO,
               /*sticky=*/true, shard0);
  const std::uint64_t taken = dm.checkpointsTaken();
  EXPECT_THROW(dm.checkpoint(*table), extmem::PermanentIoError);
  EXPECT_TRUE(sharded.shardFailed(0));
  EXPECT_THROW(dm.checkpoint(*table), extmem::PermanentIoError);
  EXPECT_EQ(dm.checkpointsTaken(), taken);

  // Power loss; the reboot finds the disk healthy again.
  shim.clear();
  dm.freezeAll(*table);
  table.reset();
  rig.device->thaw();
  auto fresh = makeTable(tables::TableKind::kSharded, rig.context(), cfg);
  const auto result = dm.recover(*fresh);
  EXPECT_EQ(result.checkpoint_lsn, 0u);
  EXPECT_EQ(result.replayed_records, 1u);
  EXPECT_EQ(result.recovered_lsn, lsn);
  for (const Op& op : ops) {
    EXPECT_EQ(fresh->lookup(op.key), std::optional<std::uint64_t>(op.value))
        << "key " << op.key;
  }
}

// captureImages images one shard per fan-out slice. The images equal a
// serial capture of each shard device, also when a later capture reuses
// the vector after the table grew.
TEST(Durability, ShardedCaptureImagesMatchesASerialCapture) {
  testing::TestRig rig(8);
  auto table = makeTable(tables::TableKind::kSharded, rig.context(),
                         shardedOnFiles(nullptr));
  auto& sharded = dynamic_cast<tables::ShardedTable&>(*table);
  const std::vector<Op> ops = distinctInserts(2048);
  std::vector<BlockDevice::Image> images;
  std::uint64_t captured_blocks = 0;  // over all shards
  for (const std::size_t n : {512u, 2048u}) {
    table->applyBatch(std::span<const Op>(ops).first(n));
    table->flushCache();
    table->captureImages(images);
    ASSERT_EQ(images.size(), sharded.shardCount());
    std::uint64_t blocks = 0;
    for (std::size_t s = 0; s < sharded.shardCount(); ++s) {
      BlockDevice::Image serial;
      sharded.shardDevice(s).captureImage(serial);
      EXPECT_TRUE(images[s] == serial) << "shard " << s << " after " << n;
      blocks += images[s].next_id;
    }
    EXPECT_GT(blocks, captured_blocks) << "the table did not grow";
    captured_blocks = blocks;
  }
}

}  // namespace
}  // namespace exthash
