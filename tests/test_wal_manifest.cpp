// Durability primitives in isolation: the block-framed WAL (round-trip,
// records straddling block boundaries, torn-tail truncation, LSN fencing
// across reset, threaded appends) and the manifest superblock pair
// (slot alternation, newest-valid-wins, torn header/payload falling back
// to the older slot, both-corrupt as the unrecoverable signal). The
// end-to-end crash sweeps live in test_crash_recovery.cpp; this file pins
// the layer-by-layer contracts those sweeps build on.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "durability/manifest.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "extmem/block_device.h"
#include "extmem/fault.h"
#include "extmem/faulty_file_ops.h"
#include "obs/flight_recorder.h"
#include "table_test_util.h"
#include "tables/factory.h"
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

}  // namespace
}  // namespace exthash
