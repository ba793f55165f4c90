// FileStorage behind the StorageBackend seam: byte-fidelity vs the memory
// backend, errno→IoError mapping, EINTR/short-transfer resume loops, the
// retry ladder on real(istic) syscall outcomes, fsync accounting, the
// syscall-level power cut, and run stores (one pwrite per arena chunk of
// a flushed or restored run). The shim (FaultyFileOps) scripts the kernel;
// nothing above BlockDevice knows files are involved — which is the seam's
// whole claim. The WalFileTornTail suite at the bottom is the satellite:
// randomized partial-tail truncation (mid-word and mid-block cuts) on a
// file-backed WAL device, with the acked prefix never lost.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "durability/wal.h"
#include "extmem/block_cache.h"
#include "extmem/block_device.h"
#include "extmem/fault.h"
#include "extmem/faulty_file_ops.h"
#include "extmem/file_storage.h"
#include "table_test_util.h"

namespace exthash {
namespace {

using extmem::BlockDevice;
using extmem::BlockId;
using extmem::DeviceCrashed;
using extmem::FaultyFileOps;
using extmem::FileStorage;
using extmem::FileSyscall;
using extmem::IoError;
using extmem::PermanentIoError;
using extmem::StorageOptions;
using extmem::TransientIoError;
using extmem::Word;

constexpr std::size_t kWords = 32;
constexpr std::size_t kBlockBytes = kWords * sizeof(Word);

std::vector<Word> pattern(std::uint64_t tag) {
  std::vector<Word> words(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    words[i] = tag * 0x1000000 + i;
  }
  return words;
}

void fillBlock(BlockDevice& device, BlockId id, std::uint64_t tag) {
  device.withOverwrite(id, [&](std::span<Word> block) {
    const auto p = pattern(tag);
    std::copy(p.begin(), p.end(), block.begin());
  });
}

// ---------------------------------------------------------------------------
// Fidelity: the file backend is indistinguishable from memory from above.
// ---------------------------------------------------------------------------

TEST(FileStorage, MemAndFileDevicesStayByteIdentical) {
  BlockDevice mem(kWords);
  BlockDevice file(kWords, testing::fileStorageOptions());
  ASSERT_FALSE(mem.storagePersistent());
  ASSERT_TRUE(file.storagePersistent());

  // The same mixed schedule on both: extent allocation, blind writes,
  // read-modify-writes, frees with reuse.
  std::mt19937_64 rng(17);
  std::vector<BlockId> mem_ids;
  std::vector<BlockId> file_ids;
  for (BlockDevice* d : {&mem, &file}) {
    auto& ids = d == &mem ? mem_ids : file_ids;
    const BlockId base = d->allocateExtent(8);
    for (std::size_t j = 0; j < 8; ++j) ids.push_back(base + j);
  }
  for (std::size_t step = 0; step < 200; ++step) {
    const std::size_t slot = rng() % mem_ids.size();
    const std::uint64_t tag = rng();
    if (step % 3 == 0) {
      fillBlock(mem, mem_ids[slot], tag);
      fillBlock(file, file_ids[slot], tag);
    } else {
      const std::size_t at = rng() % kWords;
      const auto bump = [&](std::span<Word> block) {
        block[at] ^= tag;
        block[(at + 7) % kWords] += 1;
      };
      mem.withWrite(mem_ids[slot], bump);
      file.withWrite(file_ids[slot], bump);
    }
  }
  for (std::size_t j = 0; j < mem_ids.size(); ++j) {
    EXPECT_EQ(mem.readCopy(mem_ids[j]), file.readCopy(file_ids[j]))
        << "block " << j << " diverged between backends";
  }
  // Identical counted I/O too — the seam never changes the model.
  EXPECT_EQ(mem.stats().cost(), file.stats().cost());
}

TEST(FileStorage, BackendIdentityIsReported) {
  BlockDevice mem(kWords);
  EXPECT_EQ(mem.storageName(), "mem");
  EXPECT_FALSE(mem.storagePersistent());

  BlockDevice file(kWords, testing::fileStorageOptions());
  EXPECT_TRUE(file.storageName() == "file" ||
              file.storageName() == "file+direct");
  const auto* fs = dynamic_cast<const FileStorage*>(&file.storage());
  ASSERT_NE(fs, nullptr);
  EXPECT_FALSE(fs->path().empty());
  EXPECT_TRUE(std::filesystem::exists(fs->path()));
}

TEST(FileStorage, DirectIoRequestReportsWhatEngaged) {
  StorageOptions options = testing::fileStorageOptions();
  options.direct_io = true;
  // Best effort by contract: tmpfs refuses O_DIRECT and the constructor
  // falls back to buffered I/O instead of failing. Either way the device
  // must round-trip; directActive() reports which mode engaged.
  BlockDevice device(kWords, options);
  const auto* fs = dynamic_cast<const FileStorage*>(&device.storage());
  ASSERT_NE(fs, nullptr);
  if (fs->directActive()) {
    EXPECT_EQ(fs->slotBytes() % 4096, 0u);
  } else {
    EXPECT_EQ(fs->slotBytes(), kBlockBytes);
  }
  const BlockId id = device.allocate();
  fillBlock(device, id, 0xD1);
  EXPECT_EQ(device.readCopy(id), pattern(0xD1));

  // A multi-block run store (the image restore) round-trips in either
  // mode; under O_DIRECT it goes slot by slot through the bounce buffer.
  const BlockId run = device.allocateExtent(3);
  for (BlockId b = run; b < run + 3; ++b) fillBlock(device, b, 0xD2 + b);
  BlockDevice::Image image;
  device.captureImage(image);
  for (BlockId b = id; b < run + 3; ++b) fillBlock(device, b, 0xEE);
  device.restoreImage(image);
  EXPECT_EQ(device.readCopy(id), pattern(0xD1));
  for (BlockId b = run; b < run + 3; ++b) {
    EXPECT_EQ(device.readCopy(b), pattern(0xD2 + b)) << "block " << b;
  }
}

TEST(FileStorage, FreshAndReusedBlocksReadZero) {
  BlockDevice device(kWords, testing::fileStorageOptions());
  const BlockId a = device.allocate();
  EXPECT_EQ(device.readCopy(a), std::vector<Word>(kWords, 0));
  fillBlock(device, a, 0xAA);
  device.free(a);
  // The free-pool hit must come back scrubbed even though the file still
  // holds the old bytes in that slot.
  const BlockId b = device.allocate();
  EXPECT_EQ(b, a);
  EXPECT_EQ(device.readCopy(b), std::vector<Word>(kWords, 0));

  // A restore to a smaller image hands the ids past its watermark out
  // fresh again, and they must read zero although the file still held
  // what the run before the restore wrote there.
  BlockDevice::Image image;
  device.captureImage(image);
  const BlockId grown = device.allocateExtent(2);
  fillBlock(device, grown, 0xBB);
  fillBlock(device, grown + 1, 0xBC);
  device.restoreImage(image);
  EXPECT_EQ(device.allocateExtent(2), grown);
  EXPECT_EQ(device.readCopy(grown), std::vector<Word>(kWords, 0));
  EXPECT_EQ(device.readCopy(grown + 1), std::vector<Word>(kWords, 0));
}

// A process that dies holding a device never unlinks its backing file, and
// the pid-based file names recur: a new device on such a path must still
// read its fresh blocks as zeros.
TEST(FileStorage, LeftoverFileAtThePathReadsAsFresh) {
  const std::string path = ::testing::TempDir() + "/leftover.blocks";
  {
    std::ofstream stale(path, std::ios::binary | std::ios::trunc);
    const std::vector<Word> junk(4 * kWords, 0xdead);
    stale.write(reinterpret_cast<const char*>(junk.data()),
                static_cast<std::streamsize>(junk.size() * sizeof(Word)));
  }
  BlockDevice device(kWords,
                     std::make_unique<FileStorage>(kWords, path,
                                                   StorageOptions{}));
  const BlockId id = device.allocate();
  EXPECT_EQ(device.readCopy(id), std::vector<Word>(kWords, 0));
}

// ---------------------------------------------------------------------------
// errno → IoError mapping and the retry ladder.
// ---------------------------------------------------------------------------

TEST(FileStorage, PermanentErrnoSurfacesAsTypedError) {
  FaultyFileOps shim(/*seed=*/1);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  const BlockId id = device.allocate();
  fillBlock(device, id, 0x01);

  shim.failNth(FileSyscall::kPwrite, shim.count(FileSyscall::kPwrite) + 1,
               EIO, /*sticky=*/true);
  try {
    fillBlock(device, id, 0x02);
    FAIL() << "EIO pwrite did not surface";
  } catch (const PermanentIoError& error) {
    EXPECT_FALSE(error.transient());
    EXPECT_EQ(error.posixErrno(), EIO);
    // Satellite (a): errno name + strerror in the message.
    const std::string what = error.what();
    EXPECT_NE(what.find("EIO"), std::string::npos) << what;
    EXPECT_NE(what.find(std::strerror(EIO)), std::string::npos) << what;
    EXPECT_NE(what.find("pwrite"), std::string::npos) << what;
  }
  EXPECT_EQ(device.stats().io_gave_up, 1u);

  // The fault clears and the SAME device carries on.
  shim.clear();
  fillBlock(device, id, 0x03);
  EXPECT_EQ(device.readCopy(id), pattern(0x03));
}

TEST(FileStorage, TransientErrnoIsRetriedToSuccess) {
  FaultyFileOps shim(/*seed=*/2);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  const BlockId id = device.allocate();

  // One EAGAIN, then clean: the device ladder must absorb it invisibly.
  shim.failNth(FileSyscall::kPwrite, shim.count(FileSyscall::kPwrite) + 1,
               EAGAIN);
  fillBlock(device, id, 0x11);
  EXPECT_EQ(device.readCopy(id), pattern(0x11));
  EXPECT_GE(device.stats().io_retries, 1u);
  EXPECT_EQ(device.stats().io_gave_up, 0u);
}

TEST(FileStorage, TransientScheduleExhaustsIntoTransientError) {
  FaultyFileOps shim(/*seed=*/3);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  const BlockId id = device.allocate();

  shim.failNth(FileSyscall::kPwrite, shim.count(FileSyscall::kPwrite) + 1,
               EAGAIN, /*sticky=*/true);
  try {
    fillBlock(device, id, 0x21);
    FAIL() << "sticky EAGAIN did not exhaust the budget";
  } catch (const TransientIoError& error) {
    EXPECT_TRUE(error.transient());
    EXPECT_EQ(error.posixErrno(), EAGAIN);
    EXPECT_EQ(error.attempts(), device.retryPolicy().max_attempts);
  }
  EXPECT_EQ(device.stats().io_retries,
            device.retryPolicy().max_attempts - 1u);
  EXPECT_EQ(device.stats().io_gave_up, 1u);
}

// Growing the file is a backend call like any store: one EAGAIN from
// fallocate is retried, not surfaced (the first allocate grows the file).
TEST(FileStorage, TransientFallocateIsRetriedToSuccess) {
  FaultyFileOps shim(/*seed=*/16);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  shim.failNth(FileSyscall::kFallocate, 1, EAGAIN);
  const BlockId id = device.allocate();
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(device.stats().io_retries, 1u);
  EXPECT_EQ(device.stats().io_gave_up, 0u);
  fillBlock(device, id, 0x61);
  EXPECT_EQ(device.readCopy(id), pattern(0x61));
}

TEST(FileStorage, StickyFallocateFaultExhaustsTheLadderOnNoBlock) {
  FaultyFileOps shim(/*seed=*/17);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  shim.failNth(FileSyscall::kFallocate, 1, EAGAIN, /*sticky=*/true);
  try {
    device.allocate();
    FAIL() << "sticky EAGAIN on fallocate did not exhaust the budget";
  } catch (const TransientIoError& error) {
    EXPECT_EQ(error.posixErrno(), EAGAIN);
    EXPECT_EQ(error.block(), extmem::kInvalidBlock);
    EXPECT_EQ(error.attempts(), device.retryPolicy().max_attempts);
    const std::string what = error.what();
    EXPECT_NE(what.find("on no block"), std::string::npos) << what;
    EXPECT_EQ(what.find(std::to_string(extmem::kInvalidBlock)),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(device.stats().io_retries,
            device.retryPolicy().max_attempts - 1u);
  EXPECT_EQ(device.stats().io_gave_up, 1u);
  // The failed grow claimed no id.
  shim.clear();
  EXPECT_EQ(device.allocate(), 0u);
  EXPECT_EQ(device.blocksInUse(), 1u);
}

// A reused extent is scrubbed as one run before any of its ids leaves the
// free ranges: a failed scrub claims no id, and the next allocation gets
// the same extent back.
TEST(FileStorage, FailedScrubOfAReusedExtentClaimsNoId) {
  FaultyFileOps shim(/*seed=*/18);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  const BlockId first = device.allocateExtent(4);
  for (BlockId id = first; id < first + 4; ++id) fillBlock(device, id, id);
  device.freeExtent(first, 4);

  const std::uint64_t pwrites = shim.count(FileSyscall::kPwrite);
  shim.failNth(FileSyscall::kPwrite, pwrites + 1, EIO);
  EXPECT_THROW(device.allocateExtent(4), PermanentIoError);
  EXPECT_EQ(device.blocksInUse(), 0u);
  for (BlockId id = first; id < first + 4; ++id) {
    EXPECT_FALSE(device.isAllocated(id)) << "block " << id;
  }

  EXPECT_EQ(device.allocateExtent(4), first);
  EXPECT_EQ(device.idSpaceSize(), 4u);
  EXPECT_EQ(shim.count(FileSyscall::kPwrite), pwrites + 2);  // one scrub run
  for (BlockId id = first; id < first + 4; ++id) {
    EXPECT_EQ(device.readCopy(id), std::vector<Word>(kWords, 0))
        << "block " << id;
  }
}

TEST(FileStorage, EintrStormsAbsorbedBelowTheLadder) {
  FaultyFileOps shim(/*seed=*/4);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  const BlockId id = device.allocate();

  // EINTR is handled INSIDE the syscall resume loops — it never becomes
  // an IoError, so the device-level retry counters stay untouched.
  const std::uint64_t w = shim.count(FileSyscall::kPwrite);
  const std::uint64_t r = shim.count(FileSyscall::kPread);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    shim.failNth(FileSyscall::kPwrite, w + k, EINTR);
  }
  for (std::uint64_t k = 1; k <= 2; ++k) {
    shim.failNth(FileSyscall::kPread, r + k, EINTR);
  }
  fillBlock(device, id, 0x31);
  EXPECT_EQ(device.readCopy(id), pattern(0x31));
  EXPECT_GE(shim.faultsInjected(), 5u);
  EXPECT_EQ(device.stats().io_retries, 0u);
  EXPECT_EQ(device.stats().io_gave_up, 0u);
}

TEST(FileStorage, ShortTransfersResume) {
  FaultyFileOps shim(/*seed=*/5);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  const BlockId id = device.allocate();

  // A 8-byte short write and a 24-byte short read: the resume loops must
  // finish the transfer at the right offsets — off-by-one here corrupts.
  shim.shortWriteNth(shim.count(FileSyscall::kPwrite) + 1, 8);
  fillBlock(device, id, 0x41);
  shim.shortReadNth(shim.count(FileSyscall::kPread) + 1, 24);
  EXPECT_EQ(device.readCopy(id), pattern(0x41));
  EXPECT_GE(shim.faultsInjected(), 2u);
  EXPECT_EQ(device.stats().io_gave_up, 0u);
}

// ---------------------------------------------------------------------------
// Barriers.
// ---------------------------------------------------------------------------

TEST(FileStorage, SyncCountsBarriers) {
  FaultyFileOps shim(/*seed=*/6);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  const std::uint64_t before = shim.count(FileSyscall::kFsync);
  EXPECT_EQ(device.stats().fsyncs, 0u);
  device.sync();
  device.sync();
  EXPECT_EQ(device.stats().fsyncs, 2u);
  EXPECT_EQ(shim.count(FileSyscall::kFsync), before + 2);
  // Barriers transfer no blocks: never part of the paper-convention cost.
  EXPECT_EQ(device.stats().cost(), 0u);
}

TEST(FileStorage, FailedSyncIsNeverTransient) {
  FaultyFileOps shim(/*seed=*/7);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  // Even a "retryable" errno on fsync must surface permanent: the kernel
  // may already have dropped the dirty pages, so re-running the barrier
  // cannot certify the data (fsyncgate semantics).
  shim.failNth(FileSyscall::kFsync, shim.count(FileSyscall::kFsync) + 1,
               EAGAIN);
  EXPECT_THROW(device.sync(), PermanentIoError);
  device.sync();  // next barrier is allowed to try again
  EXPECT_EQ(device.stats().fsyncs, 1u);  // the failed one never counted
}

// ---------------------------------------------------------------------------
// The syscall power cut: fsync discipline, for real.
// ---------------------------------------------------------------------------

TEST(FileStorage, PowerCutDropsExactlyTheUnsyncedBytes) {
  FaultyFileOps shim(/*seed=*/8);
  shim.enableWriteBuffering();  // the page-cache model
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  const BlockId synced = device.allocate();
  const BlockId unsynced = device.allocate();

  fillBlock(device, synced, 0x51);
  device.sync();                   // covered by a barrier
  fillBlock(device, unsynced, 0x52);  // sits in the "page cache"

  shim.powerCutAfter(shim.syscalls() + 1);
  EXPECT_THROW(fillBlock(device, unsynced, 0x53), DeviceCrashed);
  EXPECT_TRUE(shim.powerCutFired());
  // Dead means dead: even reads fail until the reboot.
  EXPECT_THROW(device.readCopy(synced), DeviceCrashed);

  // Reboot. The file — not the process's memory — is the source of truth.
  shim.restorePower();
  EXPECT_EQ(device.readCopy(synced), pattern(0x51));
  EXPECT_EQ(device.readCopy(unsynced), std::vector<Word>(kWords, 0))
      << "an unsynced write survived the power cut";
}

TEST(FileStorage, PowerCutMidWriteKeepsOnlyTheTornPrefix) {
  FaultyFileOps shim(/*seed=*/9);
  shim.enableWriteBuffering();
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  const BlockId id = device.allocate();
  fillBlock(device, id, 0x61);
  device.sync();

  // The dying pwrite persists 20 bytes — two and a half words, a mid-word
  // tear — over the old synced contents.
  shim.powerCutAfter(shim.syscalls() + 1, /*torn_bytes=*/20);
  EXPECT_THROW(fillBlock(device, id, 0x62), DeviceCrashed);
  shim.restorePower();

  const std::vector<Word> got = device.readCopy(id);
  const std::vector<Word> old_p = pattern(0x61);
  const std::vector<Word> new_p = pattern(0x62);
  EXPECT_EQ(got[0], new_p[0]);
  EXPECT_EQ(got[1], new_p[1]);
  // Word 2 is half new, half old — all we may assert is "torn".
  for (std::size_t i = 3; i < kWords; ++i) {
    EXPECT_EQ(got[i], old_p[i]) << "word " << i;
  }
}

// ---------------------------------------------------------------------------
// Run stores: a cache flush and an image restore write each run of
// consecutive blocks with one pwrite per 1,024-block arena chunk. The shim
// has nothing armed — it is a syscall counter here.
// ---------------------------------------------------------------------------

// Enough blocks to cross the first arena chunk boundary (id 1024).
constexpr std::size_t kRunBlocks = 1100;

TEST(FileStorage, FlushWritesEachDirtyRunWithOnePwrite) {
  FaultyFileOps shim(/*seed=*/10);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  ASSERT_EQ(device.allocateExtent(kRunBlocks), 0u);
  extmem::MemoryBudget budget(0);
  extmem::BlockCache cache(device, budget, kRunBlocks,
                           extmem::BlockCache::WritePolicy::kWriteBack,
                           extmem::ReplacementKind::kLru);
  const auto skipped = [](BlockId id) { return id == 10 || id == 500; };
  for (BlockId id = 0; id < kRunBlocks; ++id) {
    if (skipped(id)) continue;
    cache.withOverwrite(id, [&](std::span<Word> block) {
      const auto p = pattern(id + 1);
      std::copy(p.begin(), p.end(), block.begin());
    });
  }

  const std::uint64_t pwrites = shim.count(FileSyscall::kPwrite);
  const std::uint64_t writes = device.stats().writes;
  cache.flush();
  // [0,10), [11,500), [501,1024) and [1024,1100): the third run stops at
  // the chunk boundary, so the flush costs 4 syscalls, not 1,098.
  EXPECT_EQ(shim.count(FileSyscall::kPwrite) - pwrites, 4u);
  // The counted model is untouched: one write per dirty block.
  EXPECT_EQ(device.stats().writes - writes, kRunBlocks - 2);
  EXPECT_EQ(cache.writebacks(), kRunBlocks - 2);
  EXPECT_EQ(cache.dirtyBlocks(), 0u);
  for (BlockId id = 0; id < kRunBlocks; ++id) {
    const std::vector<Word> want =
        skipped(id) ? std::vector<Word>(kWords, 0) : pattern(id + 1);
    ASSERT_EQ(device.readCopy(id), want) << "block " << id;
  }
}

TEST(FileStorage, ImageRestoreStoresRunsAndRoundTrips) {
  FaultyFileOps shim(/*seed=*/11);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  ASSERT_EQ(device.allocateExtent(kRunBlocks), 0u);
  for (BlockId id = 0; id < kRunBlocks; ++id) fillBlock(device, id, id + 1);
  BlockDevice::Image image;
  device.captureImage(image);
  for (BlockId id = 0; id < kRunBlocks; ++id) {
    fillBlock(device, id, id + 0x10000);
  }

  const std::uint64_t pwrites = shim.count(FileSyscall::kPwrite);
  device.restoreImage(image);
  // The whole image is one run: one pwrite per arena chunk it touches.
  EXPECT_EQ(shim.count(FileSyscall::kPwrite) - pwrites, 2u);
  for (BlockId id = 0; id < kRunBlocks; ++id) {
    ASSERT_EQ(device.readCopy(id), pattern(id + 1)) << "block " << id;
  }
}

// ---------------------------------------------------------------------------
// Satellite (c): torn-tail property sweep of the WAL on file-backed
// devices — randomized partial-tail truncation, mid-word and mid-block
// cuts, and the durable prefix is never lost.
// ---------------------------------------------------------------------------

using durability::WalLog;
using durability::WalReader;
using durability::WalWriter;
using tables::Op;

TEST(WalFileTornTail, RandomizedPowerCutsNeverLoseAckedRecords) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    FaultyFileOps shim(seed);
    shim.enableWriteBuffering();
    BlockDevice device(kWords, testing::fileStorageOptions(&shim));
    WalWriter wal(device);

    // Arm a cut at a random syscall with a random torn prefix of the
    // in-flight tail rewrite: % 8 != 0 means MID-WORD, and any value in
    // (0, block_bytes) lands mid-block.
    std::mt19937_64 rng(seed * 1000003);
    shim.powerCutAfter(shim.syscalls() + 3 + rng() % 90,
                       /*torn_bytes=*/rng() % (kBlockBytes + 1));

    std::map<std::uint64_t, std::vector<Op>> appended;
    bool crashed = false;
    for (std::uint64_t batch = 0; batch < 400 && !crashed; ++batch) {
      std::vector<Op> ops;
      for (std::uint64_t j = 0; j < 1 + batch % 3; ++j) {
        ops.push_back(Op::insertOp(seed * 100000 + batch * 10 + j,
                                   batch * 10 + j + 1));
      }
      try {
        const std::uint64_t lsn = wal.append(ops);
        appended[lsn] = std::move(ops);
      } catch (const IoError&) {
        crashed = true;
      }
    }
    ASSERT_TRUE(crashed) << "power cut never fired";
    const std::uint64_t acked = wal.durableLsn();

    // Reboot and scan what actually survived in the file.
    shim.restorePower();
    WalReader reader(device);
    const WalLog log = reader.readAll();

    // The scan yields a contiguous prefix of LSNs covering every acked
    // record, each byte-exact vs what append() was given.
    ASSERT_GE(log.records.size() + 0u, acked);
    for (std::size_t i = 0; i < log.records.size(); ++i) {
      EXPECT_EQ(log.records[i].lsn, i + 1);
      const auto it = appended.find(log.records[i].lsn);
      ASSERT_NE(it, appended.end());
      EXPECT_EQ(log.records[i].ops, it->second)
          << "record " << log.records[i].lsn << " corrupted";
    }
    EXPECT_EQ(log.next_lsn, log.records.size() + 1);
  }
}

TEST(WalFileTornTail, DeterministicMidWordTearTruncatesCleanly) {
  // No write buffering here: the torn pwrite's prefix goes straight to
  // the file and the syscall reports EIO — a sector torn mid-transfer,
  // not a power loss. The writer poisons; the reader must truncate.
  FaultyFileOps shim(/*seed=*/42);
  BlockDevice device(kWords, testing::fileStorageOptions(&shim));
  WalWriter wal(device);

  for (std::uint64_t i = 0; i < 10; ++i) {
    wal.append(std::vector<Op>{Op::insertOp(i, i + 1)});
  }
  const std::uint64_t acked = wal.durableLsn();
  ASSERT_EQ(acked, 10u);

  // Tear the NEXT tail rewrite 12 bytes in: one and a half words.
  shim.tornWriteNth(shim.count(FileSyscall::kPwrite) + 1, /*bytes=*/12);
  EXPECT_THROW(wal.append(std::vector<Op>{Op::insertOp(99, 100)}),
               IoError);
  EXPECT_EQ(wal.durableLsn(), acked);  // the torn record was never acked

  const WalLog log = WalReader(device).readAll();
  ASSERT_GE(log.records.size() + 0u, acked);
  for (std::uint64_t i = 0; i < acked; ++i) {
    EXPECT_EQ(log.records[i].lsn, i + 1);
    EXPECT_EQ(log.records[i].ops,
              (std::vector<Op>{Op::insertOp(i, i + 1)}));
  }
}

}  // namespace
}  // namespace exthash
