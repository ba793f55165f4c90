// Fault injection + end-to-end I/O error resilience.
//
// Layer by layer: the FaultyFileOps shim's determinism and trigger
// semantics (file scoping, bad byte ranges, closed files) and the typed
// IoError taxonomy; the device-level retry loop (transient absorbed, budgets
// exhausted, permanent escaping immediately) with its IoStats counters;
// the device's fault seam on files (metadata paths add no cost; what a
// power cut in a read, an rmw or an overwrite leaves); BlockCache
// write-back quarantine (dirty data survives a failed eviction and lands
// after the fault clears; a failed flush run quarantines only the frame
// its error names and writes the rest block by block); IngestPipeline
// fail-stop + reset(); ShardedTable per-shard fault isolation, on its
// batches and on its fan-out flush; the flight recorder; and the capstone
// chaos sweep — every table kind plus the sharded façade, in
// pipelined+cached+arbitrated mode on files, must produce bit-exact lookup
// digests under seeded transient-fault schedules vs the fault-free run and
// answer exactly the AckLedger's fold of the op stream, with the retry
// counters proving faults actually fired.
//
// Every fault is scripted at the syscall layer, so the devices under test
// are file-backed, and the shim is declared BEFORE the devices, caches
// and tables over it: destructors flush and free through the files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "durability/ledger.h"
#include "durability/wal.h"
#include "extmem/block_cache.h"
#include "extmem/block_device.h"
#include "extmem/fault.h"
#include "extmem/faulty_file_ops.h"
#include "extmem/memory_arbiter.h"
#include "extmem/retry.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "pipeline/ingest_pipeline.h"
#include "table_test_util.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"
#include "util/assert.h"
#include "util/random.h"

namespace exthash {
namespace {

using extmem::BlockCache;
using extmem::BlockDevice;
using extmem::BlockId;
using extmem::DeviceCrashed;
using extmem::FaultyFileOps;
using extmem::FileSyscall;
using extmem::IoError;
using extmem::IoOpKind;
using extmem::MemoryArbiter;
using extmem::PermanentIoError;
using extmem::RetryPolicy;
using extmem::StorageOptions;
using extmem::TransientIoError;
using extmem::Word;
using pipeline::IngestPipeline;
using tables::ExternalHashTable;
using tables::GeneralConfig;
using tables::Op;
using tables::ShardedTable;
using tables::TableKind;
using testing::distinctKeys;
using testing::fileOf;
using testing::fileStorageOptions;
using testing::TestRig;

// ---------------------------------------------------------------------------
// FaultyFileOps: determinism and trigger semantics, over a kernel stand-in
// whose every call succeeds in full.
// ---------------------------------------------------------------------------

class NullFileOps final : public extmem::FileOps {
 public:
  ssize_t pread(int, void*, std::size_t count, off_t) override {
    return static_cast<ssize_t>(count);
  }
  ssize_t pwrite(int, const void*, std::size_t count, off_t) override {
    return static_cast<ssize_t>(count);
  }
  int fsync(int) override { return 0; }
  int fallocate(int, off_t, off_t) override { return 0; }
};

/// Whether each of `calls` pwrites of 8 bytes to `fd` failed.
std::vector<bool> pwriteOutcomes(FaultyFileOps& shim, int fd, int calls) {
  char buf[8] = {};
  std::vector<bool> failed;
  for (int i = 0; i < calls; ++i) {
    failed.push_back(shim.pwrite(fd, buf, sizeof buf, 0) < 0);
  }
  return failed;
}

TEST(FaultyFileOps, SameSeedReplaysTheSameSchedule) {
  NullFileOps kernel;
  const auto run = [&](std::uint64_t seed) {
    FaultyFileOps shim(seed, &kernel);
    shim.setErrnoProbability(FileSyscall::kPwrite, 0.25, EAGAIN);
    return pwriteOutcomes(shim, 3, 200);
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));  // different seed, different schedule
}

TEST(FaultyFileOps, OneShotTriggerFiresExactlyOnce) {
  NullFileOps kernel;
  FaultyFileOps shim(7, &kernel);
  shim.failNth(FileSyscall::kPwrite, 2, EIO);
  std::vector<bool> expected(12, false);
  expected[1] = true;
  EXPECT_EQ(pwriteOutcomes(shim, 3, 12), expected);
  EXPECT_EQ(shim.faultsInjected(), 1u);
}

TEST(FaultyFileOps, StickyTriggerFiresUntilCleared) {
  NullFileOps kernel;
  FaultyFileOps shim(7, &kernel);
  shim.failNth(FileSyscall::kPwrite, 2, EIO, /*sticky=*/true);
  EXPECT_EQ(pwriteOutcomes(shim, 3, 3),
            (std::vector<bool>{false, true, true}));
  shim.clear();
  EXPECT_EQ(pwriteOutcomes(shim, 3, 2), (std::vector<bool>{false, false}));
  EXPECT_EQ(shim.faultsInjected(), 2u);  // counters survive clear()
  EXPECT_EQ(shim.count(FileSyscall::kPwrite), 5u);
}

// A script scoped to one file neither fires on nor counts the syscalls of
// another file sharing the shim, and a scoped probability draws the same
// schedule however other files' syscalls interleave with its own.
TEST(FaultyFileOps, FileScopedTriggerIgnoresOtherFiles) {
  NullFileOps kernel;
  FaultyFileOps shim(9, &kernel);
  constexpr int kMine = 3;
  constexpr int kOther = 4;
  shim.failNth(FileSyscall::kPwrite, 2, EIO, /*sticky=*/false, kMine);
  EXPECT_EQ(pwriteOutcomes(shim, kOther, 5), std::vector<bool>(5, false));
  EXPECT_EQ(pwriteOutcomes(shim, kMine, 3),
            (std::vector<bool>{false, true, false}));
  EXPECT_EQ(shim.count(FileSyscall::kPwrite, kMine), 3u);
  EXPECT_EQ(shim.count(FileSyscall::kPwrite, kOther), 5u);
  EXPECT_EQ(shim.count(FileSyscall::kPwrite), 8u);

  const auto scoped = [&](bool interleave) {
    FaultyFileOps probe(11, &kernel);
    probe.setErrnoProbability(FileSyscall::kPwrite, 0.25, EAGAIN, kMine);
    std::vector<bool> failed;
    for (int i = 0; i < 100; ++i) {
      if (interleave && i % 3 == 0) {
        EXPECT_EQ(pwriteOutcomes(probe, kOther, 2),
                  std::vector<bool>(2, false));
      }
      failed.push_back(pwriteOutcomes(probe, kMine, 1)[0]);
    }
    return failed;
  };
  EXPECT_EQ(scoped(false), scoped(true));
}

// A bad range fails the transfers that start in it and cuts short the
// ones that reach it, on its own file only, until clear().
TEST(FaultyFileOps, BadRangeFailsInsideAndCutsShortBelow) {
  NullFileOps kernel;
  FaultyFileOps shim(13, &kernel);
  shim.failRange(3, /*offset=*/100, /*length=*/50, EIO);
  char buf[64] = {};
  EXPECT_EQ(shim.pwrite(3, buf, 64, 64), 36);  // stops at byte 100
  errno = 0;
  EXPECT_EQ(shim.pwrite(3, buf, 64, 100), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(shim.pread(3, buf, 64, 149), -1);
  EXPECT_EQ(shim.pread(3, buf, 64, 150), 64);  // past the range
  EXPECT_EQ(shim.pwrite(4, buf, 64, 100), 64);  // another file
  EXPECT_EQ(shim.faultsInjected(), 3u);
  shim.clear();
  EXPECT_EQ(shim.pwrite(3, buf, 64, 100), 64);
}

// close(fd) ends a file in the shim: a file that reuses the fd reads its
// own bytes, counts its own syscalls and is aimed at by no script left
// over from the closed one.
TEST(FaultyFileOps, ReusedFdStartsClean) {
  constexpr std::size_t kWords = 8;
  FaultyFileOps shim(/*seed=*/14);
  shim.enableWriteBuffering();
  int fd = -1;
  {
    BlockDevice a(kWords, fileStorageOptions(&shim));
    a.writeCopy(a.allocate(), std::vector<Word>(kWords, 0xdead));  // unsynced
    fd = fileOf(a);
    shim.failNth(FileSyscall::kPread, 1, EIO, /*sticky=*/true, fd);
    shim.failRange(fd, 0, 1 << 20, EIO);
  }
  BlockDevice b(kWords, fileStorageOptions(&shim));
  ASSERT_EQ(fileOf(b), fd) << "B got a fresh fd: nothing is reused";
  EXPECT_EQ(shim.count(FileSyscall::kPwrite, fd), 0u);
  const BlockId id = b.allocate();
  ASSERT_EQ(id, 0u);
  EXPECT_EQ(b.readCopy(id), std::vector<Word>(kWords, 0));
  EXPECT_EQ(shim.faultsInjected(), 0u);
}

// The kernel writes a closed file's dirty pages back: closing without a
// sync loses nothing unless the power fails first.
TEST(FaultyFileOps, CloseWritesBackUnsyncedWrites) {
  constexpr std::size_t kWords = 8;
  const std::string path = ::testing::TempDir() + "/close_writes_back.blocks";
  FaultyFileOps shim(/*seed=*/15);
  shim.enableWriteBuffering();
  {
    BlockDevice device(kWords, std::make_unique<extmem::FileStorage>(
                                   kWords, path,
                                   extmem::StorageOptions{
                                       .unlink_on_close = false,
                                       .file_ops = &shim}));
    device.writeCopy(device.allocate(), std::vector<Word>(kWords, 0xdead));
  }
  std::vector<Word> on_disk(kWords);
  std::ifstream file(path, std::ios::binary);
  file.read(reinterpret_cast<char*>(on_disk.data()),
            static_cast<std::streamsize>(kWords * sizeof(Word)));
  EXPECT_EQ(on_disk, std::vector<Word>(kWords, 0xdead));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Device-level retry: transient absorbed, budget exhausted, permanent
// escaping immediately — with the IoStats counters telling the story.
// ---------------------------------------------------------------------------

TEST(DeviceRetry, ErrorCarriesOpBlockAndAttempt) {
  FaultyFileOps shim(7);
  BlockDevice dev(8, fileStorageOptions(&shim));
  const BlockId id = dev.allocateExtent(13) + 12;
  testing::failBlock(shim, dev, id, EAGAIN);
  try {
    dev.withWrite(id, [](std::span<Word>) {});
    FAIL() << "expected a TransientIoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), IoOpKind::kRmw);
    EXPECT_EQ(e.block(), 12u);
    EXPECT_TRUE(e.transient());
    EXPECT_EQ(e.attempts(), dev.retryPolicy().max_attempts);
    EXPECT_EQ(e.posixErrno(), EAGAIN);
    EXPECT_NE(std::string(e.what()).find("block 12"), std::string::npos);
  }
}

TEST(DeviceRetry, OneShotTransientFaultIsAbsorbedAndCounted) {
  FaultyFileOps shim(3);
  BlockDevice dev(8, fileStorageOptions(&shim));
  const BlockId id = dev.allocate();
  // The next read faults once.
  shim.failNth(FileSyscall::kPread, shim.count(FileSyscall::kPread) + 1,
               EAGAIN);

  std::uint64_t seen = 1;
  dev.withRead(id, [&](std::span<const Word> data) { seen = data[0]; });
  EXPECT_EQ(seen, 0u);  // fresh block reads zeroed — the retry succeeded

  const auto stats = dev.stats();
  EXPECT_EQ(stats.reads, 1u);  // the faulted attempt never counted
  EXPECT_EQ(shim.faultsInjected(), 1u);
  EXPECT_EQ(stats.io_retries, 1u);
  EXPECT_EQ(stats.io_gave_up, 0u);
}

TEST(DeviceRetry, StickyTransientFaultExhaustsTheBudget) {
  FaultyFileOps shim(3);
  BlockDevice dev(8, fileStorageOptions(&shim));
  const BlockId id = dev.allocate();
  testing::failBlock(shim, dev, id, EAGAIN);  // every attempt faults
  RetryPolicy rp;
  rp.max_attempts = 3;
  dev.setRetryPolicy(rp);

  int calls = 0;
  try {
    dev.withOverwrite(id, [&](std::span<Word>) { ++calls; });
    FAIL() << "expected a TransientIoError";
  } catch (const TransientIoError& e) {
    EXPECT_EQ(e.attempts(), 3u);
  }
  const auto stats = dev.stats();
  // A blind overwrite fails at its store: the callback ran once and the
  // write counted once, however many attempts the store took.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(shim.faultsInjected(), 3u);
  EXPECT_EQ(stats.io_retries, 2u);  // attempts 2 and 3 were retries
  EXPECT_EQ(stats.io_gave_up, 1u);
}

TEST(DeviceRetry, PermanentFaultEscapesWithoutRetry) {
  FaultyFileOps shim(3);
  BlockDevice dev(8, fileStorageOptions(&shim));
  const BlockId id = dev.allocate();
  testing::failBlock(shim, dev, id, EIO);

  EXPECT_THROW(dev.withWrite(id, [](std::span<Word>) {}), PermanentIoError);
  const auto stats = dev.stats();
  EXPECT_EQ(shim.faultsInjected(), 1u);
  EXPECT_EQ(stats.io_retries, 0u);
  EXPECT_EQ(stats.io_gave_up, 1u);
}

TEST(DeviceRetry, ProbabilisticFaultsAreAbsorbedUnderHeavyTraffic) {
  FaultyFileOps shim(11);
  BlockDevice dev(8, fileStorageOptions(&shim));
  shim.setErrnoProbability(FileSyscall::kPread, 0.1, EAGAIN);
  shim.setErrnoProbability(FileSyscall::kPwrite, 0.1, EAGAIN);
  RetryPolicy rp;
  rp.max_attempts = 8;
  dev.setRetryPolicy(rp);

  std::vector<BlockId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(dev.allocate());
  for (const BlockId id : ids) {
    dev.withOverwrite(id, [&](std::span<Word> data) { data[0] = id; });
  }
  std::uint64_t sum = 0;
  for (const BlockId id : ids) {
    dev.withRead(id, [&](std::span<const Word> data) { sum += data[0]; });
  }
  std::uint64_t expected = 0;
  for (const BlockId id : ids) expected += id;
  EXPECT_EQ(sum, expected);  // every op eventually succeeded, data intact
  const auto stats = dev.stats();
  EXPECT_GT(shim.faultsInjected(), 0u);
  EXPECT_GT(stats.io_retries, 0u);
  EXPECT_EQ(stats.io_gave_up, 0u);
  EXPECT_EQ(stats.reads, 64u);
  EXPECT_EQ(stats.writes, 64u);
}

TEST(DeviceRetry, BackoffQuantaAreCappedAndDeterministic) {
  RetryPolicy rp;
  rp.backoff_quanta = 1;
  rp.max_backoff_quanta = 16;
  for (std::uint32_t attempt = 1; attempt <= 40; ++attempt) {
    const auto q = rp.backoffQuantaFor(attempt, /*block=*/9);
    EXPECT_LE(q, 2 * rp.max_backoff_quanta);  // capped base + full jitter
    EXPECT_EQ(q, rp.backoffQuantaFor(attempt, 9));  // deterministic jitter
  }
}

// ---------------------------------------------------------------------------
// The device's fault seam on files: what the metadata paths cost, what a
// power cut in each kind of access leaves behind, and how the counters add
// up.
// ---------------------------------------------------------------------------

constexpr std::size_t kSeamWords = 8;
constexpr std::size_t kSeamBytes = kSeamWords * sizeof(Word);

/// Overwrite `id` with base + i in word i.
void fillBlock(BlockDevice& dev, BlockId id, Word base) {
  dev.withOverwrite(id, [&](std::span<Word> data) {
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = base + i;
  });
}

// Allocation (a reused id is scrubbed with a pwrite), free, inspect and
// the image calls reach the file but add nothing to cost(); their
// transient faults are retried like a counted access's.
TEST(FaultSeam, MetadataPathsAddNoCost) {
  FaultyFileOps shim(41);
  BlockDevice dev(kSeamWords, fileStorageOptions(&shim));
  const BlockId first = dev.allocateExtent(4);
  for (BlockId id = first; id < first + 4; ++id) fillBlock(dev, id, 10 * id);
  dev.freeExtent(first, 2);  // ids first, first + 1 become reusable
  const extmem::IoStats before = dev.stats();
  const std::uint64_t syscalls = shim.syscalls();

  EXPECT_EQ(dev.allocateExtent(2), first);  // reused ids
  const BlockId fresh = dev.allocate();     // a fresh id
  EXPECT_EQ(fresh, first + 4);
  const auto failNextPread = [&] {
    shim.failNth(FileSyscall::kPread, shim.count(FileSyscall::kPread) + 1,
                 EAGAIN);
  };
  failNextPread();
  EXPECT_EQ(dev.inspect(first + 2)[0], 10 * (first + 2));
  failNextPread();
  BlockDevice::Image image;
  dev.captureImage(image);
  dev.freeExtent(first, 2);
  dev.free(fresh);
  dev.restoreImage(image);
  EXPECT_TRUE(dev.isAllocated(fresh));
  EXPECT_EQ(dev.inspect(first + 3)[1], 10 * (first + 3) + 1);

  EXPECT_GT(shim.syscalls(), syscalls);
  const extmem::IoStats delta = dev.stats() - before;
  EXPECT_EQ(delta.cost(), 0u);
  EXPECT_EQ(delta.io_retries, 2u);  // inspect's and the capture's preads
  EXPECT_EQ(delta.io_gave_up, 0u);
}

TEST(FaultSeam, OverwritePowerCutTearsTheNewPrefix) {
  for (const std::size_t torn : {std::size_t{0}, std::size_t{3}, kSeamWords}) {
    FaultyFileOps shim(43);
    BlockDevice dev(kSeamWords, fileStorageOptions(&shim));
    const BlockId id = dev.allocate();
    fillBlock(dev, id, 100);
    shim.powerCutAtPwrite(shim.count(FileSyscall::kPwrite) + 1,
                          torn * sizeof(Word));

    int calls = 0;
    bool zeroed = false;
    EXPECT_THROW(dev.withOverwrite(id,
                                   [&](std::span<Word> data) {
                                     ++calls;
                                     zeroed = std::all_of(
                                         data.begin(), data.end(),
                                         [](Word w) { return w == 0; });
                                     for (std::size_t i = 0; i < data.size();
                                          ++i) {
                                       data[i] = 200 + i;
                                     }
                                   }),
                 DeviceCrashed)
        << "torn_words=" << torn;
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(zeroed);
    EXPECT_THROW(dev.readCopy(id), DeviceCrashed);

    shim.restorePower();
    const std::vector<Word> after = dev.readCopy(id);
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i], i < torn ? 200 + i : 100 + i)
          << "torn_words=" << torn << " word " << i;
    }
  }
}

TEST(FaultSeam, RmwPowerCutTearsTheNewPrefix) {
  for (const std::size_t torn : {std::size_t{0}, std::size_t{3}, kSeamWords}) {
    FaultyFileOps shim(45);
    BlockDevice dev(kSeamWords, fileStorageOptions(&shim));
    const BlockId id = dev.allocate();
    fillBlock(dev, id, 100);
    shim.powerCutAtPwrite(shim.count(FileSyscall::kPwrite) + 1,
                          torn * sizeof(Word));

    int calls = 0;
    EXPECT_THROW(dev.withWrite(id,
                               [&](std::span<Word> data) {
                                 ++calls;
                                 // Sees the old contents: 100 + i -> 200 + i.
                                 for (Word& w : data) w += 100;
                               }),
                 DeviceCrashed)
        << "torn_words=" << torn;
    EXPECT_EQ(calls, 1);
    EXPECT_THROW(dev.readCopy(id), DeviceCrashed);

    shim.restorePower();
    const std::vector<Word> after = dev.readCopy(id);
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i], i < torn ? 200 + i : 100 + i)
          << "torn_words=" << torn << " word " << i;
    }
  }
}

// A power cut inside a write's callback (its nested read) lands nothing
// of that write: the store after the callback never runs.
TEST(FaultSeam, PowerCutInsideAWriteCallbackLandsNothing) {
  FaultyFileOps shim(51);
  BlockDevice dev(kSeamWords, fileStorageOptions(&shim));
  const BlockId a = dev.allocate();
  const BlockId b = dev.allocate();
  fillBlock(dev, a, 100);
  shim.powerCutAfter(shim.syscalls() + 2);  // the nested read's pread

  EXPECT_THROW(dev.withWrite(a,
                             [&](std::span<Word> data) {
                               data[0] = 1;
                               (void)dev.readCopy(b);
                             }),
               DeviceCrashed);
  EXPECT_TRUE(shim.powerCutFired());

  shim.restorePower();
  EXPECT_EQ(dev.readCopy(a)[0], 100u);
  fillBlock(dev, a, 300);  // an ordinary write after the reboot
  EXPECT_EQ(dev.readCopy(a)[0], 300u);
}

TEST(FaultSeam, ReadPowerCutRunsNoCallbackAndChangesNothing) {
  FaultyFileOps shim(47);
  BlockDevice dev(kSeamWords, fileStorageOptions(&shim));
  const BlockId id = dev.allocate();
  fillBlock(dev, id, 100);
  shim.powerCutAfter(shim.syscalls() + 1);
  const extmem::IoStats before = dev.stats();

  int calls = 0;
  EXPECT_THROW(dev.withRead(id, [&](std::span<const Word>) { ++calls; }),
               DeviceCrashed);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ((dev.stats() - before).cost(), 0u);

  shim.restorePower();
  const std::vector<Word> after = dev.readCopy(id);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i], 100 + i) << "word " << i;
  }
}

TEST(FaultSeam, OneShotTransientOnEachOpKindIsCountedOnce) {
  FaultyFileOps shim(49);
  BlockDevice dev(kSeamWords, fileStorageOptions(&shim));
  const BlockId id = dev.allocate();
  const std::uint64_t pwrites = shim.count(FileSyscall::kPwrite);
  const std::uint64_t preads = shim.count(FileSyscall::kPread);
  // The overwrite's pwrite, the rmw's pread and the read's pread (the
  // rmw's retry is pread + 2) each fault once.
  shim.failNth(FileSyscall::kPwrite, pwrites + 1, EAGAIN);
  shim.failNth(FileSyscall::kPread, preads + 1, EAGAIN);
  shim.failNth(FileSyscall::kPread, preads + 3, EAGAIN);

  fillBlock(dev, id, 100);
  dev.withWrite(id, [](std::span<Word> data) { data[0] = 7; });
  Word seen = 0;
  dev.withRead(id, [&](std::span<const Word> data) { seen = data[0]; });
  EXPECT_EQ(seen, 7u);

  const extmem::IoStats stats = dev.stats();
  EXPECT_EQ(shim.faultsInjected(), 3u);
  EXPECT_EQ(stats.io_retries, 3u);
  EXPECT_EQ(stats.io_gave_up, 0u);
  EXPECT_EQ(stats.cost(), 3u);
}

// ---------------------------------------------------------------------------
// BlockCache degraded mode: quarantine on write-back failure
// ---------------------------------------------------------------------------

TEST(CacheQuarantine, FailedWritebackQuarantinesAndLandsAfterClear) {
  FaultyFileOps shim(13);
  BlockDevice dev(8, fileStorageOptions(&shim));
  extmem::MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteBack,
                   extmem::ReplacementKind::kLru);
  RetryPolicy rp;
  rp.max_attempts = 2;
  dev.setRetryPolicy(rp);

  const BlockId a = dev.allocate();
  const BlockId b = dev.allocate();
  const BlockId c = dev.allocate();
  cache.withOverwrite(a, [](std::span<Word> data) { data[0] = 111; });
  cache.withOverwrite(b, [](std::span<Word> data) { data[0] = 222; });

  // Make every write to `a` fault (sticky transient exhausts the retry
  // budget), then force an eviction: capacity 2 is full, so reading a
  // third block must evict — and the LRU victim is `a`.
  testing::failBlock(shim, dev, a, EAGAIN);
  cache.withRead(c, [](std::span<const Word>) {});

  EXPECT_GT(cache.writebackFailures(), 0u);
  EXPECT_EQ(cache.quarantinedFrames(), 1u);
  // The dirty data survives in the quarantined frame and still hits.
  std::uint64_t held = 0;
  cache.withRead(a, [&](std::span<const Word> data) { held = data[0]; });
  EXPECT_EQ(held, 111u);

  // flush() reports the quarantined frame's fault but attempts everything.
  EXPECT_THROW(cache.flush(), IoError);
  EXPECT_EQ(cache.quarantinedFrames(), 1u);

  // The fault clears; the next barrier lands the frame and un-quarantines.
  shim.clear();
  EXPECT_NO_THROW(cache.flush());
  EXPECT_EQ(cache.quarantinedFrames(), 0u);
  cache.invalidate(a);  // drop the clean frame, then read the device copy
  std::uint64_t on_disk = 0;
  dev.withRead(a, [&](std::span<const Word> data) { on_disk = data[0]; });
  EXPECT_EQ(on_disk, 111u);
}

TEST(CacheQuarantine, EvictionMakesProgressPastQuarantinedFrames) {
  FaultyFileOps shim(13);
  BlockDevice dev(8, fileStorageOptions(&shim));
  extmem::MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteBack,
                   extmem::ReplacementKind::kLru);
  RetryPolicy rp;
  rp.max_attempts = 2;
  dev.setRetryPolicy(rp);

  std::vector<BlockId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(dev.allocate());
  cache.withOverwrite(ids[0], [](std::span<Word> data) { data[0] = 1; });
  cache.withOverwrite(ids[1], [](std::span<Word> data) { data[0] = 2; });
  testing::failBlock(shim, dev, ids[0], EAGAIN);
  testing::failBlock(shim, dev, ids[1], EAGAIN);

  // Both resident frames quarantine; later reads still succeed (the cache
  // runs degraded: quarantined frames pin capacity, the rest of the
  // traffic flows through insert/evict churn).
  for (int i = 2; i < 6; ++i) {
    EXPECT_NO_THROW(cache.withRead(ids[i], [](std::span<const Word>) {}));
  }
  EXPECT_EQ(cache.quarantinedFrames(), 2u);

  shim.clear();
  EXPECT_NO_THROW(cache.flush());
  EXPECT_EQ(cache.quarantinedFrames(), 0u);
}

TEST(CacheQuarantine, GiveUpEscalatesToPermanentAndCounts) {
  FaultyFileOps shim(13);
  BlockDevice dev(8, fileStorageOptions(&shim));
  extmem::MemoryBudget budget(0);
  BlockCache cache(dev, budget, 2, BlockCache::WritePolicy::kWriteBack,
                   extmem::ReplacementKind::kLru);
  cache.setQuarantineGiveUpThreshold(3);
  RetryPolicy rp;
  rp.max_attempts = 2;
  dev.setRetryPolicy(rp);

  const BlockId a = dev.allocate();
  cache.withOverwrite(a, [](std::span<Word> data) { data[0] = 111; });
  // Sticky transient: every write-back attempt fails.
  testing::failBlock(shim, dev, a, EAGAIN);

  // Failures 1 and 2: the barrier reports the (transient-rooted) fault
  // but has not given up yet.
  EXPECT_THROW(cache.flush(), IoError);
  EXPECT_THROW(cache.flush(), IoError);
  EXPECT_EQ(cache.quarantineGaveUp(), 0u);

  // Failure 3 crosses the threshold: the NEXT barrier escalates to
  // PermanentIoError even though every underlying fault was transient,
  // and the give-up counter records the frame exactly once per streak.
  EXPECT_THROW(cache.flush(), IoError);
  EXPECT_EQ(cache.quarantineGaveUp(), 1u);
  EXPECT_THROW(cache.flush(), PermanentIoError);
  EXPECT_EQ(cache.quarantineGaveUp(), 1u);  // once per streak, not per flush

  // Give-up changes what the caller is told, not what the cache protects:
  // the data is retained and a cleared fault still lands it.
  shim.clear();
  EXPECT_NO_THROW(cache.flush());
  EXPECT_EQ(cache.quarantinedFrames(), 0u);
  cache.invalidate(a);
  std::uint64_t on_disk = 0;
  dev.withRead(a, [&](std::span<const Word> data) { on_disk = data[0]; });
  EXPECT_EQ(on_disk, 111u);
}

// A flush writes each run of consecutive dirty blocks with one pwrite. The
// run's failure must keep the per-block outcome: only the frame the error
// names is quarantined, and the rest of the run lands.
TEST(CacheQuarantine, FailedRunPwriteQuarantinesOnlyTheNamedFrame) {
  FaultyFileOps shim(/*seed=*/17);  // outlives the device
  BlockDevice dev(8, fileStorageOptions(&shim));
  extmem::MemoryBudget budget(0);
  BlockCache cache(dev, budget, 8, BlockCache::WritePolicy::kWriteBack,
                   extmem::ReplacementKind::kLru);
  ASSERT_EQ(dev.allocateExtent(6), 0u);
  for (BlockId id = 0; id < 6; ++id) {
    cache.withOverwrite(id, [&](std::span<Word> data) { data[0] = 100 + id; });
  }

  const std::uint64_t writes = dev.stats().writes;
  shim.failNth(FileSyscall::kPwrite, shim.count(FileSyscall::kPwrite) + 1,
               EIO);
  try {
    cache.flush();
    FAIL() << "the failed pwrite did not surface";
  } catch (const PermanentIoError& error) {
    EXPECT_EQ(error.block(), 0u);
    EXPECT_EQ(error.posixErrno(), EIO);
  }
  EXPECT_EQ(cache.quarantinedFrames(), 1u);
  EXPECT_EQ(cache.dirtyBlocks(), 1u);
  EXPECT_EQ(cache.writebacks(), 5u);
  EXPECT_EQ(dev.stats().writes - writes, 6u);  // as six single-block writes
  for (BlockId id = 1; id < 6; ++id) {
    EXPECT_EQ(dev.readCopy(id)[0], 100 + id) << "block " << id;
  }

  // The next barrier lands block 0 and clears the quarantine.
  EXPECT_NO_THROW(cache.flush());
  EXPECT_EQ(cache.quarantinedFrames(), 0u);
  EXPECT_EQ(cache.dirtyBlocks(), 0u);
  EXPECT_EQ(dev.readCopy(0)[0], 100u);
}

// A run that spans two arena chunks is two pwrites. When the second one
// fails, the error names the block it began at: the first chunk landed and
// stays clean, and only that block's frame is quarantined.
TEST(CacheQuarantine, FailedSecondChunkNamesItsFirstBlock) {
  constexpr std::size_t kBlocks = 1030;  // 1,024 blocks per arena chunk
  FaultyFileOps shim(/*seed=*/23);
  BlockDevice dev(8, fileStorageOptions(&shim));
  extmem::MemoryBudget budget(0);
  BlockCache cache(dev, budget, kBlocks, BlockCache::WritePolicy::kWriteBack,
                   extmem::ReplacementKind::kLru);
  ASSERT_EQ(dev.allocateExtent(kBlocks), 0u);
  for (BlockId id = 0; id < kBlocks; ++id) {
    cache.withOverwrite(id, [&](std::span<Word> data) { data[0] = 100 + id; });
  }

  const std::uint64_t writes = dev.stats().writes;
  shim.failNth(FileSyscall::kPwrite, shim.count(FileSyscall::kPwrite) + 2,
               EIO);
  try {
    cache.flush();
    FAIL() << "the failed pwrite did not surface";
  } catch (const PermanentIoError& error) {
    EXPECT_EQ(error.block(), 1024u);
  }
  EXPECT_EQ(cache.quarantinedFrames(), 1u);
  EXPECT_EQ(cache.dirtyBlocks(), 1u);  // frames 0-1,023 and 1,025+ clean
  EXPECT_EQ(cache.writebacks(), kBlocks - 1);
  EXPECT_EQ(dev.stats().writes - writes, kBlocks);
  EXPECT_EQ(dev.readCopy(1023)[0], 100u + 1023);
  EXPECT_EQ(dev.readCopy(1025)[0], 100u + 1025);

  EXPECT_NO_THROW(cache.flush());
  EXPECT_EQ(cache.quarantinedFrames(), 0u);
  EXPECT_EQ(dev.readCopy(1024)[0], 100u + 1024);
}

// A bad block inside a run: the pwrite stops short before it and the
// resumed pwrite fails there, so the error names the bad block, the blocks
// before it landed, and the rest of the run lands as a new run.
TEST(CacheQuarantine, PolicyFaultInsideARunKeepsPerBlockOutcomes) {
  FaultyFileOps shim(19);
  BlockDevice dev(8, fileStorageOptions(&shim));
  extmem::MemoryBudget budget(0);
  BlockCache cache(dev, budget, 8, BlockCache::WritePolicy::kWriteBack,
                   extmem::ReplacementKind::kLru);
  const BlockId first = dev.allocateExtent(5);
  std::vector<BlockId> ids;
  for (BlockId i = 0; i < 5; ++i) {
    ids.push_back(first + i);
    cache.withOverwrite(first + i,
                        [&](std::span<Word> data) { data[0] = 500 + i; });
  }
  testing::failBlock(shim, dev, ids[2], EIO);

  const std::uint64_t writes = dev.stats().writes;
  try {
    cache.flush();
    FAIL() << "the bad block did not surface";
  } catch (const IoError& error) {
    EXPECT_EQ(error.block(), ids[2]);
  }
  EXPECT_EQ(cache.quarantinedFrames(), 1u);
  EXPECT_EQ(cache.writebacks(), 4u);
  // One counted write per block, the failed one included.
  EXPECT_EQ(dev.stats().writes - writes, 5u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(dev.readCopy(ids[i])[0], 500 + i) << "block " << ids[i];
  }

  shim.clear();
  EXPECT_NO_THROW(cache.flush());
  EXPECT_EQ(cache.quarantinedFrames(), 0u);
  EXPECT_EQ(dev.readCopy(ids[2])[0], 502u);
}

/// Adds up the bytes every pwrite asks for, then forwards to `inner`.
class PwriteTally final : public extmem::FileOps {
 public:
  explicit PwriteTally(extmem::FileOps& inner) : inner_(inner) {}

  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override {
    return inner_.pread(fd, buf, count, offset);
  }
  ssize_t pwrite(int fd, const void* buf, std::size_t count,
                 off_t offset) override {
    requested_bytes += count;
    return inner_.pwrite(fd, buf, count, offset);
  }
  int fsync(int fd) override { return inner_.fsync(fd); }
  int fallocate(int fd, off_t offset, off_t len) override {
    return inner_.fallocate(fd, offset, len);
  }
  int close(int fd) override { return inner_.close(fd); }

  std::uint64_t requested_bytes = 0;

 private:
  extmem::FileOps& inner_;
};

// A dead disk fails every write of a flush. The rest of a failed run goes
// one block at a time, so the flush asks for each block at most twice
// (once in the run, once alone), not once more per failing block before
// it: 256 + 255 blocks for a 256-block run, not 256 · 257 / 2.
TEST(CacheQuarantine, DeadDiskFlushRequestsEachBlockAtMostTwice) {
  constexpr std::size_t kBlocks = 256;
  FaultyFileOps shim(29);
  PwriteTally tally(shim);
  BlockDevice dev(8, fileStorageOptions(&tally));
  extmem::MemoryBudget budget(0);
  BlockCache cache(dev, budget, kBlocks, BlockCache::WritePolicy::kWriteBack,
                   extmem::ReplacementKind::kLru);
  ASSERT_EQ(dev.allocateExtent(kBlocks), 0u);
  for (BlockId id = 0; id < kBlocks; ++id) {
    cache.withOverwrite(id, [&](std::span<Word> data) { data[0] = 100 + id; });
  }
  const auto& file = dynamic_cast<const extmem::FileStorage&>(dev.storage());
  const std::uint64_t slot = file.slotBytes();
  shim.failRange(file.fd(), 0, static_cast<off_t>(kBlocks * slot), EIO);

  const std::uint64_t writes = dev.stats().writes;
  tally.requested_bytes = 0;
  EXPECT_THROW(cache.flush(), PermanentIoError);
  EXPECT_LE(tally.requested_bytes, 2 * kBlocks * slot)
      << tally.requested_bytes / slot << " blocks requested";
  EXPECT_EQ(cache.quarantinedFrames(), kBlocks);
  EXPECT_EQ(cache.dirtyBlocks(), kBlocks);
  EXPECT_EQ(cache.writebacks(), 0u);
  EXPECT_EQ(dev.stats().writes - writes, kBlocks);  // one per failed block

  shim.clear();
  EXPECT_NO_THROW(cache.flush());
  EXPECT_EQ(cache.quarantinedFrames(), 0u);
  EXPECT_EQ(cache.writebacks(), kBlocks);
  for (BlockId id = 0; id < kBlocks; ++id) {
    ASSERT_EQ(dev.readCopy(id)[0], 100 + id) << "block " << id;
  }
}

// ---------------------------------------------------------------------------
// Pipeline fail-stop and reset()
// ---------------------------------------------------------------------------

TEST(PipelineFailStop, PermanentFaultLatchesAndResetRecovers) {
  FaultyFileOps shim(17);
  TestRig rig(8);
  rig.useStorage(fileStorageOptions(&shim));
  GeneralConfig cfg;
  cfg.expected_n = 256;
  cfg.target_load = 0.5;
  auto table = makeTable(TableKind::kChaining, rig.context(), cfg);

  IngestPipeline pipe(*table, {.batch_capacity = 16});
  const auto keys = distinctKeys(64);
  for (const auto k : keys) pipe.insert(k, k + 1);
  EXPECT_NO_THROW(pipe.drain());

  // Arm a permanent fault on every further pwrite: the next applied
  // window fail-stops the pipeline.
  shim.failNth(FileSyscall::kPwrite, shim.count(FileSyscall::kPwrite) + 1,
               EIO, /*sticky=*/true);
  const auto more = distinctKeys(64, /*seed=*/99);
  EXPECT_THROW(
      {
        for (const auto k : more) pipe.insert(k, k + 1);
        pipe.drain();
      },
      PermanentIoError);

  // Latched: further submits and barriers rethrow rather than hang.
  EXPECT_THROW(pipe.insert(1, 2), PermanentIoError);
  EXPECT_THROW(pipe.flush(), PermanentIoError);

  // The fault clears; reset() re-admits traffic.
  shim.clear();
  pipe.reset();
  EXPECT_NO_THROW({
    pipe.insert(12345, 1);
    pipe.drain();
  });
  EXPECT_EQ(table->lookup(12345), std::optional<std::uint64_t>(1));
}

TEST(PipelineFailStop, PendingLookupFuturesAllResolveOnWorkerFault) {
  FaultyFileOps shim(19);
  TestRig rig(8);
  rig.useStorage(fileStorageOptions(&shim));
  GeneralConfig cfg;
  cfg.expected_n = 256;
  cfg.target_load = 0.5;
  auto table = makeTable(TableKind::kChaining, rig.context(), cfg);
  shim.failNth(FileSyscall::kPwrite, shim.count(FileSyscall::kPwrite) + 1,
               EIO, /*sticky=*/true);

  IngestPipeline pipe(*table, {.batch_capacity = 4});
  std::vector<std::future<std::optional<std::uint64_t>>> futures;
  // Race many lookups against the failing apply; fail-stop may reject late
  // submissions at the submit barrier, which is fine — every future we DID
  // obtain must resolve. Lookups target keys with no staged op so they go
  // to the worker rather than being answered from memory.
  try {
    for (std::uint64_t k = 0; k < 200; ++k) {
      pipe.insert(k, k + 1);
      futures.push_back(pipe.submitLookup(k + 1'000'000));
    }
  } catch (const IoError&) {
  }
  EXPECT_THROW(pipe.drain(), PermanentIoError);

  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready)
        << "a submitLookup future was left unresolved (broken promise)";
    try {
      (void)f.get();  // value or rethrown IoError — both fine, no hang
    } catch (const IoError&) {
    }
  }

  // reset() discards staged ops, fails leftover lookups, clears the latch.
  shim.clear();
  pipe.reset();
  EXPECT_NO_THROW({
    pipe.insert(7777, 8);
    pipe.drain();
  });
  EXPECT_EQ(table->lookup(7777), std::optional<std::uint64_t>(8));
}

TEST(PipelineFailStop, WalAppendFailureNeverReachesTheTable) {
  TestRig rig(8);
  GeneralConfig cfg;
  cfg.expected_n = 256;
  cfg.target_load = 0.5;
  auto table = makeTable(TableKind::kChaining, rig.context(), cfg);
  // The log file refuses every write, so no record ever becomes durable.
  FaultyFileOps shim(23);
  BlockDevice wal_device(rig.device->wordsPerBlock(),
                         fileStorageOptions(&shim));
  shim.failNth(FileSyscall::kPwrite, shim.count(FileSyscall::kPwrite) + 1,
               EIO, /*sticky=*/true);
  durability::WalWriter wal(wal_device);

  IngestPipeline pipe(*table, {.batch_capacity = 4, .wal = &wal});
  for (std::uint64_t k = 1; k <= 4; ++k) pipe.insert(k, k + 100);
  EXPECT_THROW(pipe.drain(), PermanentIoError);

  // Ack-after-durable: a window the log refused is discarded, never
  // applied, and the ledger still balances.
  const auto st = pipe.stats();
  EXPECT_EQ(st.ops_applied, 0u);
  EXPECT_EQ(st.batches_applied, 0u);
  EXPECT_EQ(st.ops_discarded, 4u);
  EXPECT_EQ(table->size(), 0u);
  EXPECT_EQ(wal.durableLsn(), 0u);
  AuditReport report;
  pipe.audit(report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Sharded fault isolation
// ---------------------------------------------------------------------------

TEST(ShardIsolation, FaultedShardLatchesWhileHealthyShardsServe) {
  FaultyFileOps shim(23);
  TestRig rig(8);
  tables::GeneralConfig config;
  config.shards = 4;
  config.sharded_inner = TableKind::kChaining;
  config.shard_threads = 2;
  config.expected_n = 256;
  config.target_load = 0.5;
  config.shard_storage = fileStorageOptions(&shim);
  ShardedTable table(rig.context(), config);

  const auto keys = distinctKeys(256);
  std::vector<Op> ops;
  for (const auto k : keys) ops.push_back(Op::insertOp(k, k + 1));
  table.applyBatch(ops);

  // Arm a sticky permanent fault on shard 0's next pwrite; the other
  // shards' files stay clean.
  const int shard0 = fileOf(table.shardDevice(0));
  shim.failNth(FileSyscall::kPwrite,
               shim.count(FileSyscall::kPwrite, shard0) + 1, EIO,
               /*sticky=*/true, shard0);

  std::vector<Op> more;
  for (const auto k : distinctKeys(256, /*seed=*/31)) {
    more.push_back(Op::insertOp(k, k + 2));
  }
  EXPECT_THROW(table.applyBatch(more), PermanentIoError);

  // Exactly one shard latched; the report names it.
  EXPECT_EQ(table.failedShardCount(), 1u);
  EXPECT_TRUE(table.shardFailed(0));
  const auto errors = table.shardErrors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].shard, 0u);
  EXPECT_FALSE(errors[0].message.empty());

  // Healthy shards keep serving: the batch lookup rethrows the shard
  // fault, but every healthy shard's results are filled first.
  std::vector<std::optional<std::uint64_t>> out(keys.size());
  EXPECT_THROW(table.lookupBatch(keys, out), IoError);
  std::size_t served = 0;
  for (const auto& v : out) served += v.has_value();
  EXPECT_GT(served, keys.size() / 2);  // ~3/4 of keys live on healthy shards

  // Single ops routed to the faulted shard fail fast WITHOUT touching it:
  // its file's syscall counters stay put.
  const auto reads_before = shim.count(FileSyscall::kPread, shard0);
  const auto writes_before = shim.count(FileSyscall::kPwrite, shard0);
  std::size_t failed_fast = 0;
  for (const auto k : keys) {
    try {
      (void)table.lookup(k);
    } catch (const IoError&) {
      ++failed_fast;
    }
  }
  EXPECT_GT(failed_fast, 0u);
  EXPECT_EQ(shim.count(FileSyscall::kPread, shard0), reads_before);
  EXPECT_EQ(shim.count(FileSyscall::kPwrite, shard0), writes_before);

  // The fault clears; clearShardErrors() re-admits the shard.
  shim.clear();
  table.clearShardErrors();
  EXPECT_EQ(table.failedShardCount(), 0u);
  EXPECT_NO_THROW(table.applyBatch(more));
  EXPECT_EQ(table.lookup(more[0].key),
            std::optional<std::uint64_t>(more[0].value));
}

// The flush barrier runs one shard per fan-out slice. Two shards fault:
// both latch, the healthy shards land every frame, and the lowest-index
// error surfaces once all slices finished.
TEST(ShardIsolation, FlushFanOutLatchesEveryFaultedShard) {
  FaultyFileOps shim(31);
  TestRig rig(8);
  tables::GeneralConfig config;
  config.shards = 4;
  config.sharded_inner = TableKind::kChaining;
  config.shard_threads = 2;
  config.expected_n = 1024;
  config.target_load = 0.5;
  config.shard_cache_frames = 1024;  // every block: nothing evicts
  config.shard_cache_write_back = true;
  config.shard_storage = fileStorageOptions(&shim);
  ShardedTable table(rig.context(), config);

  const auto keys = distinctKeys(1024);
  std::vector<Op> ops;
  for (const auto k : keys) ops.push_back(Op::insertOp(k, k + 1));
  table.applyBatch(ops);

  // Sticky EIO: shard 1's whole file goes bad, shard 3's from its second
  // block on, so the two errors name different blocks.
  for (const std::size_t s : {1u, 3u}) {
    const auto& file = dynamic_cast<const extmem::FileStorage&>(
        table.shardDevice(s).storage());
    const off_t from = s == 1 ? 0 : static_cast<off_t>(file.slotBytes());
    shim.failRange(file.fd(), from, off_t{1} << 40, EIO);
  }

  std::string thrown;
  try {
    table.flushCache();
    FAIL() << "the faulted shards did not surface";
  } catch (const PermanentIoError& error) {
    thrown = error.what();
  }
  EXPECT_EQ(table.failedShardCount(), 2u);
  EXPECT_TRUE(table.shardFailed(1));
  EXPECT_TRUE(table.shardFailed(3));
  const auto errors = table.shardErrors();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].shard, 1u);
  EXPECT_NE(errors[0].message, errors[1].message);
  EXPECT_EQ(thrown, errors[0].message);

  // The healthy shards landed every frame: with their caches dropped,
  // their values come back from their files.
  for (const std::size_t s : {0u, 2u}) {
    EXPECT_EQ(table.shardCache(s)->dirtyBlocks(), 0u) << "shard " << s;
    table.shardCache(s)->discardAll();
  }
  std::size_t checked = 0;
  for (const auto k : keys) {
    const std::size_t s =
        ShardedTable::shardOfBlockId(*table.primaryBlockOf(k));
    if (s != 0 && s != 2) continue;
    EXPECT_EQ(table.lookup(k), std::optional<std::uint64_t>(k + 1));
    ++checked;
  }
  EXPECT_GT(checked, keys.size() / 4);
}

// ---------------------------------------------------------------------------
// Teardown on a dead disk: destroying a table never throws, whatever its
// destructor's flush and free walks meet. Before the table is destroyed,
// every transfer to the table's file fails with EIO, or the power is cut.
// ---------------------------------------------------------------------------

/// Test-name suffix for a TableKind parameter ("linear-hashing" →
/// "linear_hashing").
std::string kindName(const ::testing::TestParamInfo<TableKind>& info) {
  std::string name(tables::tableKindName(info.param));
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

std::unique_ptr<ExternalHashTable> makeFilled(TableKind kind,
                                              const TestRig& rig,
                                              BlockCache* cache = nullptr) {
  GeneralConfig cfg;
  cfg.expected_n = 256;
  cfg.buffer_items = 64;
  auto table = tables::makeTable(kind, rig.context(), cfg);
  table->attachCache(cache);
  for (const auto k : distinctKeys(200)) table->insert(k, k + 1);
  return table;
}

/// Every transfer to `device`'s file fails with EIO, or the power is cut
/// at the next syscall.
void killDisk(FaultyFileOps& shim, const BlockDevice& device,
              bool power_cut) {
  if (power_cut) {
    shim.powerCutAfter(shim.syscalls());
  } else {
    shim.failRange(fileOf(device), 0, std::numeric_limits<off_t>::max(), EIO);
  }
}

class TeardownOnDeadDisk : public ::testing::TestWithParam<TableKind> {};

TEST_P(TeardownOnDeadDisk, FailingReadsDoNotAbort) {
  for (const bool power_cut : {false, true}) {
    SCOPED_TRACE(power_cut ? "power cut" : "EIO");
    FaultyFileOps shim(/*seed=*/31);
    TestRig rig(8);
    rig.useStorage(fileStorageOptions(&shim));
    auto table = makeFilled(GetParam(), rig);
    killDisk(shim, *rig.device, power_cut);
    EXPECT_NO_THROW(table.reset());
    shim.clear();
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TeardownOnDeadDisk,
                         ::testing::ValuesIn(tables::kAllTableKinds),
                         kindName);

class TeardownOnDeadDiskWriteBack
    : public ::testing::TestWithParam<TableKind> {};

TEST_P(TeardownOnDeadDiskWriteBack, FailingFlushDoesNotAbort) {
  for (const bool power_cut : {false, true}) {
    SCOPED_TRACE(power_cut ? "power cut" : "EIO");
    FaultyFileOps shim(/*seed=*/32);
    TestRig rig(8);
    rig.useStorage(fileStorageOptions(&shim));
    // Declared before the table, which it must outlive.
    BlockCache cache(*rig.device, *rig.memory, 64,
                     BlockCache::WritePolicy::kWriteBack);
    auto table = makeFilled(GetParam(), rig, &cache);
    ASSERT_GT(cache.dirtyBlocks(), 0u);
    killDisk(shim, *rig.device, power_cut);
    EXPECT_NO_THROW(table.reset());
    shim.clear();
  }
}

// The kinds that write through an attached cache.
INSTANTIATE_TEST_SUITE_P(CachedKinds, TeardownOnDeadDiskWriteBack,
                         ::testing::Values(TableKind::kChaining,
                                           TableKind::kLinearHashing,
                                           TableKind::kExtendible),
                         kindName);

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, CheckFailureDumpsRecentSpans) {
  std::ostringstream sink;
  obs::FlightRecorderOptions options;
  options.sink = &sink;
  obs::FlightRecorder::arm(options);
  const auto dumps_before = obs::FlightRecorder::dumpCount();

  { obs::TraceSpan span("doomed-phase", "test"); }
  EXPECT_THROW(EXTHASH_CHECK_MSG(false, "chaos trigger"), CheckFailure);
  obs::FlightRecorder::disarm();

  EXPECT_EQ(obs::FlightRecorder::dumpCount(), dumps_before + 1);
  const std::string dump = sink.str();
  EXPECT_NE(dump.find("flight recorder dump"), std::string::npos);
  EXPECT_NE(dump.find("chaos trigger"), std::string::npos);
  EXPECT_NE(dump.find("doomed-phase"), std::string::npos);
}

// The library's own spans reach the ring in every build: a dead disk
// under a pipelined apply dumps the worker-apply spans of the windows
// before it.
TEST(FlightRecorder, FatalApplyDumpCarriesLibrarySpans) {
  FaultyFileOps shim(31);  // declared first: outlives the device
  TestRig rig(8);
  rig.useStorage(fileStorageOptions(&shim));
  GeneralConfig cfg;
  cfg.expected_n = 1024;
  cfg.target_load = 0.5;
  auto table = makeTable(TableKind::kChaining, rig.context(), cfg);
  const auto keys = distinctKeys(1024);

  std::ostringstream sink;
  obs::FlightRecorderOptions options;
  options.sink = &sink;
  obs::FlightRecorder::arm(options);
  const auto dumps_before = obs::FlightRecorder::dumpCount();
  {
    pipeline::PipelineConfig pc;
    pc.batch_capacity = 128;
    pc.max_pending_batches = 1;
    IngestPipeline pipe(*table, pc);
    for (std::size_t i = 0; i < 256; ++i) pipe.insert(keys[i], i);
    pipe.drain();
    shim.failNth(FileSyscall::kPwrite, shim.count(FileSyscall::kPwrite) + 1,
                 EIO, /*sticky=*/true);
    EXPECT_THROW(
        {
          for (std::size_t i = 256; i < keys.size(); ++i) {
            pipe.insert(keys[i], i);
          }
          pipe.drain();
        },
        PermanentIoError);
    shim.clear();  // the teardown's flushes run fault-free
  }
  obs::FlightRecorder::disarm();

  EXPECT_EQ(obs::FlightRecorder::dumpCount(), dumps_before + 1);
  const std::string dump = sink.str();
  EXPECT_NE(dump.find("permanent"), std::string::npos);
  EXPECT_NE(dump.find("worker-apply"), std::string::npos);
}

TEST(FlightRecorder, PermanentIoErrorGiveUpDumps) {
  std::ostringstream sink;
  obs::FlightRecorderOptions options;
  options.sink = &sink;
  obs::FlightRecorder::arm(options);
  const auto dumps_before = obs::FlightRecorder::dumpCount();

  FaultyFileOps shim(29);
  BlockDevice dev(8, fileStorageOptions(&shim));
  const BlockId id = dev.allocate();
  testing::failBlock(shim, dev, id, EIO);
  EXPECT_THROW(dev.withRead(id, [](std::span<const Word>) {}),
               PermanentIoError);
  obs::FlightRecorder::disarm();

  EXPECT_EQ(obs::FlightRecorder::dumpCount(), dumps_before + 1);
  EXPECT_NE(sink.str().find("permanent read fault"), std::string::npos);
}

TEST(FlightRecorder, RingBufferKeepsTheMostRecentSpans) {
  obs::TraceSession::Options topt;
  topt.ring = true;
  topt.buffer_events_per_thread = 4;
  obs::TraceSession session(topt);
  session.start();
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span("span", "test");
  }
  session.stop();
  // 10 span events through a 4-slot ring: the ring holds the last 4 and
  // the overwritten ones count in dropped().
  EXPECT_EQ(session.eventCount(), 4u);
  EXPECT_GT(session.dropped(), 0u);
  std::ostringstream json;
  session.writeJson(json);
  EXPECT_NE(json.str().find("span"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Capstone: chaos equivalence sweep. Every kind (+ the sharded façade) in
// pipelined + cached + arbitrated mode on files, under a seeded
// transient-fault schedule drawn per file, must produce the bit-exact
// lookup digest of the fault-free run — and the retry counters must prove
// the schedule actually fired.
// Both arms also answer exactly the AckLedger's fold of the whole op
// stream (last op per key wins), which catches a lost or duplicated op
// even when it hits both arms alike and leaves their digests equal.
// ---------------------------------------------------------------------------

constexpr std::size_t kChaosB = 8;
constexpr std::size_t kChaosOps = 2000;
constexpr std::size_t kChaosUniverse = 256;

std::uint64_t chaosDigest(ExternalHashTable& table,
                          const std::vector<std::uint64_t>& universe) {
  std::uint64_t sum = 0;
  for (const std::uint64_t key : universe) {
    const auto hit = table.lookup(key);
    if (hit) sum += splitmix64(key ^ *hit * 0x9E3779B97F4A7C15ULL);
  }
  return sum;
}

struct ChaosOutcome {
  std::uint64_t digest = 0;
  std::uint64_t faults = 0;
  std::uint64_t retries = 0;
  std::uint64_t gave_up = 0;
};

ChaosOutcome chaosRun(TableKind kind, std::uint64_t seed, bool faulted) {
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << (faulted ? " faulted" : " clean"));
  FaultyFileOps shim(seed);
  const StorageOptions storage = fileStorageOptions(&shim);
  TestRig rig(kChaosB, /*memory_words=*/0, 42);
  rig.useStorage(storage);
  std::optional<BlockCache> cache;

  GeneralConfig cfg;
  cfg.expected_n = kChaosUniverse;
  cfg.target_load = 0.5;
  cfg.buffer_items = 32;
  cfg.beta = 4;
  cfg.gamma = 2;
  cfg.shards = 4;
  cfg.sharded_inner = TableKind::kChaining;
  cfg.shard_threads = 2;
  cfg.shard_cache_frames = 8;
  cfg.shard_cache_write_back = true;
  cfg.shard_storage = storage;
  auto table = makeTable(kind, rig.context(), cfg);

  // Cached: the sharded façade auto-attaches per-shard caches; everyone
  // else gets a small write-back cache on the context device (kinds that
  // do not honor a cache simply never touch it — still a valid lane).
  auto* sharded = dynamic_cast<ShardedTable*>(table.get());
  if (sharded == nullptr) {
    cache.emplace(*rig.device, *rig.memory, 4,
                  BlockCache::WritePolicy::kWriteBack,
                  extmem::ReplacementKind::kLru);
    table->attachCache(&*cache);
  }

  // Seeded transient chaos on every file the table touches, each drawing
  // from its own stream. With p = 0.02 per syscall and 8 attempts the
  // chance of an escape is ~1e-14 per access: the faulted run must
  // converge to the fault-free contents.
  const auto arm = [&](BlockDevice& dev) {
    RetryPolicy rp;
    rp.max_attempts = 8;
    dev.setRetryPolicy(rp);
    for (const auto sc : {FileSyscall::kPread, FileSyscall::kPwrite}) {
      shim.setErrnoProbability(sc, 0.02, EAGAIN, fileOf(dev));
    }
  };
  if (faulted) {
    if (sharded != nullptr) {
      for (std::size_t s = 0; s < sharded->shardCount(); ++s) {
        arm(sharded->shardDevice(s));
      }
    } else {
      arm(*rig.device);
    }
  }

  // kBuffered is the paper's insert-only distinct-key model: repeated
  // inserts of one key leave old versions shadow-visible, so its lookups
  // are only batch-boundary-invariant on a distinct-key stream. Everyone
  // else gets the mixed insert/update/erase churn over a small universe.
  const bool distinct_only = kind == TableKind::kBuffered;
  const auto universe =
      distinctKeys(distinct_only ? kChaosOps : kChaosUniverse, seed);
  // The arbiter resizes the pipeline's windows mid-run, so ledger and
  // pipeline seal at different boundaries; the full fold checked below
  // does not depend on them.
  durability::AckLedger ledger(64);
  {
    pipeline::PipelineConfig pc;
    pc.batch_capacity = 64;
    pc.max_pending_batches = 2;
    pc.budget = rig.memory.get();
    IngestPipeline pipe(*table, pc);

    extmem::ArbiterConfig ac;
    ac.slots_per_frame = 4;
    MemoryArbiter arbiter(ac);
    if (sharded != nullptr) {
      sharded->registerCaches(arbiter);
    } else {
      arbiter.addCache(&*cache);
    }
    IngestPipeline* p = &pipe;
    arbiter.setStaging(
        [p](std::size_t slots) { p->setWindowCapacity(slots); },
        [p] {
          const auto s = p->stats();
          return extmem::StagingSignals{s.ops_coalesced, s.submit_waits};
        },
        pc.batch_capacity);

    Xoshiro256StarStar rng(deriveSeed(seed, 5));
    std::vector<std::future<std::optional<std::uint64_t>>> lookups;
    for (std::size_t i = 0; i < kChaosOps; ++i) {
      const std::uint64_t key =
          distinct_only ? universe[i] : universe[rng.below(universe.size())];
      const Op op = !distinct_only && i % 9 == 7 ? Op::eraseOp(key)
                                                 : Op::insertOp(key, i + 1);
      pipe.submit(op);
      ledger.submit(op);
      if (i % 97 == 50) lookups.push_back(pipe.submitLookup(key));
      if (i % 512 == 511) {
        pipe.submitMaintenance([a = &arbiter] { a->rebalance(); });
      }
    }
    pipe.drain();
    // Transient mode: every future resolves with a value, never an error —
    // the retries absorb the whole schedule below the pipeline.
    for (auto& f : lookups) (void)f.get();
  }
  table->flushCache();
  ledger.seal();

  ChaosOutcome out;
  out.digest = chaosDigest(*table, universe);
  testing::expectMatchesLedger(*table, ledger,
                               std::numeric_limits<std::uint64_t>::max(),
                               universe);
  const auto io = table->ioStats();
  out.faults = shim.faultsInjected();
  out.retries = io.io_retries;
  out.gave_up = io.io_gave_up;
  shim.clear();  // the teardown's flush and free walks run fault-free
  return out;
}

class ChaosEquivalenceTest : public ::testing::TestWithParam<TableKind> {};

TEST_P(ChaosEquivalenceTest, TransientFaultsPreserveContentsBitExact) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const ChaosOutcome clean = chaosRun(GetParam(), seed, /*faulted=*/false);
    const ChaosOutcome chaos = chaosRun(GetParam(), seed, /*faulted=*/true);
    EXPECT_EQ(chaos.digest, clean.digest)
        << tableKindName(GetParam()) << " diverged under chaos seed " << seed;
    EXPECT_GT(chaos.faults, 0u)
        << "schedule never fired (seed " << seed << ")";
    EXPECT_GT(chaos.retries, 0u);
    EXPECT_EQ(chaos.gave_up, 0u);
    EXPECT_EQ(clean.faults, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ChaosEquivalenceTest,
                         ::testing::ValuesIn(tables::kAllTableKindsWithSharded),
                         kindName);

// Permanent-fault schedule: the pipeline fail-stops with every future
// resolved, the faulted shard latches, and the healthy shards keep
// serving through the façade.
TEST(ChaosPermanent, PipelineFailStopsAndHealthyShardsServe) {
  FaultyFileOps shim(37);
  TestRig rig(kChaosB, /*memory_words=*/0, 42);
  tables::GeneralConfig config;
  config.shards = 4;
  config.sharded_inner = TableKind::kChaining;
  config.shard_threads = 2;
  config.expected_n = kChaosUniverse;
  config.target_load = 0.5;
  config.shard_storage = fileStorageOptions(&shim);
  ShardedTable table(rig.context(), config);

  const auto universe = distinctKeys(kChaosUniverse, 7);
  {
    IngestPipeline pipe(table, {.batch_capacity = 32});
    for (std::size_t i = 0; i < universe.size(); ++i) {
      pipe.insert(universe[i], i + 1);
    }
    pipe.drain();

    // Shard 2's file goes permanently bad mid-stream.
    const int shard2 = fileOf(table.shardDevice(2));
    shim.failNth(FileSyscall::kPwrite,
                 shim.count(FileSyscall::kPwrite, shard2) + 1, EIO,
                 /*sticky=*/true, shard2);

    std::vector<std::future<std::optional<std::uint64_t>>> lookups;
    try {
      for (std::size_t i = 0; i < universe.size(); ++i) {
        pipe.insert(universe[i], 1000 + i);
        lookups.push_back(pipe.submitLookup(universe[i]));
      }
    } catch (const IoError&) {
    }
    EXPECT_THROW(pipe.drain(), PermanentIoError);

    // Fail-stopped, not hung: every obtained future resolves.
    for (auto& f : lookups) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
      try {
        (void)f.get();
      } catch (const IoError&) {
      }
    }
  }  // pipeline destructor tolerates the latched state

  // The façade isolated the fault to one shard...
  EXPECT_EQ(table.failedShardCount(), 1u);
  EXPECT_TRUE(table.shardFailed(2));
  // ...and healthy shards keep serving through the batch path.
  std::vector<std::optional<std::uint64_t>> out(universe.size());
  EXPECT_THROW(table.lookupBatch(universe, out), IoError);
  std::size_t served = 0;
  for (const auto& v : out) served += v.has_value();
  EXPECT_GT(served, universe.size() / 2);

  // Recovery: fault cleared, shard re-admitted, pipeline traffic resumes.
  shim.clear();
  table.clearShardErrors();
  IngestPipeline pipe(table, {.batch_capacity = 32});
  EXPECT_NO_THROW({
    for (std::size_t i = 0; i < universe.size(); ++i) {
      pipe.insert(universe[i], 5000 + i);
    }
    pipe.drain();
  });
  EXPECT_EQ(table.lookup(universe[0]), std::optional<std::uint64_t>(5000));
}

}  // namespace
}  // namespace exthash
