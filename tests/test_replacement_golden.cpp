// Golden replacement decisions: one seeded trace through every
// replacement policy (LRU, 2Q, ARC) in both write policies, with the final
// telemetry, device counters and contents recorded as constants.
//
// The trace mixes reads, read-modify-writes and blind overwrites over a
// skewed universe; nested (pinned) accesses up to three deep; invalidate,
// free and re-allocate of ids; resize down then up; ghost-horizon changes;
// a discardAll; and per-block write-back faults (one transient, one
// permanent, both sticky) that drive quarantine and the give-up escalation.
// The device is file-backed, so the faults are bad byte ranges scripted on
// its file (FaultyFileOps). Every read is checked against an expected
// copy, and the cache is audited after each phase.
//
// The constants pin the policies' exact decisions: a change to victim
// choice, ghost bookkeeping, admission or ARC's adaptation moves hits,
// misses, ghost hits or device reads. Faults target blocks, not op
// numbers, so the order flush() visits dirty frames in does not matter.
#include <gtest/gtest.h>

#include <cerrno>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "extmem/block_cache.h"
#include "extmem/fault.h"
#include "extmem/faulty_file_ops.h"
#include "table_test_util.h"
#include "util/audit.h"
#include "util/random.h"

namespace exthash::extmem {
namespace {

constexpr std::size_t kWords = 8;
constexpr std::size_t kUniverse = 96;
constexpr std::size_t kHot = 20;
constexpr std::size_t kInitialFrames = 16;

struct Outcome {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t ghost_hits = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t writeback_failures = 0;
  std::uint64_t gave_up = 0;
  double target_sum = 0.0;  // adaptiveTarget() summed after every step
  double adaptive_target = 0.0;
  std::size_t resident = 0;
  std::size_t ghosts = 0;
  std::size_t dirty = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t rmws = 0;
  std::uint64_t faults = 0;  // syscalls the shim failed or cut short
  std::uint64_t io_retries = 0;
  std::uint64_t io_gave_up = 0;
  std::uint64_t io_errors = 0;  // IoErrors the trace caught
  std::uint64_t checksum = 0;

  bool operator==(const Outcome&) const = default;
};

// Printed as an initializer, so a deliberate change can re-record it.
std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  os.precision(17);
  return os << "{" << o.hits << ", " << o.misses << ", " << o.ghost_hits
            << ", " << o.writebacks << ", " << o.writeback_failures << ", "
            << o.gave_up << ", " << o.target_sum << ", " << o.adaptive_target
            << ", " << o.resident << ", " << o.ghosts << ", " << o.dirty
            << ", " << o.reads << ", " << o.writes << ", " << o.rmws << ", "
            << o.faults << ", " << o.io_retries << ", "
            << o.io_gave_up << ", " << o.io_errors << ", " << o.checksum
            << "ULL}";
}

class GoldenTrace {
 public:
  GoldenTrace(ReplacementKind kind, BlockCache::WritePolicy policy)
      : faults_(0x5eed),
        dev_(kWords, testing::fileStorageOptions(&faults_)),
        cache_(dev_, budget_, kInitialFrames, policy, kind),
        rng_(0x601d) {
    for (std::size_t i = 0; i < kUniverse; ++i) {
      ids_.push_back(dev_.allocate());
      expected_[ids_.back()].assign(kWords, 0);
    }
  }

  Outcome run() {
    phase(2500);

    cache_.resize(6);
    phase(600);
    cache_.resize(24);
    cache_.setGhostHorizon(40);
    phase(1500);

    // Two hot blocks go bad while dirty (in write-back mode): one
    // transient and one permanent fault, both sticky.
    write(ids_[0], 0, 1);
    write(ids_[1], 0, 2);
    testing::failBlock(faults_, dev_, ids_[0], EAGAIN);
    testing::failBlock(faults_, dev_, ids_[1], EIO);
    RetryPolicy retry;
    retry.max_attempts = 2;
    retry.backoff_quanta = 0;
    dev_.setRetryPolicy(retry);
    cache_.setQuarantineGiveUpThreshold(3);
    phase(800);
    faults_.clear();
    cache_.flush();
    expectAuditClean();

    // Recovery-style drop of every frame and ghost: dirty data is lost,
    // so the expected copy follows the device.
    cache_.discardAll();
    for (const BlockId id : ids_) {
      const auto data = dev_.inspect(id);
      expected_[id].assign(data.begin(), data.end());
    }
    expectAuditClean();
    cache_.resize(12);
    cache_.setGhostHorizon(0);
    phase(800);

    Outcome out;
    out.hits = cache_.hits();
    out.misses = cache_.misses();
    out.ghost_hits = cache_.ghostHits();
    out.target_sum = target_sum_;
    out.adaptive_target = cache_.adaptiveTarget();
    out.resident = cache_.residentBlocks();
    out.ghosts = cache_.ghostEntries();
    out.dirty = cache_.dirtyBlocks();
    cache_.flush();
    expectAuditClean();
    out.writebacks = cache_.writebacks();
    out.writeback_failures = cache_.writebackFailures();
    out.gave_up = cache_.quarantineGaveUp();
    const IoStats& stats = dev_.stats();
    out.reads = stats.reads;
    out.writes = stats.writes;
    out.rmws = stats.rmws;
    out.faults = faults_.faultsInjected();
    out.io_retries = stats.io_retries;
    out.io_gave_up = stats.io_gave_up;
    out.io_errors = io_errors_;
    std::uint64_t h = 0;
    for (const BlockId id : ids_) {
      const auto data = dev_.inspect(id);
      h = splitmix64(h ^ id);
      for (std::size_t w = 0; w < kWords; ++w) {
        h = splitmix64(h ^ data[w]);
        if (data[w] != expected_[id][w]) ++mismatches_;
      }
    }
    out.checksum = h;
    EXPECT_EQ(mismatches_, 0u) << "reads or the device disagreed with the "
                                  "expected copy";
    return out;
  }

 private:
  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }

  // 70% of picks land on the hot prefix, the rest anywhere.
  BlockId pick() {
    return draw(100) < 70 ? ids_[draw(kHot)] : ids_[draw(ids_.size())];
  }

  void check(BlockId id, std::span<const Word> data) {
    for (std::size_t w = 0; w < kWords; ++w) {
      if (data[w] != expected_[id][w]) ++mismatches_;
    }
  }

  void read(BlockId id) {
    cache_.withRead(id, [&](std::span<const Word> d) { check(id, d); });
  }

  void write(BlockId id, std::size_t word, Word value) {
    cache_.withWrite(id, [&](std::span<Word> d) {
      check(id, d);
      d[word] = value;
      expected_[id][word] = value;
    });
  }

  // A blind overwrite fails at its store, after its callback ran, so the
  // expected copy changes only once the call returned.
  void overwrite(BlockId id, std::size_t word, Word value) {
    cache_.withOverwrite(id, [&](std::span<Word> d) { d[word] = value; });
    expected_[id].assign(kWords, 0);
    expected_[id][word] = value;
  }

  void simple(BlockId id) {
    const std::uint64_t r = draw(100);
    const std::size_t word = draw(kWords);
    const Word value = rng_();
    if (r < 55) {
      read(id);
    } else if (r < 85) {
      write(id, word, value);
    } else {
      overwrite(id, word, value);
    }
  }

  // Nested accesses: the outer span must stay valid (and current) while
  // the inner access admits, evicts, or rewrites other frames.
  void nested() {
    const BlockId outer = pick();
    cache_.withRead(outer, [&](std::span<const Word> d) {
      BlockId inner = pick();
      if (inner == outer) inner = ids_[kHot + draw(kUniverse - kHot)];
      if (draw(3) == 0) {
        cache_.withWrite(inner, [&](std::span<Word> w) {
          check(inner, w);
          w[1] += 1;
          expected_[inner][1] += 1;
          const BlockId third = ids_[kHot + draw(kUniverse - kHot)];
          if (third != outer && third != inner) simple(third);
        });
      } else {
        simple(inner);
      }
      check(outer, d);
    });
  }

  // The owner frees a cold block and allocates a replacement (usually the
  // same id again): the cache must forget the old contents and ghosts.
  void recycle() {
    const std::size_t slot = kHot + draw(kUniverse - kHot);
    const BlockId old_id = ids_[slot];
    cache_.invalidate(old_id);
    dev_.free(old_id);
    expected_.erase(old_id);
    const BlockId id = dev_.allocate();
    ids_[slot] = id;
    expected_[id].assign(kWords, 0);
  }

  void step() {
    const std::uint64_t r = draw(100);
    if (r < 80) {
      simple(pick());
    } else if (r < 94) {
      nested();
    } else if (r < 97) {
      recycle();
    } else {
      cache_.flush();
    }
  }

  void phase(int ops) {
    for (int i = 0; i < ops; ++i) {
      try {
        step();
      } catch (const IoError&) {
        ++io_errors_;
      }
      target_sum_ += cache_.adaptiveTarget();
    }
    expectAuditClean();
  }

  void expectAuditClean() {
    AuditReport report;
    cache_.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
  }

  FaultyFileOps faults_;  // outlives the device over its file
  BlockDevice dev_;
  MemoryBudget budget_{0};
  BlockCache cache_;
  SplitMix64 rng_;
  std::vector<BlockId> ids_;
  std::unordered_map<BlockId, std::vector<Word>> expected_;
  double target_sum_ = 0.0;
  std::uint64_t io_errors_ = 0;
  std::uint64_t mismatches_ = 0;
};

Outcome runTrace(ReplacementKind kind, BlockCache::WritePolicy policy) {
  return GoldenTrace(kind, policy).run();
}

constexpr auto kWt = BlockCache::WritePolicy::kWriteThrough;
constexpr auto kWb = BlockCache::WritePolicy::kWriteBack;

TEST(ReplacementGolden, LruWriteThrough) {
  const Outcome golden{2975, 3914, 0, 0, 0, 0,
                       0, 0, 12, 0, 0,
                       2274, 875, 1966, 106, 39, 67, 67,
                       973605391759651640ULL};
  EXPECT_EQ(runTrace(ReplacementKind::kLru, kWt), golden);
}

TEST(ReplacementGolden, LruWriteBack) {
  const Outcome golden{3475, 3452, 0, 2308, 56, 2,
                       0, 0, 12, 0, 5,
                       3452, 2364, 0, 84, 28, 56, 28,
                       706773121515271904ULL};
  EXPECT_EQ(runTrace(ReplacementKind::kLru, kWb), golden);
}

TEST(ReplacementGolden, TwoQWriteThrough) {
  const Outcome golden{3303, 3586, 832, 0, 0, 0,
                       0, 0, 12, 6, 0,
                       2034, 875, 1966, 107, 40, 67, 67,
                       973605391759651640ULL};
  EXPECT_EQ(runTrace(ReplacementKind::kTwoQ, kWt), golden);
}

TEST(ReplacementGolden, TwoQWriteBack) {
  const Outcome golden{3805, 3122, 843, 2295, 56, 2,
                       0, 0, 12, 6, 10,
                       3122, 2351, 0, 84, 28, 56, 28,
                       706773121515271904ULL};
  EXPECT_EQ(runTrace(ReplacementKind::kTwoQ, kWb), golden);
}

TEST(ReplacementGolden, ArcWriteThrough) {
  const Outcome golden{3436, 3453, 1411, 0, 0, 0,
                       7236.2715598041505, 1, 12, 12, 0,
                       1983, 875, 1966, 106, 39, 67, 67,
                       973605391759651640ULL};
  EXPECT_EQ(runTrace(ReplacementKind::kArc, kWt), golden);
}

TEST(ReplacementGolden, ArcWriteBack) {
  const Outcome golden{3897, 3030, 1450, 2237, 56, 2,
                       7135.796408188472, 1, 12, 12, 10,
                       3030, 2293, 0, 84, 28, 56, 28,
                       706773121515271904ULL};
  EXPECT_EQ(runTrace(ReplacementKind::kArc, kWb), golden);
}

}  // namespace
}  // namespace exthash::extmem
