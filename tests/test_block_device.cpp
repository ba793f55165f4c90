#include "extmem/block_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/assert.h"

namespace exthash::extmem {
namespace {

TEST(BlockDevice, AllocateReadWriteRoundTrip) {
  BlockDevice dev(16);
  const BlockId id = dev.allocate();
  dev.withWrite(id, [&](std::span<Word> data) {
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = i * 3;
  });
  dev.withRead(id, [&](std::span<const Word> data) {
    for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(data[i], i * 3);
  });
}

TEST(BlockDevice, FreshBlocksAreZeroed) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  dev.withRead(id, [&](std::span<const Word> data) {
    for (const Word w : data) EXPECT_EQ(w, 0u);
  });
}

TEST(BlockDevice, ReuseIsZeroedToo) {
  BlockDevice dev(8);
  const BlockId a = dev.allocate();
  dev.withWrite(a, [](std::span<Word> d) { d[0] = 0xdead; });
  dev.free(a);
  const BlockId b = dev.allocate();
  EXPECT_EQ(a, b);  // pooled reuse
  dev.withRead(b, [](std::span<const Word> d) { EXPECT_EQ(d[0], 0u); });
}

TEST(BlockDevice, IoAccountingMatchesConvention) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  EXPECT_EQ(dev.stats().cost(), 0u);  // allocation is metadata, not I/O

  dev.withRead(id, [](std::span<const Word>) {});
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().cost(), 1u);

  dev.withWrite(id, [](std::span<Word>) {});  // read-modify-write: cost 1
  EXPECT_EQ(dev.stats().rmws, 1u);
  EXPECT_EQ(dev.stats().cost(), 2u);
  EXPECT_EQ(dev.stats().rawAccesses(), 3u);  // rmw touches twice

  dev.withOverwrite(id, [](std::span<Word>) {});
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().cost(), 3u);
}

TEST(BlockDevice, OverwriteClearsPreviousContents) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  dev.withWrite(id, [](std::span<Word> d) { d[5] = 77; });
  dev.withOverwrite(id, [](std::span<Word> d) { d[0] = 1; });
  dev.withRead(id, [](std::span<const Word> d) {
    EXPECT_EQ(d[0], 1u);
    EXPECT_EQ(d[5], 0u);
  });
}

TEST(BlockDevice, ExtentIdsAreContiguous) {
  BlockDevice dev(8);
  const BlockId base = dev.allocateExtent(10);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(dev.isAllocated(base + i));
  }
  EXPECT_EQ(dev.blocksInUse(), 10u);
  dev.freeExtent(base, 10);
  EXPECT_EQ(dev.blocksInUse(), 0u);
}

TEST(BlockDevice, ExtentPoolingReusesExactSizes) {
  BlockDevice dev(8);
  const BlockId a = dev.allocateExtent(4);
  dev.freeExtent(a, 4);
  const BlockId b = dev.allocateExtent(4);
  EXPECT_EQ(a, b);
}

TEST(BlockDevice, FreedNeighboursCoalesceAndSplit) {
  BlockDevice dev(8);
  const BlockId a = dev.allocateExtent(4);
  const BlockId b = dev.allocateExtent(4);
  const BlockId c = dev.allocateExtent(4);
  dev.freeExtent(b, 4);
  dev.freeExtent(a, 4);  // coalesces with b's range
  EXPECT_EQ(dev.allocateExtent(8), a);
  dev.freeExtent(a, 8);
  // Best fit splits the range; the tail stays free for the next request.
  EXPECT_EQ(dev.allocateExtent(3), a);
  EXPECT_EQ(dev.allocateExtent(5), a + 3);
  EXPECT_EQ(dev.idSpaceSize(), c + 4);
}

// The rebuild pattern of every merge: a new, slightly larger extent is
// built while the old one is live, then the old one is freed, with single
// overflow blocks coming and going in between. Reusing freed ranges keeps
// the id space within a small factor of the live blocks.
TEST(BlockDevice, GrowingRebuildsReuseFreedRanges) {
  BlockDevice dev(8);
  std::size_t size = 16;
  BlockId live = dev.allocateExtent(size);
  std::vector<BlockId> singles;
  std::size_t peak = dev.blocksInUse();
  for (int round = 0; round < 60; ++round) {
    const std::size_t next_size = size + size / 8 + 1;
    const BlockId next = dev.allocateExtent(next_size);
    singles.push_back(dev.allocate());
    peak = std::max(peak, dev.blocksInUse());
    dev.freeExtent(live, size);
    if (round % 3 == 0) {
      dev.free(singles.front());
      singles.erase(singles.begin());
    }
    live = next;
    size = next_size;
  }
  EXPECT_LE(dev.idSpaceSize(), 3 * peak)
      << "ids " << dev.idSpaceSize() << ", peak live " << peak;
}

TEST(BlockDevice, ImageRoundTripKeepsFreeRanges) {
  BlockDevice dev(8);
  const BlockId a = dev.allocateExtent(6);
  dev.allocateExtent(2);
  const BlockId c = dev.allocateExtent(5);
  dev.allocateExtent(1);
  dev.freeExtent(a, 6);
  dev.freeExtent(c, 5);
  BlockDevice::Image image;
  dev.captureImage(image);
  EXPECT_EQ(image.free_ranges.size(), 2u);

  // Use up the free ranges, then rewind: the ranges come back, and
  // allocation picks up exactly where the image left off.
  dev.allocateExtent(6);
  dev.allocateExtent(5);
  dev.restoreImage(image);
  BlockDevice::Image rewound;
  dev.captureImage(rewound);
  EXPECT_EQ(rewound.free_ranges, image.free_ranges);
  EXPECT_EQ(dev.allocateExtent(4), c);  // best fit: the 5-block range
  EXPECT_EQ(dev.allocateExtent(6), a);

  // Reuse: capture a smaller device into an image that last held dev's
  // capture — more blocks, other contents, free ranges and allocation
  // bits. Nothing of the old capture may survive: every field equals a
  // fresh capture's, and the image restores.
  for (BlockId id = 0; id < dev.idSpaceSize(); ++id) {
    if (dev.isAllocated(id)) dev.writeCopy(id, std::vector<Word>{0xF00 + id});
  }
  BlockDevice small(8);
  const BlockId s = small.allocateExtent(4);
  for (BlockId id = s; id < s + 4; ++id) {
    small.writeCopy(id, std::vector<Word>{id + 7, 0xABC});
  }
  small.free(s + 2);
  BlockDevice::Image reused;
  dev.captureImage(reused);
  ASSERT_GT(reused.next_id, 4u);
  ASSERT_TRUE(reused.free_ranges.count(12));
  const Word* buffer = reused.words.data();
  small.captureImage(reused);
  EXPECT_EQ(reused.words.data(), buffer) << "the smaller capture reallocated";
  BlockDevice::Image fresh;
  small.captureImage(fresh);
  EXPECT_EQ(reused.words_per_block, fresh.words_per_block);
  EXPECT_EQ(reused.words, fresh.words);
  EXPECT_EQ(reused.allocated, fresh.allocated);
  EXPECT_EQ(reused.free_ranges, fresh.free_ranges);
  EXPECT_EQ(reused.next_id, fresh.next_id);
  EXPECT_EQ(reused.blocks_in_use, fresh.blocks_in_use);

  EXPECT_EQ(small.allocate(), s + 2);
  small.writeCopy(s, std::vector<Word>{999});
  small.restoreImage(reused);
  EXPECT_FALSE(small.isAllocated(s + 2));
  EXPECT_EQ(small.blocksInUse(), 3u);
  for (const BlockId id : {s, s + 1, s + 3}) {
    EXPECT_EQ(small.readCopy(id)[0], id + 7) << "block " << id;
    EXPECT_EQ(small.readCopy(id)[1], 0xABCu) << "block " << id;
  }
  BlockDevice::Image restored;
  small.captureImage(restored);
  EXPECT_TRUE(restored == fresh);
}

TEST(BlockDevice, AccessAfterFreeIsAnError) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  dev.free(id);
  EXPECT_THROW(dev.withRead(id, [](std::span<const Word>) {}),
               exthash::CheckFailure);
  EXPECT_THROW(dev.free(id), exthash::CheckFailure);
}

TEST(BlockDevice, SpansStayValidAcrossAllocation) {
  // The chunk-stable storage contract: a span obtained inside a guarded
  // access must survive allocations made inside the callback (tables link
  // overflow blocks this way).
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  dev.withWrite(id, [&](std::span<Word> data) {
    data[0] = 42;
    for (int i = 0; i < 5000; ++i) dev.allocate();  // force new chunks
    data[1] = 43;  // still valid
    EXPECT_EQ(data[0], 42u);
  });
  dev.withRead(id, [](std::span<const Word> d) {
    EXPECT_EQ(d[0], 42u);
    EXPECT_EQ(d[1], 43u);
  });
}

TEST(BlockDevice, InspectDoesNotCount) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  const auto before = dev.stats().cost();
  (void)dev.inspect(id);
  EXPECT_EQ(dev.stats().cost(), before);
}

TEST(BlockDevice, RejectsTinyBlocks) {
  EXPECT_THROW(BlockDevice dev(2), exthash::CheckFailure);
}

TEST(IoProbe, MeasuresDeltas) {
  BlockDevice dev(8);
  const BlockId id = dev.allocate();
  dev.withRead(id, [](std::span<const Word>) {});
  IoProbe probe(dev);
  dev.withRead(id, [](std::span<const Word>) {});
  dev.withWrite(id, [](std::span<Word>) {});
  EXPECT_EQ(probe.reads(), 1u);
  EXPECT_EQ(probe.rmws(), 1u);
  EXPECT_EQ(probe.cost(), 2u);
}

}  // namespace
}  // namespace exthash::extmem
