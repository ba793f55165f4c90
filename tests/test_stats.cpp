#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>

#include "extmem/io_stats.h"

namespace exthash {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.push(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat all, left, right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.push(x);
    (i < 37 ? left : right).push(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, b;
  a.push(1.0);
  a.push(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Quantile, Median) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({5, 1, 3}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({5, 1, 3}, 1.0), 5.0);
}

// Every IoStats field, by name. The static_assert keeps the list whole:
// a counter added to IoStats without joining it fails to compile.
struct IoCounter {
  const char* name;
  std::uint64_t extmem::IoStats::*field;
};
constexpr IoCounter kIoCounters[] = {
    {"reads", &extmem::IoStats::reads},
    {"writes", &extmem::IoStats::writes},
    {"rmws", &extmem::IoStats::rmws},
    {"allocated_blocks", &extmem::IoStats::allocated_blocks},
    {"freed_blocks", &extmem::IoStats::freed_blocks},
    {"cache_hits", &extmem::IoStats::cache_hits},
    {"cache_writebacks", &extmem::IoStats::cache_writebacks},
    {"cache_ghost_hits", &extmem::IoStats::cache_ghost_hits},
    {"cache_bypass_reads", &extmem::IoStats::cache_bypass_reads},
    {"io_retries", &extmem::IoStats::io_retries},
    {"io_gave_up", &extmem::IoStats::io_gave_up},
    {"fsyncs", &extmem::IoStats::fsyncs},
};
static_assert(sizeof(extmem::IoStats) ==
              std::size(kIoCounters) * sizeof(std::uint64_t));

TEST(IoStats, PlusAggregatesEveryCounter) {
  // Distinct values everywhere, so a counter dropped from operator+= or
  // operator- (or crossed with another) shows up by name.
  extmem::IoStats a;
  extmem::IoStats b;
  for (std::size_t i = 0; i < std::size(kIoCounters); ++i) {
    a.*kIoCounters[i].field = 3 + 2 * i;
    b.*kIoCounters[i].field = 100 + 7 * i;
  }

  const extmem::IoStats sum = a + b;
  extmem::IoStats acc = a;
  acc += b;
  // a+b-b round-trips to a (the shard aggregation / probe-delta pair).
  const extmem::IoStats back = sum - b;
  for (const IoCounter& c : kIoCounters) {
    EXPECT_EQ(sum.*c.field, a.*c.field + b.*c.field) << c.name;
    EXPECT_EQ(acc.*c.field, sum.*c.field) << c.name;
    EXPECT_EQ(back.*c.field, a.*c.field) << c.name;
  }
  EXPECT_EQ(sum.cost(), sum.reads + sum.writes + sum.rmws);
  EXPECT_EQ(sum.rawAccesses(), sum.reads + sum.writes + 2 * sum.rmws);
}

TEST(IoStats, PlusIdentityAndAccumulation) {
  extmem::IoStats zero;
  extmem::IoStats a;
  a.reads = 4;
  a.rmws = 6;
  const extmem::IoStats same = a + zero;
  EXPECT_EQ(same.cost(), a.cost());

  // Summing per-shard deltas equals the combined delta.
  extmem::IoStats total;
  for (int s = 0; s < 4; ++s) {
    extmem::IoStats shard;
    shard.reads = static_cast<std::uint64_t>(s);
    shard.writes = 1;
    total += shard;
  }
  EXPECT_EQ(total.reads, 0u + 1u + 2u + 3u);
  EXPECT_EQ(total.writes, 4u);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.push(-1.0);
  h.push(0.0);
  h.push(5.5);
  h.push(9.999);
  h.push(10.0);
  h.push(42.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.bucketLow(5), 5.0);
}

}  // namespace
}  // namespace exthash
