// Parameterized cost-model sweeps: the measured I/O costs of the classic
// structures must track the Knuth/Poisson model across a (b, α) grid, and
// the 1 + 1/2^Ω(b) collapse must show in the b direction. These are the
// property-style sweeps backing the KNUTH and FIG1 experiments.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/knuth.h"
#include "table_test_util.h"
#include "tables/chaining_table.h"
#include "tables/linear_probing_table.h"

namespace exthash::analysis {
namespace {

using exthash::testing::TestRig;
using exthash::testing::distinctKeys;

struct SweepPoint {
  std::size_t b;
  double alpha;
};

class ChainingCostSweep : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(ChainingCostSweep, MeasuredTracksModel) {
  const auto [b, alpha] = GetParam();
  const std::uint64_t buckets = 4096 / b + 64;  // keep n moderate
  TestRig rig(b, 0, /*seed=*/b * 7 + 1);
  tables::ChainingHashTable table(rig.context(),
                                  {buckets, tables::BucketIndexer{}});
  const auto n = static_cast<std::size_t>(
      alpha * static_cast<double>(b) * static_cast<double>(buckets));
  const auto keys = distinctKeys(n, /*seed=*/b + 31);
  for (const auto k : keys) table.insert(k, 1);

  const extmem::IoProbe probe(*rig.device);
  for (const auto k : keys) ASSERT_TRUE(table.lookup(k).has_value());
  const double measured = static_cast<double>(probe.cost()) /
                          static_cast<double>(keys.size());
  const double model = chainingSuccessfulCost(alpha, b);
  // Model agreement within 8% of the excess over one, plus three standard
  // errors of a mean over n lookups (finite-table fluctuations). Tighter
  // than the whole modelled excess, so a table whose lookups always cost
  // exactly one I/O fails where the excess is large enough to see.
  const double excess = model - 1.0;
  EXPECT_NEAR(measured, model,
              0.08 * excess +
                  3.0 * std::sqrt(excess / static_cast<double>(keys.size())))
      << "b=" << b << " alpha=" << alpha;
}

TEST_P(ChainingCostSweep, InsertCostMatchesLookupCostShape) {
  const auto [b, alpha] = GetParam();
  const std::uint64_t buckets = 4096 / b + 64;
  TestRig rig(b, 0, /*seed=*/b * 13 + 5);
  tables::ChainingHashTable table(rig.context(),
                                  {buckets, tables::BucketIndexer{}});
  const auto n = static_cast<std::size_t>(
      alpha * static_cast<double>(b) * static_cast<double>(buckets));
  const extmem::IoProbe probe(*rig.device);
  const auto keys = distinctKeys(n, /*seed=*/b + 77);
  for (const auto k : keys) table.insert(k, 1);
  const double tu = static_cast<double>(probe.cost()) /
                    static_cast<double>(keys.size());
  // Inserting is one rmw on the same chain the lookup reads: within the
  // unsuccessful-lookup bound plus allocation writes.
  EXPECT_GE(tu, 1.0);
  EXPECT_LE(tu, chainingUnsuccessfulCost(alpha, b) + 0.15)
      << "b=" << b << " alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChainingCostSweep,
    ::testing::Values(SweepPoint{8, 0.5}, SweepPoint{8, 0.8},
                      SweepPoint{16, 0.5}, SweepPoint{16, 0.9},
                      SweepPoint{32, 0.7}, SweepPoint{64, 0.5},
                      SweepPoint{64, 0.9}, SweepPoint{128, 0.8}),
    [](const auto& info) {
      return "b" + std::to_string(info.param.b) + "_a" +
             std::to_string(static_cast<int>(info.param.alpha * 100));
    });

TEST(CostCollapse, QueryPenaltyShrinksGeometricallyInB) {
  // The 1 + 1/2^Ω(b) collapse: at fixed α = 0.7, the measured excess over
  // one block must drop by at least ~4x per doubling of b.
  const double alpha = 0.7;
  double prev_excess = 1.0;
  for (const std::size_t b : {8u, 16u, 32u}) {
    const std::uint64_t buckets = 1024;
    TestRig rig(b, 0, /*seed=*/b);
    tables::ChainingHashTable table(rig.context(),
                                    {buckets, tables::BucketIndexer{}});
    const auto n = static_cast<std::size_t>(
        alpha * static_cast<double>(b) * static_cast<double>(buckets));
    const auto keys = distinctKeys(n, /*seed=*/b + 3);
    for (const auto k : keys) table.insert(k, 1);
    const extmem::IoProbe probe(*rig.device);
    for (const auto k : keys) ASSERT_TRUE(table.lookup(k).has_value());
    const double excess = static_cast<double>(probe.cost()) /
                              static_cast<double>(keys.size()) -
                          1.0;
    EXPECT_LT(excess, prev_excess / 3.0 + 1e-4) << "b=" << b;
    prev_excess = std::max(excess, 1e-9);
  }
}

TEST(CostCollapse, LinearProbingCollapsesToo) {
  const double alpha = 0.7;
  std::vector<double> excesses;
  for (const std::size_t b : {8u, 32u}) {
    const std::uint64_t buckets = 1024;
    TestRig rig(b, 0, /*seed=*/b + 40);
    tables::LinearProbingHashTable table(rig.context(),
                                         {buckets, tables::BucketIndexer{}});
    const auto n = static_cast<std::size_t>(
        alpha * static_cast<double>(b) * static_cast<double>(buckets));
    const auto keys = distinctKeys(n, /*seed=*/b + 41);
    for (const auto k : keys) table.insert(k, 1);
    const extmem::IoProbe probe(*rig.device);
    for (const auto k : keys) ASSERT_TRUE(table.lookup(k).has_value());
    excesses.push_back(static_cast<double>(probe.cost()) /
                           static_cast<double>(keys.size()) -
                       1.0);
  }
  EXPECT_LT(excesses[1], excesses[0] / 3.0 + 1e-4);
}

}  // namespace
}  // namespace exthash::analysis
