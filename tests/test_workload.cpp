#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <unordered_map>

#include "table_test_util.h"
#include "tables/chaining_table.h"
#include "workload/keygen.h"
#include "workload/runner.h"
#include "workload/trace.h"

namespace exthash::workload {
namespace {

using exthash::testing::TestRig;
using tables::BucketIndexer;
using tables::ChainingHashTable;

TEST(KeyGen, DistinctStreamNeverRepeats) {
  DistinctKeyStream stream(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 50000; ++i) {
    ASSERT_TRUE(seen.insert(stream.next()).second);
  }
}

TEST(KeyGen, DistinctStreamIsSeedDeterministic) {
  DistinctKeyStream a(5), b(5), c(6);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
  }
  EXPECT_NE(a.next(), c.next());
}

TEST(KeyGen, FactoryParsesSpecs) {
  EXPECT_EQ(makeKeyStream("distinct", 1, 100)->name(), "distinct-random");
  EXPECT_EQ(makeKeyStream("uniform", 1, 100)->name(), "uniform");
  EXPECT_EQ(makeKeyStream("sequential", 1, 100)->name(), "sequential");
  EXPECT_EQ(makeKeyStream("zipf:0.9", 1, 100)->name(), "zipf");
  EXPECT_THROW(makeKeyStream("nope", 1, 100), CheckFailure);
}

TEST(KeyGen, ZipfStreamRepeatsHotKeys) {
  auto stream = makeKeyStream("zipf:1.2", 3, 1000);
  std::unordered_map<std::uint64_t, int> counts;
  for (int i = 0; i < 5000; ++i) ++counts[stream->next()];
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 100);  // a hot key dominates
}

TEST(Trace, RoundTripsThroughDisk) {
  std::vector<Operation> ops = {
      {OpType::kInsert, 1, 10},
      {OpType::kLookup, 1, 0},
      {OpType::kErase, 1, 0},
      {OpType::kInsert, ~std::uint64_t{0}, 99},
  };
  const std::string path = ::testing::TempDir() + "/exthash_trace_test.bin";
  writeTrace(path, ops);
  const auto back = readTrace(path);
  EXPECT_EQ(back, ops);
  std::remove(path.c_str());
}

TEST(Trace, RejectsGarbageFiles) {
  const std::string path = ::testing::TempDir() + "/exthash_garbage.bin";
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("definitely not a trace", f);
  std::fclose(f);
  EXPECT_THROW(readTrace(path), CheckFailure);
  std::remove(path.c_str());
  EXPECT_THROW(readTrace("/nonexistent/dir/trace.bin"), CheckFailure);
}

TEST(Trace, ReplayAppliesOperations) {
  TestRig rig(8);
  ChainingHashTable table(rig.context(), {8, BucketIndexer{}});
  std::vector<Operation> ops = {
      {OpType::kInsert, 10, 1}, {OpType::kInsert, 20, 2},
      {OpType::kLookup, 10, 0}, {OpType::kLookup, 999, 0},
      {OpType::kErase, 10, 0},  {OpType::kErase, 10, 0},
  };
  const auto result = replayTrace(table, ops);
  EXPECT_EQ(result.inserts, 2u);
  EXPECT_EQ(result.lookups, 2u);
  EXPECT_EQ(result.lookup_hits, 1u);
  EXPECT_EQ(result.erases, 2u);
  EXPECT_EQ(result.erase_hits, 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(20).value(), 2u);
}

TEST(Runner, MeasuresChainingAtTextbookCosts) {
  TestRig rig(32);
  ChainingHashTable table(rig.context(), {64, BucketIndexer{}});
  DistinctKeyStream keys(17);
  MeasurementConfig cfg;
  cfg.n = 1024;  // load 1/2
  cfg.queries_per_checkpoint = 128;
  cfg.checkpoints = 4;
  cfg.seed = 99;
  const auto m = runMeasurement(table, keys, cfg);
  EXPECT_EQ(m.n, 1024u);
  // Standard hash table: both costs hug 1.
  EXPECT_GE(m.tu, 1.0);
  EXPECT_LT(m.tu, 1.1);
  EXPECT_GE(m.tq_mean, 1.0);
  EXPECT_LT(m.tq_mean, 1.1);
  EXPECT_GE(m.tq_worst, m.tq_mean);
  EXPECT_GT(m.checkpoint_costs.count(), 2u);
  EXPECT_GT(m.insert_io.rmws, 0u);
}

TEST(Runner, UnsuccessfulSamplingWorks) {
  TestRig rig(16);
  ChainingHashTable table(rig.context(), {32, BucketIndexer{}});
  DistinctKeyStream keys(21);
  MeasurementConfig cfg;
  cfg.n = 256;
  cfg.queries_per_checkpoint = 64;
  cfg.checkpoints = 2;
  cfg.measure_unsuccessful = true;
  const auto m = runMeasurement(table, keys, cfg);
  EXPECT_GE(m.tq_unsuccessful, 1.0);
}

}  // namespace
}  // namespace exthash::workload
