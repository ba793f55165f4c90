// CheckFailure propagation out of worker threads.
//
// EXTHASH_CHECK violations (and any other exception) raised on a
// background thread must reach the caller that owns the work, not kill
// the process or vanish: the pipeline surfaces its worker's first error
// at drain()/submit, and the sharded façade's parallelFor rethrows into
// the batch caller. The trigger used here is the tombstone-sentinel check
// in the deferred-delete tables (inserting value == kTombstoneValue is a
// contract violation those tables CHECK against).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
#include <stdexcept>
#include <vector>

#include "extmem/record.h"
#include "pipeline/ingest_pipeline.h"
#include "table_test_util.h"
#include "tables/buffer_btree_table.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"
#include "util/assert.h"

namespace {

using exthash::CheckFailure;
using exthash::kTombstoneValue;
using exthash::pipeline::IngestPipeline;
using exthash::tables::BufferBTreeTable;
using exthash::tables::GeneralConfig;
using exthash::tables::Op;
using exthash::tables::ShardedTable;
using exthash::tables::TableKind;
using exthash::testing::distinctKeys;
using exthash::testing::TestRig;

TEST(CheckPropagation, PipelineWorkerCheckFailureReachesDrain) {
  TestRig rig(8);
  BufferBTreeTable table(rig.context());
  IngestPipeline pipeline(table, {.batch_capacity = 8});
  for (const auto k : distinctKeys(4)) pipeline.insert(k, k + 1);
  // The sentinel value violates the table's tombstone CHECK when the
  // worker applies the sealed window.
  pipeline.insert(99, kTombstoneValue);
  EXPECT_THROW(pipeline.drain(), CheckFailure);
}

TEST(CheckPropagation, PipelineWorkerErrorAlsoSurfacesAtNextSubmitBarrier) {
  TestRig rig(8);
  BufferBTreeTable table(rig.context());
  // Window of 1 with one pending slot: the poisoned window is applied in
  // the background while later submits are still accepted; the error must
  // surface at the next blocking point rather than be lost.
  IngestPipeline pipeline(table, {.batch_capacity = 1});
  pipeline.insert(99, kTombstoneValue);
  EXPECT_THROW(
      {
        for (std::uint64_t k = 0; k < 1000; ++k) pipeline.insert(k, k + 1);
        pipeline.drain();
      },
      CheckFailure);
}

TEST(CheckPropagation, PipelineMaintenanceErrorReachesDrain) {
  TestRig rig(8);
  BufferBTreeTable table(rig.context());
  IngestPipeline pipeline(table, {.batch_capacity = 8});
  pipeline.submitMaintenance([] { throw std::runtime_error("maintenance"); });
  EXPECT_THROW(pipeline.drain(), std::runtime_error);
}

TEST(CheckPropagation, WorkerFaultResolvesEveryPendingLookupFuture) {
  TestRig rig(8);
  BufferBTreeTable table(rig.context());
  // Small windows with one pending slot: the poisoned window fails on the
  // worker while the producer is still racing in lookups behind it. The
  // fail-stop contract says every future obtained before the latch must
  // resolve — with a value or with the stored error — never hang on a
  // broken promise.
  IngestPipeline pipeline(table, {.batch_capacity = 4});
  pipeline.insert(99, kTombstoneValue);

  std::vector<std::future<std::optional<std::uint64_t>>> futures;
  try {
    for (std::uint64_t k = 0; k < 200; ++k) {
      pipeline.insert(k, k + 1);
      // Keys with no staged op, so the lookups queue on the worker rather
      // than being answered from the staging window.
      futures.push_back(pipeline.submitLookup(k + 1'000'000));
    }
  } catch (const CheckFailure&) {
    // Fail-stop may reject late submissions at the submit barrier.
  }
  EXPECT_THROW(pipeline.drain(), CheckFailure);

  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready)
        << "a submitLookup future was left unresolved (broken promise)";
    try {
      (void)f.get();
    } catch (const CheckFailure&) {
    }
  }

  // reset() clears the latch; the pipeline serves again on the surviving
  // table contents.
  pipeline.reset();
  EXPECT_NO_THROW({
    pipeline.insert(7777, 8);
    pipeline.drain();
  });
  EXPECT_EQ(table.lookup(7777), std::optional<std::uint64_t>(8));
}

TEST(CheckPropagation, ShardedParallelForRethrowsWorkerCheckFailure) {
  TestRig rig(8);
  GeneralConfig config;
  config.shards = 2;
  config.sharded_inner = TableKind::kBufferBTree;
  config.shard_threads = 2;
  ShardedTable table(rig.context(), config);

  std::vector<Op> ops;
  for (const auto k : distinctKeys(32)) ops.push_back(Op::insertOp(k, k + 1));
  ops.push_back(Op::insertOp(99, kTombstoneValue));
  EXPECT_THROW(table.applyBatch(ops), CheckFailure);

  // The façade stays usable for the shards the poison never reached:
  // clean batches still apply after the failed one.
  std::vector<Op> clean;
  for (const auto k : distinctKeys(16, /*seed=*/11)) {
    clean.push_back(Op::insertOp(k, k + 1));
  }
  EXPECT_NO_THROW(table.applyBatch(clean));
}

}  // namespace
