// IngestPipeline contract tests.
//
//  * Equivalence sweep: driving any TableKind (including the sharded
//    façade) through the pipeline yields a table observationally identical
//    to the serial insert/erase loop once drained.
//  * Read-your-writes: lookups submitted while the covering batch is still
//    staged or in flight resolve from memory, even when the background
//    apply is blocked.
//  * Ordered shutdown: drain() applies everything and resolves every
//    future before returning.
//  * Counted I/O: distinct-key windows cost what the same applyBatch
//    calls cost.
//  * Backpressure: submit blocks once max_pending_batches windows are
//    sealed and unapplied, and resumes when the worker frees a slot.
//  * Log stage: with a WAL attached, window k+1 is logged while window k
//    is still applying, and at every queue depth the log holds every
//    window once, in seal order.
//  * Errors on the worker surface on drain().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "durability/ledger.h"
#include "durability/wal.h"
#include "pipeline/ingest_pipeline.h"
#include "table_test_util.h"
#include "tables/factory.h"

namespace exthash::pipeline {
namespace {

using exthash::testing::TestRig;
using exthash::testing::distinctKeys;
using tables::Op;
using tables::OpKind;
using tables::TableKind;

// ---------------------------------------------------------------------------
// Equivalence sweep
// ---------------------------------------------------------------------------

struct PipelineCase {
  TableKind kind;
  bool supports_erase;
  /// Repeated keys reliably surface the newest value via lookup() (the
  /// buffered table documents shadow-visible versions; with coalescing
  /// the pipeline applies fewer ops, shifting which version is visible).
  bool supports_update = true;
  /// size() stays exact when duplicates/erases arrive batched (deferred
  /// structures count freshness against flush epochs — same contract as
  /// the applyBatch equivalence sweep).
  bool exact_size = true;
  std::uint8_t unused = 0;  // fills what would be padding (kPrintsStably)
  TableKind inner = TableKind::kChaining;  // kSharded rows only
};
static_assert(exthash::testing::kPrintsStably<PipelineCase>);

class PipelineEquivalenceTest : public ::testing::TestWithParam<PipelineCase> {
 protected:
  static constexpr std::size_t kB = 8;

  std::unique_ptr<tables::ExternalHashTable> makeFor(
      const TestRig& rig, std::size_t expected_n) const {
    tables::GeneralConfig cfg;
    cfg.expected_n = expected_n;
    cfg.target_load = 0.5;
    cfg.buffer_items = 32;
    cfg.beta = 4;
    cfg.gamma = 2;
    cfg.shards = 4;
    cfg.sharded_inner = GetParam().inner;
    cfg.shard_threads = 2;
    return makeTable(GetParam().kind, rig.context(), cfg);
  }

  void expectSameObservations(tables::ExternalHashTable& serial,
                              tables::ExternalHashTable& piped,
                              const std::vector<std::uint64_t>& universe) {
    std::vector<std::optional<std::uint64_t>> batch_out(universe.size());
    piped.lookupBatch(universe, batch_out);
    for (std::size_t i = 0; i < universe.size(); ++i) {
      const auto expected = serial.lookup(universe[i]);
      ASSERT_EQ(piped.lookup(universe[i]), expected)
          << tableKindName(GetParam().kind) << " key " << universe[i];
      ASSERT_EQ(batch_out[i], expected)
          << tableKindName(GetParam().kind) << " lookupBatch key "
          << universe[i];
    }
  }
};

TEST_P(PipelineEquivalenceTest, DrainedPipelineMatchesSerialApply) {
  TestRig serial_rig(kB), piped_rig(kB);
  auto serial = makeFor(serial_rig, 512);
  auto piped = makeFor(piped_rig, 512);

  const auto keys = distinctKeys(400);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(Op::insertOp(keys[i], i + 1));
  }
  if (GetParam().supports_update) {
    // Overwrites, some landing in the same staging window as the original.
    for (std::size_t i = 0; i < 200; ++i) {
      ops.push_back(Op::insertOp(keys[(i * 7) % keys.size()], 10'000 + i));
    }
  }
  if (GetParam().supports_erase) {
    for (std::size_t i = 0; i < 80; ++i) {
      ops.push_back(Op::eraseOp(keys[(i * 5) % keys.size()]));
    }
  }

  for (const Op& op : ops) {
    if (op.kind == OpKind::kInsert) serial->insert(op.key, op.value);
    else serial->erase(op.key);
  }

  PipelineConfig pc;
  pc.batch_capacity = 64;
  pc.max_pending_batches = 2;
  {
    IngestPipeline pipe(*piped, pc);
    for (const Op& op : ops) pipe.submit(op);
    pipe.drain();
    EXPECT_EQ(pipe.stats().ops_submitted, ops.size());
    if (GetParam().exact_size) {
      EXPECT_EQ(piped->size(), serial->size())
          << tableKindName(GetParam().kind);
    }
  }

  auto universe = keys;
  const auto absent = distinctKeys(64, /*seed=*/4242);
  universe.insert(universe.end(), absent.begin(), absent.end());
  expectSameObservations(*serial, *piped, universe);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PipelineEquivalenceTest,
    ::testing::Values(
        PipelineCase{TableKind::kChaining, true},
        PipelineCase{TableKind::kLinearProbing, true},
        PipelineCase{TableKind::kExtendible, true},
        PipelineCase{TableKind::kLinearHashing, true},
        PipelineCase{TableKind::kLogMethod, true, true, false},
        PipelineCase{TableKind::kBuffered, false, false, false},
        PipelineCase{TableKind::kJensenPagh, true},
        PipelineCase{TableKind::kBTree, true},
        PipelineCase{TableKind::kLsm, true, true, false},
        PipelineCase{TableKind::kCuckoo, true},
        PipelineCase{TableKind::kBufferBTree, true, true, false},
        PipelineCase{.kind = TableKind::kSharded,
                     .supports_erase = true,
                     .inner = TableKind::kChaining},
        PipelineCase{.kind = TableKind::kSharded,
                     .supports_erase = false,
                     .supports_update = false,
                     .exact_size = false,
                     .inner = TableKind::kBuffered}),
    [](const ::testing::TestParamInfo<PipelineCase>& info) {
      std::string name(tableKindName(info.param.kind));
      if (info.param.kind == TableKind::kSharded) {
        name += "_";
        name += tableKindName(info.param.inner);
      }
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// Concurrency behaviour, driven through a gate that blocks applyBatch.
// ---------------------------------------------------------------------------

/// Decorator that parks applyBatch calls on a gate until released; all
/// other calls forward. Lets tests pin a batch "in flight".
class GatedTable final : public tables::ExternalHashTable {
 public:
  GatedTable(tables::TableContext ctx,
             std::unique_ptr<tables::ExternalHashTable> inner)
      : ExternalHashTable(std::move(ctx)), inner_(std::move(inner)) {}

  void open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Batches that entered applyBatch (i.e. are held at or past the gate).
  std::size_t applyCalls() const {
    std::lock_guard lock(mutex_);
    return apply_calls_;
  }

  bool insert(std::uint64_t key, std::uint64_t value) override {
    return inner_->insert(key, value);
  }
  std::optional<std::uint64_t> lookup(std::uint64_t key) override {
    return inner_->lookup(key);
  }
  bool erase(std::uint64_t key) override { return inner_->erase(key); }
  void applyBatch(std::span<const Op> ops) override {
    {
      std::unique_lock lock(mutex_);
      ++apply_calls_;
      cv_.wait(lock, [this] { return open_; });
    }
    inner_->applyBatch(ops);
  }
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override {
    inner_->lookupBatch(keys, out);
  }
  std::size_t size() const override { return inner_->size(); }
  std::string_view name() const override { return "gated"; }
  void visitLayout(tables::LayoutVisitor& v) const override {
    inner_->visitLayout(v);
  }
  extmem::IoStats ioStats() const override { return inner_->ioStats(); }

 private:
  std::unique_ptr<tables::ExternalHashTable> inner_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  std::size_t apply_calls_ = 0;
};

std::unique_ptr<GatedTable> makeGated(const TestRig& rig) {
  tables::GeneralConfig cfg;
  cfg.expected_n = 512;
  cfg.target_load = 0.5;
  auto inner = makeTable(TableKind::kChaining, rig.context(), cfg);
  return std::make_unique<GatedTable>(rig.context(), std::move(inner));
}

TEST(PipelineReadYourWrites, StagedAndInFlightKeysAnswerFromMemory) {
  TestRig rig(8);
  auto gated = makeGated(rig);

  PipelineConfig pc;
  pc.batch_capacity = 4;
  pc.max_pending_batches = 1;
  IngestPipeline pipe(*gated, pc);

  // Fill one window: it seals and parks at the gate (in flight).
  for (std::uint64_t k = 0; k < 4; ++k) pipe.insert(k, 100 + k);
  // Stage more ops, incl. an overwrite of an in-flight key and an erase.
  pipe.insert(1, 999);
  pipe.insert(50, 500);
  pipe.erase(2);

  // All answered from memory — the apply worker is blocked, so a table
  // answer would deadlock the test.
  auto f_inflight = pipe.submitLookup(0);
  auto f_overwritten = pipe.submitLookup(1);
  auto f_staged = pipe.submitLookup(50);
  auto f_erased = pipe.submitLookup(2);
  EXPECT_EQ(f_inflight.get(), std::optional<std::uint64_t>(100));
  EXPECT_EQ(f_overwritten.get(), std::optional<std::uint64_t>(999));
  EXPECT_EQ(f_staged.get(), std::optional<std::uint64_t>(500));
  EXPECT_FALSE(f_erased.get().has_value());
  EXPECT_EQ(pipe.stats().lookups_from_memory, 4u);

  gated->open();
  pipe.drain();
  // After drain the same answers come from the table itself.
  EXPECT_EQ(gated->lookup(0), std::optional<std::uint64_t>(100));
  EXPECT_EQ(gated->lookup(1), std::optional<std::uint64_t>(999));
  EXPECT_EQ(gated->lookup(50), std::optional<std::uint64_t>(500));
  EXPECT_FALSE(gated->lookup(2).has_value());
}

TEST(PipelineDrain, OrderedShutdownAppliesEverythingAndResolvesFutures) {
  TestRig rig(8);
  tables::GeneralConfig cfg;
  cfg.expected_n = 2048;
  cfg.target_load = 0.5;
  auto table = makeTable(TableKind::kChaining, rig.context(), cfg);

  PipelineConfig pc;
  pc.batch_capacity = 32;
  pc.max_pending_batches = 2;
  IngestPipeline pipe(*table, pc);

  const auto keys = distinctKeys(1000);
  std::vector<std::future<std::optional<std::uint64_t>>> futures;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    pipe.insert(keys[i], i);
    if (i % 97 == 0) futures.push_back(pipe.submitLookup(keys[i / 2]));
  }
  pipe.drain();

  EXPECT_EQ(table->size(), keys.size());
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  const auto st = pipe.stats();
  EXPECT_EQ(st.ops_submitted, keys.size());
  EXPECT_EQ(st.ops_applied, keys.size());  // distinct keys: no coalescing
  EXPECT_GE(st.batches_applied, keys.size() / pc.batch_capacity);
  EXPECT_EQ(st.lookups_submitted,
            st.lookups_from_memory + st.lookups_from_table);
}

TEST(PipelineCoalescing, RepeatedKeyInWindowCostsOneTableOp) {
  TestRig rig(8);
  tables::GeneralConfig cfg;
  cfg.expected_n = 64;
  cfg.target_load = 0.5;
  auto table = makeTable(TableKind::kChaining, rig.context(), cfg);

  PipelineConfig pc;
  pc.batch_capacity = 256;  // everything lands in one window
  IngestPipeline pipe(*table, pc);
  for (std::uint64_t round = 0; round < 50; ++round) {
    pipe.insert(7, round);
  }
  pipe.insert(8, 1);
  pipe.drain();

  const auto st = pipe.stats();
  EXPECT_EQ(st.ops_submitted, 51u);
  EXPECT_EQ(st.ops_coalesced, 49u);
  EXPECT_EQ(st.ops_applied, 2u);
  EXPECT_EQ(table->lookup(7), std::optional<std::uint64_t>(49));
}

// Distinct keys never coalesce, so a window-128 pipeline hands the table
// the same eight batches as eight direct applyBatch(128) calls: the same
// table state and the same counted I/O.
TEST(PipelineCounts, DistinctKeyWindowsCostTheSameAsBatchedApply) {
  tables::GeneralConfig cfg;
  cfg.expected_n = 1024;
  cfg.target_load = 0.5;
  const auto keys = distinctKeys(1024);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ops.push_back(Op::insertOp(keys[i], i + 1));
  }

  TestRig batched_rig(32);
  auto batched = makeTable(TableKind::kChaining, batched_rig.context(), cfg);
  for (std::size_t i = 0; i < ops.size(); i += 128) {
    batched->applyBatch(std::span<const Op>(ops).subspan(i, 128));
  }

  TestRig piped_rig(32);
  auto piped = makeTable(TableKind::kChaining, piped_rig.context(), cfg);
  PipelineConfig pc;
  pc.batch_capacity = 128;
  pc.max_pending_batches = 2;
  IngestPipeline pipe(*piped, pc);
  for (const Op& op : ops) pipe.submit(op);
  pipe.drain();

  EXPECT_EQ(pipe.stats().ops_coalesced, 0u);
  EXPECT_EQ(piped->size(), batched->size());
  EXPECT_EQ(piped->ioStats().cost(), batched->ioStats().cost());
}

TEST(PipelineBackpressure, SubmitBlocksWhenWindowsAreFullAndResumes) {
  TestRig rig(8);
  auto gated = makeGated(rig);

  PipelineConfig pc;
  pc.batch_capacity = 2;
  pc.max_pending_batches = 1;
  IngestPipeline pipe(*gated, pc);

  // Window 1 seals (fills the single pending slot) and parks at the gate.
  pipe.insert(1, 1);
  pipe.insert(2, 2);
  // Window 2 accumulates; sealing it must block until the gate opens.
  pipe.insert(3, 3);

  std::atomic<bool> unblocked{false};
  std::thread producer([&] {
    pipe.insert(4, 4);  // seals window 2 -> waits for the pending slot
    pipe.insert(5, 5);
    unblocked = true;
  });

  // The producer must be parked on backpressure while the gate is closed.
  // (Give it ample time to run up against the wait.)
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(unblocked.load());
  EXPECT_LE(gated->applyCalls(), 1u);

  gated->open();
  producer.join();
  EXPECT_TRUE(unblocked.load());
  pipe.drain();
  EXPECT_EQ(gated->size(), 5u);
  EXPECT_GE(pipe.stats().submit_waits, 1u);
}

TEST(PipelineWal, NextWindowLogsWhileTheCurrentOneApplies) {
  TestRig rig(8);
  auto gated = makeGated(rig);
  extmem::BlockDevice wal_device(rig.device->wordsPerBlock(),
                                 exthash::testing::testStorageOptions());
  durability::WalWriter wal(wal_device);

  PipelineConfig pc;
  pc.batch_capacity = 2;
  pc.max_pending_batches = 2;
  pc.wal = &wal;
  durability::AckLedger ledger(pc.batch_capacity);
  // Polls `done` for up to 3 s; the gate stays closed meanwhile, so a
  // failed poll must not return early and leave drain() blocked.
  const auto poll = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };
  {
    IngestPipeline pipe(*gated, pc);
    const auto insert = [&](std::uint64_t key) {
      pipe.insert(key, 100 + key);
      ledger.submit(Op::insertOp(key, 100 + key));
    };
    // Window 1 seals, is logged, and parks inside applyBatch.
    insert(1);
    insert(2);
    EXPECT_TRUE(poll([&] { return gated->applyCalls() == 1; }));
    // Window 2 seals while window 1 is still applying: the log stage logs
    // and syncs it without waiting for the worker.
    insert(3);
    insert(4);
    EXPECT_TRUE(poll([&] { return wal.durableLsn() == 2; }))
        << "window 2 was not logged while window 1 applied";
    EXPECT_EQ(gated->applyCalls(), 1u);

    gated->open();
    pipe.drain();
  }
  EXPECT_EQ(gated->size(), 4u);

  // The log holds both windows, in seal order, exactly as the ledger
  // windowed them.
  ledger.seal();
  ASSERT_EQ(ledger.sealedWindows(), 2u);
  const durability::WalLog log = durability::WalReader(wal_device).readAll();
  EXPECT_FALSE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 2u);
  for (std::size_t k = 1; k <= 2; ++k) {
    EXPECT_EQ(log.records[k - 1].lsn, ledger.lsnOfWindow(k));
    EXPECT_EQ(log.records[k - 1].ops, ledger.window(k));
  }
}

// At depth 1 nothing overlaps and each window pays one extra thread hop
// from the log stage to the worker; at depths 2 and 4 several sealed
// windows queue between the two stages. At each depth the WAL must hold
// every window once, in seal order, and the table must equal the fold of
// the log.
TEST(PipelineWal, EveryDepthLogsEachWindowOnceInSealOrder) {
  const auto universe = distinctKeys(256);
  for (const std::size_t depth : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "depth=" << depth);
    TestRig rig(8);
    tables::GeneralConfig cfg;
    cfg.expected_n = universe.size();
    auto table = makeTable(TableKind::kChaining, rig.context(), cfg);
    extmem::BlockDevice wal_device(rig.device->wordsPerBlock(),
                                   exthash::testing::testStorageOptions());
    durability::WalWriter wal(wal_device);

    PipelineConfig pc;
    pc.batch_capacity = 16;
    pc.max_pending_batches = depth;
    pc.wal = &wal;
    durability::AckLedger ledger(pc.batch_capacity);
    {
      IngestPipeline pipe(*table, pc);
      std::mt19937_64 rng(depth);
      for (std::size_t i = 0; i < 1000; ++i) {
        const std::uint64_t key = universe[rng() % universe.size()];
        const Op op =
            i % 7 == 6 ? Op::eraseOp(key) : Op::insertOp(key, i + 1);
        pipe.submit(op);
        ledger.submit(op);
      }
      pipe.drain();
    }
    ledger.seal();

    const std::size_t windows = ledger.sealedWindows();
    EXPECT_EQ(wal.recordsAppended(), windows);
    EXPECT_EQ(wal.durableLsn(), ledger.lsnOfWindow(windows));
    const durability::WalLog log = durability::WalReader(wal_device).readAll();
    EXPECT_FALSE(log.torn_tail);
    ASSERT_EQ(log.records.size(), windows);
    for (std::size_t k = 1; k <= windows; ++k) {
      EXPECT_EQ(log.records[k - 1].lsn, ledger.lsnOfWindow(k));
      EXPECT_EQ(log.records[k - 1].ops, ledger.window(k));
    }
    exthash::testing::expectMatchesLedger(*table, ledger,
                                          ledger.lsnOfWindow(windows),
                                          universe);
  }
}

TEST(PipelineErrors, WorkerExceptionSurfacesOnDrain) {
  TestRig rig(8);
  tables::GeneralConfig cfg;
  cfg.expected_n = 64;
  cfg.buffer_items = 16;
  cfg.beta = 4;
  // The buffered table is insert-only: an erase reaching applyBatch throws
  // on the worker.
  auto table = makeTable(TableKind::kBuffered, rig.context(), cfg);

  PipelineConfig pc;
  pc.batch_capacity = 4;
  pc.coalesce = false;  // keep the erase visible to the table
  IngestPipeline pipe(*table, pc);
  pipe.insert(1, 1);
  pipe.erase(1);
  auto pending = pipe.submitLookup(999);  // unrelated key, worker-answered
  EXPECT_THROW(pipe.drain(), tables::UnsupportedOperation);
  // drain() waited for quiescence even though it throws: the queued
  // lookup's promise resolved (with a value here — lookups themselves
  // succeed), never std::future_error{broken_promise}.
  ASSERT_EQ(pending.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_FALSE(pending.get().has_value());
}

TEST(PipelineStagingCharge, ShrinkReleasesOnlyAsWindowsDrain) {
  TestRig rig(8);
  tables::GeneralConfig cfg;
  cfg.expected_n = 256;
  auto table = makeTable(tables::TableKind::kChaining, rig.context(), cfg);
  // A dedicated budget so the assertions see only the staging charge.
  extmem::MemoryBudget staging_budget(0);
  PipelineConfig pc;
  pc.batch_capacity = 64;
  pc.max_pending_batches = 1;
  pc.budget = &staging_budget;
  IngestPipeline pipe(*table, pc);
  const std::size_t words_per_slot = 2 * kStagingOpWords;  // (depth+1)=2
  EXPECT_EQ(staging_budget.used(), 64 * words_per_slot);

  for (std::uint64_t i = 0; i < 40; ++i) pipe.insert(i, i);  // staged, unsealed
  pipe.setWindowCapacity(8);
  EXPECT_EQ(pipe.windowCapacity(), 8u);
  // The 40 staged ops are still physically resident: the charge drops
  // only to their envelope, not to the new 8-slot capacity — releasing
  // early would let an arbiter re-grant memory that is still in use.
  EXPECT_EQ(staging_budget.used(), 40 * words_per_slot);

  // Growing back UNDER the resident envelope must not release it either.
  pipe.setWindowCapacity(16);
  EXPECT_EQ(staging_budget.used(), 40 * words_per_slot);

  pipe.drain();  // the oversized window applied and retired
  EXPECT_EQ(staging_budget.used(), 16 * words_per_slot);

  pipe.setWindowCapacity(32);  // growth past the envelope charges at once
  EXPECT_EQ(staging_budget.used(), 32 * words_per_slot);
  pipe.drain();
}

}  // namespace
}  // namespace exthash::pipeline
