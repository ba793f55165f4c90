// Tiered log-structured merge (LSM) table — the buffered dictionary that
// dominates practice (RocksDB-style tiering, simplified).
//
// This is the other side of the paper's tradeoff: inserts cost o(1) I/Os
// amortized (memtable + sorted-run merges), but point lookups must probe
// up to one block in *every* run — Θ(#runs) = Θ(log n/m) reads — so
// tq = ω(1). Per Theorem 1 regime 3, paying tq = O(log) buys tu as low as
// Õ(1/b); no hash table can beat 1 + O(1/b^c) queries with o(1) inserts,
// which is precisely why LSMs (not buffered hash tables) took over.
//
// Runs are sorted by key; each run keeps in-memory fence pointers (first
// key per `fence_stride` blocks, charged against the budget) so a run
// probe costs `fence_stride` reads in the worst case (1 by default).
// Deletions are tombstones, dropped when a merge reaches the bottom level.
//
// Caching: the LOOKUP path honors an attachCache'd BlockCache — the run
// probes of lookups and of erase presence checks read through it, so
// Θ(#runs) probing over a skewed key set re-reads its hot blocks for free
// once resident. Merges and run writes deliberately bypass the cache: a
// compaction is a one-shot streaming scan that would only flush the
// lookup working set (the classic scan-pollution argument — and the
// scan-resistant policies would fight a pollution we can simply not
// create). The table never dirties the cache; frees invalidate through it
// so compacted-away block ids can't serve stale frames when the device
// pool reuses them.
#pragma once

#include <memory>
#include <vector>

#include "extmem/bloom_filter.h"
#include "extmem/bucket_page.h"
#include "tables/cursor.h"
#include "tables/memtable_front.h"

namespace exthash::tables {

struct LsmConfig {
  std::size_t memtable_capacity_items = 0;
  std::size_t fanout = 4;        // runs per level before compaction
  std::size_t fence_stride = 1;  // blocks per fence pointer
  // Per-run Bloom filters (0 = disabled). Skips runs on lookups at the
  // price of Θ(n · bits_per_key) bits of *memory* — the budget-charged
  // demonstration that Bloom filters trade the paper's m for I/O rather
  // than evading the lower bound.
  std::size_t bloom_bits_per_key = 0;
};

/// The memtable, single-op insert and erase, applyBatch and lookupBatch's
/// memory phase are the MemtableFront's (tables/memtable_front.h). An
/// insert-only batch larger than the memtable's free space becomes ONE
/// sorted run (one write per block) with the memtable, instead of
/// ceil(k/memtable) runs with their compaction cascades; erase presence
/// probes and the disk phase of lookupBatch probe the runs grouped, each
/// touched block read once, newest run first.
class LsmTable final : public MemtableFront<LsmTable> {
 public:
  LsmTable(TableContext ctx, LsmConfig config);
  ~LsmTable() override;

  std::string_view name() const override { return "lsm"; }
  void visitLayout(LayoutVisitor& visitor) const override;
  std::string debugString() const override;
  /// Deep structural audit: per-run key ordering across block boundaries,
  /// record-count / min-max / fence-pointer agreement with the blocks,
  /// extent allocation, level fanout bounds, and the memtable capacity
  /// contract.
  void validateLayout(AuditReport& report) const override;

  std::size_t runCount() const noexcept;
  std::size_t levelCount() const noexcept { return levels_.size(); }
  std::uint64_t compactions() const noexcept { return compactions_; }

  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;

 private:
  // Test-only corruption hook for the invariant auditor.
  friend struct AuditPeer;
  friend class MemtableFront<LsmTable>;

  struct Run {
    extmem::BlockId extent = extmem::kInvalidBlock;
    std::size_t blocks = 0;
    std::size_t records = 0;
    std::uint64_t min_key = 0;
    std::uint64_t max_key = 0;
    std::vector<std::uint64_t> fences;  // first key of each fenced group
    extmem::MemoryCharge fence_charge;
    std::unique_ptr<extmem::BloomFilter> bloom;  // optional per-run filter
  };

  class RunCursor;

  // The MemtableFront hooks.
  /// Write the memtable as the newest level-0 run.
  void flushMemtable();
  /// Write `records` as one key-ordered level-0 run.
  void bulkSpill(std::vector<Record> records);
  /// probeRunBatch over every run, newest first: the one run probe, for a
  /// batch, a single lookup (a batch of one key) and erase's presence
  /// checks alike.
  void lookupBelow(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out,
                   std::vector<std::size_t>& pending);
  /// Write key-ordered `sorted` as the newest level-0 run, then compact
  /// as needed.
  void pushRun(std::vector<HashedRecord> sorted);
  void compactLevel(std::size_t level);
  Run writeRun(RecordCursor& records, std::size_t record_estimate);
  void freeRun(Run& run);
  /// Resolve every pending key against one run (key range, Bloom filter
  /// and fence pointers first), reading each touched block once; resolved
  /// indices are removed from `pending`.
  void probeRunBatch(Run& run, std::span<const std::uint64_t> keys,
                     std::vector<std::size_t>& pending,
                     std::span<std::optional<std::uint64_t>> out);

  LsmConfig config_;
  std::size_t records_per_block_;
  // levels_[i] = runs at level i, newest first.
  std::vector<std::vector<Run>> levels_;
  std::uint64_t compactions_ = 0;
};

}  // namespace exthash::tables
