// External B+-tree baseline.
//
// The comparison-based dictionary the paper's introduction contrasts with
// hashing: both queries and updates cost Θ(log_b n) I/Os here (the root is
// pinned in memory, everything else is on disk), versus ~1 I/O for hash
// tables. Buffering *does* help search trees (buffer trees, B^ε-trees,
// LSM — see LsmTable); the paper's point is that it cannot help hashing.
//
// Implementation notes: bulk-loaded from the standard insert path; splits
// propagate bottom-up along the recorded root-to-leaf path; deletions are
// lazy (no rebalancing — standard for insert-dominated workloads, and the
// paper's model is insert-only anyway). Leaves are chained for range scans.
#pragma once

#include <functional>
#include <vector>

#include "extmem/bucket_page.h"
#include "tables/hash_table.h"

namespace exthash::tables {

struct BTreeConfig {
  /// Leaf/internal fanout is derived from the block size; this caps it
  /// lower for testing split logic with tiny trees (0 = no cap).
  std::size_t max_fanout_override = 0;
};

class BTreeTable final : public ExternalHashTable {
 public:
  BTreeTable(TableContext ctx, BTreeConfig config = {});
  ~BTreeTable() override;

  bool insert(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> lookup(std::uint64_t key) override;
  bool erase(std::uint64_t key) override;
  /// Leaf-grouped batch apply: ops are sorted by key (arrival order kept
  /// per key), each run destined for one leaf shares a single root-to-leaf
  /// descent and one rmw — Θ(log_b n) I/Os per LEAF touched instead of per
  /// op. A group that would split its leaf falls back to the serial insert
  /// path for that group only.
  void applyBatch(std::span<const Op> ops) override;
  std::size_t size() const override { return size_; }
  std::string_view name() const override { return "btree"; }
  void visitLayout(LayoutVisitor& visitor) const override;
  std::string debugString() const override;

  /// Visit all records with lo <= key <= hi in key order (counted reads).
  void scanRange(std::uint64_t lo, std::uint64_t hi,
                 const std::function<void(const Record&)>& fn);

  std::size_t height() const noexcept { return height_; }

  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;

 private:
  // In-memory root (charged to the budget; the classic pinned root).
  struct MemRoot {
    bool is_leaf = true;
    std::vector<std::uint64_t> keys;        // internal separators
    std::vector<extmem::BlockId> children;  // internal children
    std::vector<Record> records;            // leaf records (sorted)
  };

  struct SplitResult {
    bool split = false;
    std::uint64_t separator = 0;
    extmem::BlockId right = extmem::kInvalidBlock;
  };

  std::size_t rootChildIndex(std::uint64_t key) const;
  SplitResult insertIntoLeaf(extmem::BlockId leaf, Record r,
                             bool& inserted_new);
  SplitResult insertIntoInternal(extmem::BlockId node, std::uint64_t sep,
                                 extmem::BlockId child);
  void splitMemRoot();
  void visitSubtree(extmem::BlockId node, LayoutVisitor& visitor) const;
  void freeSubtree(extmem::BlockId node);

  BTreeConfig config_;
  std::size_t leaf_cap_;
  std::size_t internal_cap_;
  MemRoot root_;
  std::size_t size_ = 0;
  std::size_t height_ = 1;  // levels including the memory root
  std::uint64_t node_blocks_ = 0;
  extmem::MemoryCharge root_charge_;
};

}  // namespace exthash::tables
