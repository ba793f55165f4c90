// Buffered B-tree (a B^ε-tree with ε = 1/2) — the message-buffering search
// tree in the spirit of Arge's buffer tree [2], the paper's flagship
// example of what buffering achieves for comparison-based structures:
// updates in o(1) I/Os amortized while queries stay O(log n).
//
// Each internal node spends half its block on pivots/children (fanout
// F ≈ √b) and half on a message buffer. Inserts and deletes enter the
// memory-resident root buffer for free and cascade downward in batches: a
// flush moves Θ(buffer) messages one level down for O(F) I/Os, so each
// message pays O(F/buffer) = O(1/√b) per level — amortized
// O(log_F(n)/√b) I/Os per update. Point queries read one node per level
// and check the buffers on the way down (ancestors hold newer messages
// than descendants, so the first hit wins).
//
// Together with LsmTable this completes the paper's context: trees CAN
// buffer; Theorem 1 proves hash tables essentially cannot.
#pragma once

#include <vector>

#include "extmem/bucket_page.h"
#include "tables/hash_table.h"

namespace exthash::tables {

struct BufferBTreeConfig {
  /// Cap on the fanout (0 = derive √b from the block size).
  std::size_t max_fanout_override = 0;
};

class BufferBTreeTable final : public ExternalHashTable {
 public:
  BufferBTreeTable(TableContext ctx, BufferBTreeConfig config = {});
  ~BufferBTreeTable() override;

  bool insert(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> lookup(std::uint64_t key) override;
  bool erase(std::uint64_t key) override;
  /// Batch fast path: the whole batch accumulates in the root buffer and
  /// cascades down in ONE flush, so every touched node pays its rmw once
  /// per batch instead of once per buffer_cap messages.
  void applyBatch(std::span<const Op> ops) override;
  /// Batched lookups descend the tree in key-grouped fashion: each node on
  /// a shared root-to-leaf path is read once for the whole group.
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  /// Logical size (inserts of fresh keys minus erases); exact for
  /// distinct-key workloads — same deferred-structure contract as LSM.
  std::size_t size() const override { return live_size_; }
  std::string_view name() const override { return "buffer-btree"; }
  void visitLayout(LayoutVisitor& visitor) const override;
  std::string debugString() const override;
  /// Deep structural audit: recursive descent checking pivot ordering and
  /// fence-key containment, children = pivots + 1, buffer / leaf capacity
  /// bounds, uniform leaf depth equal to height(), and the node_blocks_
  /// ledger.
  void validateLayout(AuditReport& report) const override;

  std::size_t height() const noexcept { return height_; }
  std::size_t fanout() const noexcept { return fanout_; }
  std::uint64_t flushes() const noexcept { return flushes_; }

  std::vector<std::uint64_t> serializeMeta() const override;
  void restoreMeta(std::span<const std::uint64_t> words) override;

 private:
  // Test-only corruption hook for the invariant auditor.
  friend struct AuditPeer;

  struct SplitResult {
    // New (pivot, right-sibling) pairs the parent must install; empty if
    // the node absorbed the batch without splitting. A heavily skewed
    // batch can split a node more than once, hence a list.
    std::vector<std::pair<std::uint64_t, extmem::BlockId>> splits;
  };

  /// Deliver a batch of messages (oldest first) to the subtree rooted at
  /// `node`; may split nodes, reporting the (single) split upward.
  SplitResult deliver(extmem::BlockId node,
                      const std::vector<Record>& messages);
  SplitResult applyToLeaf(extmem::BlockId leaf,
                          const std::vector<Record>& messages);
  void flushRootBuffer();
  void splitMemRoot();
  /// Grouped point lookups within the subtree rooted at `node`: reads the
  /// node once, resolves buffer/leaf hits, recurses per child group.
  void lookupGroup(extmem::BlockId node,
                   std::span<const std::uint64_t> keys,
                   const std::vector<std::size_t>& group,
                   std::span<std::optional<std::uint64_t>> out) const;
  std::size_t rootChildIndex(std::uint64_t key) const;
  void freeSubtree(extmem::BlockId node);
  void visitSubtree(extmem::BlockId node, LayoutVisitor& visitor) const;
  /// validateLayout's recursive worker: audit the subtree at `node`,
  /// expected at `depth` (root = 0) and covering keys in [lo, hi).
  void auditSubtree(extmem::BlockId node, std::size_t depth,
                    std::optional<std::uint64_t> lo,
                    std::optional<std::uint64_t> hi, AuditReport& report,
                    std::uint64_t& nodes_seen) const;

  BufferBTreeConfig config_;
  std::size_t fanout_;        // F: max pivots per internal node
  std::size_t buffer_cap_;    // messages per internal node buffer
  std::size_t leaf_cap_;      // records per leaf
  // Memory-resident root: pivots/children plus its own message buffer.
  bool root_is_leaf_ = true;
  std::vector<std::uint64_t> root_keys_;
  std::vector<extmem::BlockId> root_children_;
  std::vector<Record> root_records_;   // when the root is a leaf
  std::vector<Record> root_buffer_;    // pending messages (oldest first)
  std::size_t live_size_ = 0;
  std::size_t height_ = 1;
  std::uint64_t flushes_ = 0;
  std::uint64_t node_blocks_ = 0;
  extmem::MemoryCharge root_charge_;
};

}  // namespace exthash::tables
