#include "tables/btree_table.h"

#include <algorithm>
#include <functional>

#include "tables/meta_words.h"

namespace exthash::tables {

using extmem::BlockId;
using extmem::kInvalidBlock;
using extmem::Word;

namespace {

// ---------------------------------------------------------------------------
// On-disk node layout.
//
//   word 0: count (low 32) | flags (high 32; bit 0 = internal)
//   word 1: leaf: next-leaf link encoded as id+1 (0 = none); internal: 0
//   leaf:     records (key, value) sorted by key at words 2..
//   internal: K separator keys at words [2, 2+K),
//             K+1 child ids at words [2+K, 3+2K)
// ---------------------------------------------------------------------------

constexpr std::uint64_t kInternalFlag = std::uint64_t{1} << 32;

struct NodeView {
  std::span<Word> w;
  std::size_t internal_cap;  // K: max separator keys

  bool isInternal() const { return (w[0] & kInternalFlag) != 0; }
  std::size_t count() const {
    return static_cast<std::size_t>(w[0] & 0xffffffffULL);
  }
  void setCount(std::size_t n) {
    w[0] = (w[0] & ~0xffffffffULL) | static_cast<std::uint32_t>(n);
  }
  void setInternal(bool on) {
    if (on) w[0] |= kInternalFlag;
    else w[0] &= ~kInternalFlag;
  }

  // Leaf accessors.
  std::uint64_t leafKey(std::size_t i) const { return w[2 + 2 * i]; }
  std::uint64_t leafValue(std::size_t i) const { return w[3 + 2 * i]; }
  void setLeafRecord(std::size_t i, Record r) {
    w[2 + 2 * i] = r.key;
    w[3 + 2 * i] = r.value;
  }
  BlockId nextLeaf() const {
    return w[1] == 0 ? kInvalidBlock : w[1] - 1;
  }
  void setNextLeaf(BlockId id) { w[1] = id == kInvalidBlock ? 0 : id + 1; }

  // Internal accessors.
  std::uint64_t sepKey(std::size_t i) const { return w[2 + i]; }
  void setSepKey(std::size_t i, std::uint64_t k) { w[2 + i] = k; }
  BlockId child(std::size_t i) const {
    return static_cast<BlockId>(w[2 + internal_cap + i]);
  }
  void setChild(std::size_t i, BlockId id) { w[2 + internal_cap + i] = id; }
};

struct ConstNodeView {
  std::span<const Word> w;
  std::size_t internal_cap;

  bool isInternal() const { return (w[0] & kInternalFlag) != 0; }
  std::size_t count() const {
    return static_cast<std::size_t>(w[0] & 0xffffffffULL);
  }
  std::uint64_t leafKey(std::size_t i) const { return w[2 + 2 * i]; }
  std::uint64_t leafValue(std::size_t i) const { return w[3 + 2 * i]; }
  BlockId nextLeaf() const {
    return w[1] == 0 ? kInvalidBlock : w[1] - 1;
  }
  std::uint64_t sepKey(std::size_t i) const { return w[2 + i]; }
  BlockId child(std::size_t i) const {
    return static_cast<BlockId>(w[2 + internal_cap + i]);
  }

  /// Child to descend into for `key`: first separator greater than key.
  std::size_t childIndexFor(std::uint64_t key) const {
    const std::size_t n = count();
    std::size_t lo = 0, hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (key < sepKey(mid)) hi = mid;
      else lo = mid + 1;
    }
    return lo;
  }

  std::optional<std::uint64_t> leafFind(std::uint64_t key) const {
    std::size_t lo = 0, hi = count();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const std::uint64_t k = leafKey(mid);
      if (k == key) return leafValue(mid);
      if (k < key) lo = mid + 1;
      else hi = mid;
    }
    return std::nullopt;
  }
};

}  // namespace

BTreeTable::BTreeTable(TableContext ctx, BTreeConfig config)
    : ExternalHashTable(std::move(ctx)),
      config_(config),
      leaf_cap_(extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())),
      internal_cap_((ctx_.device->wordsPerBlock() - 3) / 2),
      root_charge_(*ctx_.memory, ctx_.device->wordsPerBlock() + 8) {
  if (config_.max_fanout_override > 0) {
    leaf_cap_ = std::min(leaf_cap_, config_.max_fanout_override);
    internal_cap_ = std::min(internal_cap_, config_.max_fanout_override);
  }
  EXTHASH_CHECK(leaf_cap_ >= 2 && internal_cap_ >= 2);
}

BTreeTable::~BTreeTable() {
  if (root_.is_leaf) return;
  // Teardown may meet a failing device: a node that cannot be read stops
  // the walk (the device has already counted the error in io_gave_up),
  // and what the walk did not reach leaks. Freeing is in-process
  // bookkeeping, so leaking ids beats terminating the process.
  try {
    for (const BlockId child : root_.children) freeSubtree(child);
  } catch (const extmem::IoError&) {
    // Freed as far as the device allowed.
  }
}

void BTreeTable::freeSubtree(BlockId node) {
  ConstNodeView v{ctx_.device->inspect(node), internal_cap_};
  if (v.isInternal()) {
    const std::size_t n = v.count();
    for (std::size_t i = 0; i <= n; ++i) freeSubtree(v.child(i));
  }
  ctx_.device->free(node);
}

std::size_t BTreeTable::rootChildIndex(std::uint64_t key) const {
  const auto& keys = root_.keys;
  return static_cast<std::size_t>(
      std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
}

std::optional<std::uint64_t> BTreeTable::lookup(std::uint64_t key) {
  if (root_.is_leaf) {
    const auto it = std::lower_bound(
        root_.records.begin(), root_.records.end(), key,
        [](const Record& r, std::uint64_t k) { return r.key < k; });
    if (it != root_.records.end() && it->key == key) return it->value;
    return std::nullopt;
  }
  BlockId current = root_.children[rootChildIndex(key)];
  while (true) {
    struct Step {
      bool internal = false;
      BlockId next = kInvalidBlock;
      std::optional<std::uint64_t> value;
    };
    const Step s =
        ctx_.device->withRead(current, [&](std::span<const Word> data) {
          ConstNodeView v{data, internal_cap_};
          if (v.isInternal())
            return Step{true, v.child(v.childIndexFor(key)), std::nullopt};
          return Step{false, kInvalidBlock, v.leafFind(key)};
        });
    if (!s.internal) return s.value;
    current = s.next;
  }
}

BTreeTable::SplitResult BTreeTable::insertIntoLeaf(BlockId leaf, Record r,
                                                   bool& inserted_new) {
  return ctx_.device->withWrite(leaf, [&](std::span<Word> data) {
    NodeView v{data, internal_cap_};
    const std::size_t n = v.count();
    // Binary search for the insertion point.
    std::size_t lo = 0, hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (v.leafKey(mid) < r.key) lo = mid + 1;
      else hi = mid;
    }
    if (lo < n && v.leafKey(lo) == r.key) {
      v.setLeafRecord(lo, r);
      inserted_new = false;
      return SplitResult{};
    }
    inserted_new = true;
    if (n < leaf_cap_) {
      for (std::size_t i = n; i > lo; --i)
        v.setLeafRecord(i, Record{v.leafKey(i - 1), v.leafValue(i - 1)});
      v.setLeafRecord(lo, r);
      v.setCount(n + 1);
      return SplitResult{};
    }
    // Split: gather n+1 records, keep the lower half here.
    std::vector<Record> all;
    all.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i)
      all.push_back(Record{v.leafKey(i), v.leafValue(i)});
    all.insert(all.begin() + static_cast<std::ptrdiff_t>(lo), r);
    const std::size_t left_n = (n + 1) / 2;

    const BlockId right = ctx_.device->allocate();
    ++node_blocks_;
    ctx_.device->withOverwrite(right, [&](std::span<Word> rdata) {
      NodeView rv{rdata, internal_cap_};
      rv.setInternal(false);
      for (std::size_t i = left_n; i < all.size(); ++i)
        rv.setLeafRecord(i - left_n, all[i]);
      rv.setCount(all.size() - left_n);
      rv.setNextLeaf(v.nextLeaf());
    });
    for (std::size_t i = 0; i < left_n; ++i) v.setLeafRecord(i, all[i]);
    v.setCount(left_n);
    v.setNextLeaf(right);
    return SplitResult{true, all[left_n].key, right};
  });
}

BTreeTable::SplitResult BTreeTable::insertIntoInternal(BlockId node,
                                                       std::uint64_t sep,
                                                       BlockId child) {
  return ctx_.device->withWrite(node, [&](std::span<Word> data) {
    NodeView v{data, internal_cap_};
    const std::size_t n = v.count();
    std::size_t lo = 0;
    while (lo < n && v.sepKey(lo) < sep) ++lo;
    if (n < internal_cap_) {
      for (std::size_t i = n; i > lo; --i) v.setSepKey(i, v.sepKey(i - 1));
      for (std::size_t i = n + 1; i > lo + 1; --i)
        v.setChild(i, v.child(i - 1));
      v.setSepKey(lo, sep);
      v.setChild(lo + 1, child);
      v.setCount(n + 1);
      return SplitResult{};
    }
    // Split the internal node; the middle key moves up.
    std::vector<std::uint64_t> keys;
    std::vector<BlockId> children;
    keys.reserve(n + 1);
    children.reserve(n + 2);
    for (std::size_t i = 0; i < n; ++i) keys.push_back(v.sepKey(i));
    for (std::size_t i = 0; i <= n; ++i) children.push_back(v.child(i));
    keys.insert(keys.begin() + static_cast<std::ptrdiff_t>(lo), sep);
    children.insert(children.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                    child);
    const std::size_t mid = keys.size() / 2;
    const std::uint64_t up_key = keys[mid];

    const BlockId right = ctx_.device->allocate();
    ++node_blocks_;
    ctx_.device->withOverwrite(right, [&](std::span<Word> rdata) {
      NodeView rv{rdata, internal_cap_};
      rv.setInternal(true);
      std::size_t rn = 0;
      for (std::size_t i = mid + 1; i < keys.size(); ++i)
        rv.setSepKey(rn++, keys[i]);
      for (std::size_t i = mid + 1; i < children.size(); ++i)
        rv.setChild(i - mid - 1, children[i]);
      rv.setCount(rn);
    });
    for (std::size_t i = 0; i < mid; ++i) v.setSepKey(i, keys[i]);
    for (std::size_t i = 0; i <= mid; ++i) v.setChild(i, children[i]);
    v.setCount(mid);
    return SplitResult{true, up_key, right};
  });
}

void BTreeTable::splitMemRoot() {
  // Both halves of the overflowing memory root move to disk; the root
  // becomes (or stays) internal with a single separator.
  if (root_.is_leaf) {
    const std::size_t n = root_.records.size();
    const std::size_t left_n = n / 2;
    const BlockId left = ctx_.device->allocate();
    const BlockId right = ctx_.device->allocate();
    node_blocks_ += 2;
    ctx_.device->withOverwrite(right, [&](std::span<Word> data) {
      NodeView v{data, internal_cap_};
      v.setInternal(false);
      for (std::size_t i = left_n; i < n; ++i)
        v.setLeafRecord(i - left_n, root_.records[i]);
      v.setCount(n - left_n);
    });
    ctx_.device->withOverwrite(left, [&](std::span<Word> data) {
      NodeView v{data, internal_cap_};
      v.setInternal(false);
      for (std::size_t i = 0; i < left_n; ++i)
        v.setLeafRecord(i, root_.records[i]);
      v.setCount(left_n);
      v.setNextLeaf(right);
    });
    root_.is_leaf = false;
    root_.keys = {root_.records[left_n].key};
    root_.children = {left, right};
    root_.records.clear();
    height_ += 1;
    return;
  }
  const std::size_t n = root_.keys.size();
  const std::size_t mid = n / 2;
  const BlockId left = ctx_.device->allocate();
  const BlockId right = ctx_.device->allocate();
  node_blocks_ += 2;
  ctx_.device->withOverwrite(left, [&](std::span<Word> data) {
    NodeView v{data, internal_cap_};
    v.setInternal(true);
    for (std::size_t i = 0; i < mid; ++i) v.setSepKey(i, root_.keys[i]);
    for (std::size_t i = 0; i <= mid; ++i) v.setChild(i, root_.children[i]);
    v.setCount(mid);
  });
  ctx_.device->withOverwrite(right, [&](std::span<Word> data) {
    NodeView v{data, internal_cap_};
    v.setInternal(true);
    std::size_t rn = 0;
    for (std::size_t i = mid + 1; i < n; ++i) v.setSepKey(rn++, root_.keys[i]);
    for (std::size_t i = mid + 1; i <= n; ++i)
      v.setChild(i - mid - 1, root_.children[i]);
    v.setCount(rn);
  });
  const std::uint64_t up_key = root_.keys[mid];
  root_.keys = {up_key};
  root_.children = {left, right};
  height_ += 1;
}

bool BTreeTable::insert(std::uint64_t key, std::uint64_t value) {
  // Small-tree fast path: the root is a memory leaf.
  if (root_.is_leaf) {
    auto it = std::lower_bound(
        root_.records.begin(), root_.records.end(), key,
        [](const Record& r, std::uint64_t k) { return r.key < k; });
    if (it != root_.records.end() && it->key == key) {
      it->value = value;
      return false;
    }
    root_.records.insert(it, Record{key, value});
    ++size_;
    if (root_.records.size() > leaf_cap_) splitMemRoot();
    return true;
  }

  // Descend, recording the disk path.
  std::vector<BlockId> path;
  BlockId current = root_.children[rootChildIndex(key)];
  while (true) {
    struct Step {
      bool internal = false;
      BlockId next = kInvalidBlock;
    };
    const Step s =
        ctx_.device->withRead(current, [&](std::span<const Word> data) {
          ConstNodeView v{data, internal_cap_};
          if (v.isInternal())
            return Step{true, v.child(v.childIndexFor(key))};
          return Step{false, kInvalidBlock};
        });
    if (!s.internal) break;
    path.push_back(current);
    current = s.next;
  }

  bool inserted_new = false;
  SplitResult pending = insertIntoLeaf(current, Record{key, value},
                                       inserted_new);
  if (inserted_new) ++size_;

  // Propagate splits bottom-up along the recorded path.
  while (pending.split && !path.empty()) {
    const BlockId parent = path.back();
    path.pop_back();
    pending = insertIntoInternal(parent, pending.separator, pending.right);
  }
  if (pending.split) {
    // Reached the memory root.
    const std::size_t idx = rootChildIndex(pending.separator);
    root_.keys.insert(root_.keys.begin() + static_cast<std::ptrdiff_t>(idx),
                      pending.separator);
    root_.children.insert(
        root_.children.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
        pending.right);
    if (root_.keys.size() > internal_cap_) splitMemRoot();
  }
  return inserted_new;
}

void BTreeTable::applyBatch(std::span<const Op> ops) {
  if (ops.size() < 2) {
    for (const Op& op : ops) {
      if (op.kind == OpKind::kInsert) insert(op.key, op.value);
      else erase(op.key);
    }
    return;
  }
  // Sort by (key, arrival): keys are independent here (no cross-key state
  // like overflow flags), so only per-key order must survive, and the sort
  // tie-breaks on the original index to keep it.
  std::vector<std::size_t> idx(ops.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (ops[a].key != ops[b].key) return ops[a].key < ops[b].key;
    return a < b;
  });

  std::size_t i = 0;
  while (i < idx.size()) {
    if (root_.is_leaf) {
      // Memory-resident root: ops are free (no I/O until it splits, which
      // may happen mid-batch — hence one op at a time, re-checking).
      const Op& op = ops[idx[i]];
      if (op.kind == OpKind::kInsert) insert(op.key, op.value);
      else erase(op.key);
      ++i;
      continue;
    }
    // Descend once for the run's first key, tracking the least separator
    // above it: child c of an internal node covers [sep(c-1), sep(c)), so
    // every later sorted key below that bound lands in the same leaf.
    const std::uint64_t first_key = ops[idx[i]].key;
    bool hi_open = true;
    std::uint64_t hi = 0;
    const std::size_t ridx = rootChildIndex(first_key);
    if (ridx < root_.keys.size()) {
      hi = root_.keys[ridx];
      hi_open = false;
    }
    BlockId current = root_.children[ridx];
    while (true) {
      struct Step {
        bool internal = false;
        BlockId next = kInvalidBlock;
        std::uint64_t sep = 0;
        bool has_sep = false;
      };
      const Step s =
          ctx_.device->withRead(current, [&](std::span<const Word> data) {
            ConstNodeView v{data, internal_cap_};
            if (!v.isInternal()) return Step{};
            const std::size_t c = v.childIndexFor(first_key);
            Step st{true, v.child(c), 0, false};
            if (c < v.count()) {
              st.sep = v.sepKey(c);
              st.has_sep = true;
            }
            return st;
          });
      if (!s.internal) break;
      if (s.has_sep && (hi_open || s.sep < hi)) {
        hi = s.sep;
        hi_open = false;
      }
      current = s.next;
    }
    std::size_t j = i;
    while (j < idx.size() && (hi_open || ops[idx[j]].key < hi)) ++j;

    // Replay the group against the leaf in one rmw — unless the result
    // would split, in which case nothing is written and the group goes
    // through the serial insert path (splits propagate there).
    struct Outcome {
      bool fits = false;
      std::ptrdiff_t delta = 0;
    };
    const Outcome oc =
        ctx_.device->withWrite(current, [&](std::span<Word> data) {
          NodeView v{data, internal_cap_};
          const std::size_t n = v.count();
          std::vector<Record> recs;
          recs.reserve(n + (j - i));
          for (std::size_t k = 0; k < n; ++k)
            recs.push_back(Record{v.leafKey(k), v.leafValue(k)});
          std::ptrdiff_t delta = 0;
          for (std::size_t k = i; k < j; ++k) {
            const Op& op = ops[idx[k]];
            const auto it = std::lower_bound(
                recs.begin(), recs.end(), op.key,
                [](const Record& r, std::uint64_t key) { return r.key < key; });
            if (op.kind == OpKind::kInsert) {
              if (it != recs.end() && it->key == op.key) {
                it->value = op.value;
              } else {
                recs.insert(it, Record{op.key, op.value});
                ++delta;
              }
            } else if (it != recs.end() && it->key == op.key) {
              recs.erase(it);
              --delta;
            }
          }
          if (recs.size() > leaf_cap_) return Outcome{};
          for (std::size_t k = 0; k < recs.size(); ++k)
            v.setLeafRecord(k, recs[k]);
          v.setCount(recs.size());
          return Outcome{true, delta};
        });
    if (oc.fits) {
      size_ = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(size_) +
                                       oc.delta);
    } else {
      for (std::size_t k = i; k < j; ++k) {
        const Op& op = ops[idx[k]];
        if (op.kind == OpKind::kInsert) insert(op.key, op.value);
        else erase(op.key);
      }
    }
    i = j;
  }
}

bool BTreeTable::erase(std::uint64_t key) {
  if (root_.is_leaf) {
    auto it = std::lower_bound(
        root_.records.begin(), root_.records.end(), key,
        [](const Record& r, std::uint64_t k) { return r.key < k; });
    if (it == root_.records.end() || it->key != key) return false;
    root_.records.erase(it);
    --size_;
    return true;
  }
  BlockId current = root_.children[rootChildIndex(key)];
  while (true) {
    struct Step {
      bool internal = false;
      BlockId next = kInvalidBlock;
    };
    const Step s =
        ctx_.device->withRead(current, [&](std::span<const Word> data) {
          ConstNodeView v{data, internal_cap_};
          if (v.isInternal())
            return Step{true, v.child(v.childIndexFor(key))};
          return Step{false, kInvalidBlock};
        });
    if (!s.internal) break;
    current = s.next;
  }
  const bool removed =
      ctx_.device->withWrite(current, [&](std::span<Word> data) {
        NodeView v{data, internal_cap_};
        const std::size_t n = v.count();
        for (std::size_t i = 0; i < n; ++i) {
          if (v.leafKey(i) == key) {
            for (std::size_t j = i; j + 1 < n; ++j)
              v.setLeafRecord(j, Record{v.leafKey(j + 1), v.leafValue(j + 1)});
            v.setCount(n - 1);
            return true;
          }
        }
        return false;
      });
  if (removed) --size_;
  return removed;  // lazy deletion: no rebalancing (see header)
}

void BTreeTable::scanRange(std::uint64_t lo, std::uint64_t hi,
                           const std::function<void(const Record&)>& fn) {
  if (root_.is_leaf) {
    for (const Record& r : root_.records)
      if (r.key >= lo && r.key <= hi) fn(r);
    return;
  }
  BlockId current = root_.children[rootChildIndex(lo)];
  // Descend to the leaf containing lo.
  while (true) {
    struct Step {
      bool internal = false;
      BlockId next = kInvalidBlock;
    };
    const Step s =
        ctx_.device->withRead(current, [&](std::span<const Word> data) {
          ConstNodeView v{data, internal_cap_};
          if (v.isInternal()) return Step{true, v.child(v.childIndexFor(lo))};
          return Step{false, kInvalidBlock};
        });
    if (!s.internal) break;
    current = s.next;
  }
  // Walk the leaf chain.
  while (current != kInvalidBlock) {
    struct LeafOut {
      BlockId next = kInvalidBlock;
      bool past_hi = false;
    };
    const LeafOut out =
        ctx_.device->withRead(current, [&](std::span<const Word> data) {
          ConstNodeView v{data, internal_cap_};
          const std::size_t n = v.count();
          bool past = false;
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t k = v.leafKey(i);
            if (k > hi) {
              past = true;
              break;
            }
            if (k >= lo) fn(Record{k, v.leafValue(i)});
          }
          return LeafOut{v.nextLeaf(), past};
        });
    if (out.past_hi) break;
    current = out.next;
  }
}

void BTreeTable::visitSubtree(BlockId node, LayoutVisitor& visitor) const {
  ConstNodeView v{ctx_.device->inspect(node), internal_cap_};
  if (v.isInternal()) {
    const std::size_t n = v.count();
    for (std::size_t i = 0; i <= n; ++i) visitSubtree(v.child(i), visitor);
    return;
  }
  const std::size_t n = v.count();
  for (std::size_t i = 0; i < n; ++i)
    visitor.diskItem(node, Record{v.leafKey(i), v.leafValue(i)});
}

void BTreeTable::visitLayout(LayoutVisitor& visitor) const {
  if (root_.is_leaf) {
    for (const Record& r : root_.records) visitor.memoryItem(r);
    return;
  }
  for (const BlockId child : root_.children) visitSubtree(child, visitor);
}

std::string BTreeTable::debugString() const {
  return "btree{height=" + std::to_string(height_) +
         ", size=" + std::to_string(size_) +
         ", nodes=" + std::to_string(node_blocks_) +
         ", leaf_cap=" + std::to_string(leaf_cap_) + "}";
}

namespace {
constexpr std::uint64_t kBTreeMetaMagic = 0x42545245454D4554ULL;
}  // namespace

std::vector<std::uint64_t> BTreeTable::serializeMeta() const {
  MetaWriter w;
  w.tag(kBTreeMetaMagic);
  w.u64(leaf_cap_);
  w.u64(internal_cap_);
  w.u64(size_);
  w.u64(height_);
  w.u64(node_blocks_);
  // The pinned memory root is table contents, not derivable from disk.
  w.b(root_.is_leaf);
  w.vec(root_.keys);
  w.vec(root_.children);
  std::vector<std::uint64_t> recs;
  recs.reserve(root_.records.size() * 2);
  for (const Record& r : root_.records) {
    recs.push_back(r.key);
    recs.push_back(r.value);
  }
  w.vec(recs);
  return w.take();
}

void BTreeTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kBTreeMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == leaf_cap_ && r.u64() == internal_cap_,
                    "btree checkpoint geometry mismatch");
  size_ = r.u64();
  height_ = r.u64();
  node_blocks_ = r.u64();
  root_.is_leaf = r.b();
  root_.keys = r.vec();
  root_.children = r.vec();
  const std::vector<std::uint64_t> recs = r.vec();
  EXTHASH_CHECK(recs.size() % 2 == 0);
  root_.records.clear();
  for (std::size_t i = 0; i < recs.size(); i += 2) {
    root_.records.push_back(Record{recs[i], recs[i + 1]});
  }
  EXTHASH_CHECK_MSG(r.done(), "trailing words in btree meta");
}

}  // namespace exthash::tables
