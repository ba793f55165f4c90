#include "tables/buffer_btree_table.h"

#include <algorithm>
#include <cmath>

#include "tables/meta_words.h"

namespace exthash::tables {

using extmem::BlockId;
using extmem::kInvalidBlock;
using extmem::Word;

namespace {

constexpr std::uint64_t kInternalFlag = std::uint64_t{1} << 32;

// ---------------------------------------------------------------------------
// Node layout (block of 2 + 2b words):
//   word 0: pivot/record count (low 32) | flags (bit 32 = internal)
//   word 1: buffer message count (internal nodes)
//   leaf:     records sorted by key at words [2, 2 + 2·leaf_cap)
//   internal: pivots   at [2, 2+F)
//             children at [2+F, 3+2F)
//             buffer   at [3+2F, 3+2F+2·buf_cap), oldest message first
// ---------------------------------------------------------------------------

struct Geometry {
  std::size_t fanout;      // F
  std::size_t buffer_cap;  // messages per internal buffer
  std::size_t leaf_cap;    // records per leaf

  std::size_t pivotAt(std::size_t i) const { return 2 + i; }
  std::size_t childAt(std::size_t i) const { return 2 + fanout + i; }
  std::size_t bufferAt(std::size_t i) const {
    return 3 + 2 * fanout + 2 * i;
  }
};

struct NodeImage {
  bool is_leaf = true;
  std::vector<std::uint64_t> pivots;
  std::vector<BlockId> children;
  std::vector<Record> buffer;   // oldest first
  std::vector<Record> records;  // leaf payload, key-sorted
};

NodeImage readNode(std::span<const Word> w, const Geometry& g) {
  NodeImage img;
  const auto count = static_cast<std::size_t>(w[0] & 0xffffffffULL);
  img.is_leaf = (w[0] & kInternalFlag) == 0;
  if (img.is_leaf) {
    img.records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      img.records.push_back(Record{w[2 + 2 * i], w[3 + 2 * i]});
    }
    return img;
  }
  const auto buffered = static_cast<std::size_t>(w[1]);
  img.pivots.reserve(count);
  img.children.reserve(count + 1);
  for (std::size_t i = 0; i < count; ++i) img.pivots.push_back(w[g.pivotAt(i)]);
  for (std::size_t i = 0; i <= count; ++i)
    img.children.push_back(static_cast<BlockId>(w[g.childAt(i)]));
  img.buffer.reserve(buffered);
  for (std::size_t i = 0; i < buffered; ++i) {
    img.buffer.push_back(Record{w[g.bufferAt(i)], w[g.bufferAt(i) + 1]});
  }
  return img;
}

void writeNode(std::span<Word> w, const Geometry& g, const NodeImage& img) {
  std::fill(w.begin(), w.end(), Word{0});
  if (img.is_leaf) {
    w[0] = static_cast<std::uint32_t>(img.records.size());
    for (std::size_t i = 0; i < img.records.size(); ++i) {
      w[2 + 2 * i] = img.records[i].key;
      w[3 + 2 * i] = img.records[i].value;
    }
    return;
  }
  w[0] = kInternalFlag | static_cast<std::uint32_t>(img.pivots.size());
  w[1] = img.buffer.size();
  for (std::size_t i = 0; i < img.pivots.size(); ++i)
    w[g.pivotAt(i)] = img.pivots[i];
  for (std::size_t i = 0; i < img.children.size(); ++i)
    w[g.childAt(i)] = img.children[i];
  for (std::size_t i = 0; i < img.buffer.size(); ++i) {
    w[g.bufferAt(i)] = img.buffer[i].key;
    w[g.bufferAt(i) + 1] = img.buffer[i].value;
  }
}

/// Keep only the newest message per key (input oldest-first), key-sorted.
std::vector<Record> compactMessages(std::vector<Record> msgs) {
  std::stable_sort(msgs.begin(), msgs.end(),
                   [](const Record& a, const Record& b) {
                     return a.key < b.key;
                   });
  std::vector<Record> out;
  out.reserve(msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    // Stable sort preserved arrival order within equal keys: the last
    // entry of each equal-key run is the newest.
    if (i + 1 == msgs.size() || msgs[i + 1].key != msgs[i].key) {
      out.push_back(msgs[i]);
    }
  }
  return out;
}

/// Newest-first scan of an oldest-first buffer for `key`.
std::optional<std::uint64_t> findInBuffer(const std::vector<Record>& buffer,
                                          std::uint64_t key) {
  for (auto it = buffer.rbegin(); it != buffer.rend(); ++it) {
    if (it->key == key) return it->value;
  }
  return std::nullopt;
}

}  // namespace

BufferBTreeTable::BufferBTreeTable(TableContext ctx, BufferBTreeConfig config)
    : ExternalHashTable(std::move(ctx)),
      config_(config),
      root_charge_(*ctx_.memory, 0) {
  const std::size_t b =
      extmem::recordCapacityForWords(ctx_.device->wordsPerBlock());
  fanout_ = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::sqrt(static_cast<double>(b))));
  if (config_.max_fanout_override > 0) {
    fanout_ = std::min(fanout_, config_.max_fanout_override);
  }
  // Internal node: F pivots + F+1 children + buffer; all within 2b words.
  const std::size_t payload_words = 2 * b;
  EXTHASH_CHECK_MSG(payload_words > 2 * fanout_ + 1 + 4,
                    "block too small for a buffered B-tree node");
  buffer_cap_ = (payload_words - (2 * fanout_ + 1)) / 2;
  leaf_cap_ = b;
  // The memory root mirrors one node: pivots + children + buffer + a leaf
  // payload while small.
  root_charge_.resize(2 * buffer_cap_ + 2 * fanout_ + 2 * leaf_cap_ + 16);
}

BufferBTreeTable::~BufferBTreeTable() {
  if (root_is_leaf_) return;
  // As in ~BTreeTable: an unreadable node stops the walk, and what it did
  // not reach leaks rather than terminating the process.
  try {
    for (const BlockId child : root_children_) freeSubtree(child);
  } catch (const extmem::IoError&) {
    // Freed as far as the device allowed.
  }
}

void BufferBTreeTable::freeSubtree(BlockId node) {
  const Geometry g{fanout_, buffer_cap_, leaf_cap_};
  const NodeImage img = readNode(ctx_.device->inspect(node), g);
  if (!img.is_leaf) {
    for (const BlockId child : img.children) freeSubtree(child);
  }
  ctx_.device->free(node);
}

std::size_t BufferBTreeTable::rootChildIndex(std::uint64_t key) const {
  return static_cast<std::size_t>(
      std::upper_bound(root_keys_.begin(), root_keys_.end(), key) -
      root_keys_.begin());
}

bool BufferBTreeTable::insert(std::uint64_t key, std::uint64_t value) {
  EXTHASH_CHECK_MSG(value != kTombstoneValue,
                    "value collides with the tombstone sentinel");
  const bool fresh = !findInBuffer(root_buffer_, key).has_value();
  root_buffer_.push_back(Record{key, value});
  if (fresh) ++live_size_;  // exact under distinct-key workloads
  if (root_buffer_.size() >= buffer_cap_) flushRootBuffer();
  return fresh;
}

bool BufferBTreeTable::erase(std::uint64_t key) {
  if (!lookup(key).has_value()) return false;
  root_buffer_.push_back(Record{key, kTombstoneValue});
  --live_size_;
  if (root_buffer_.size() >= buffer_cap_) flushRootBuffer();
  return true;
}

std::optional<std::uint64_t> BufferBTreeTable::lookup(std::uint64_t key) {
  // Newest messages live nearest the root; the first hit wins.
  if (auto v = findInBuffer(root_buffer_, key)) {
    if (*v == kTombstoneValue) return std::nullopt;
    return v;
  }
  if (root_is_leaf_) {
    const auto it = std::lower_bound(
        root_records_.begin(), root_records_.end(), key,
        [](const Record& r, std::uint64_t k) { return r.key < k; });
    if (it != root_records_.end() && it->key == key) return it->value;
    return std::nullopt;
  }
  const Geometry g{fanout_, buffer_cap_, leaf_cap_};
  BlockId current = root_children_[rootChildIndex(key)];
  while (true) {
    struct Step {
      std::optional<std::uint64_t> value;
      bool done = false;
      BlockId next = kInvalidBlock;
    };
    const Step s =
        ctx_.device->withRead(current, [&](std::span<const Word> w) {
          const NodeImage img = readNode(w, g);
          if (auto v = findInBuffer(img.buffer, key))
            return Step{v, true, kInvalidBlock};
          if (img.is_leaf) {
            const auto it = std::lower_bound(
                img.records.begin(), img.records.end(), key,
                [](const Record& r, std::uint64_t k) { return r.key < k; });
            if (it != img.records.end() && it->key == key)
              return Step{it->value, true, kInvalidBlock};
            return Step{std::nullopt, true, kInvalidBlock};
          }
          const auto idx = static_cast<std::size_t>(
              std::upper_bound(img.pivots.begin(), img.pivots.end(), key) -
              img.pivots.begin());
          return Step{std::nullopt, false, img.children[idx]};
        });
    if (s.done || s.value) {
      if (s.value && *s.value == kTombstoneValue) return std::nullopt;
      return s.value;
    }
    current = s.next;
  }
}

// ---------------------------------------------------------------------------
// Batch API
// ---------------------------------------------------------------------------

void BufferBTreeTable::applyBatch(std::span<const Op> ops) {
  // The whole batch accumulates in the root buffer and cascades down in
  // one flush, so each touched node pays its rmw once per batch. While
  // the root is still a memory leaf we keep the serial flush cadence —
  // graduation sizes its two disk leaves for <= buffer_cap pending
  // messages, so the buffer must not outgrow that bound beforehand.
  extmem::MemoryCharge scratch(*ctx_.memory, 2 * ops.size());
  for (const Op& op : ops) {
    if (op.kind == OpKind::kInsert) {
      EXTHASH_CHECK_MSG(op.value != kTombstoneValue,
                        "value collides with the tombstone sentinel");
      const bool fresh = !findInBuffer(root_buffer_, op.key).has_value();
      root_buffer_.push_back(Record{op.key, op.value});
      if (fresh) ++live_size_;  // exact under distinct-key workloads
    } else if (lookup(op.key).has_value()) {
      root_buffer_.push_back(Record{op.key, kTombstoneValue});
      --live_size_;
    }
    if (root_is_leaf_ && root_buffer_.size() >= buffer_cap_) {
      flushRootBuffer();
    }
  }
  if (root_buffer_.size() >= buffer_cap_) flushRootBuffer();
}

void BufferBTreeTable::lookupGroup(
    BlockId node, std::span<const std::uint64_t> keys,
    const std::vector<std::size_t>& group,
    std::span<std::optional<std::uint64_t>> out) const {
  const Geometry g{fanout_, buffer_cap_, leaf_cap_};
  const NodeImage img = ctx_.device->withRead(
      node, [&](std::span<const Word> w) { return readNode(w, g); });

  std::vector<std::size_t> remaining;
  for (const std::size_t idx : group) {
    if (auto v = findInBuffer(img.buffer, keys[idx])) {
      out[idx] = (*v == kTombstoneValue) ? std::nullopt : std::optional(*v);
    } else {
      remaining.push_back(idx);
    }
  }
  if (remaining.empty()) return;

  if (img.is_leaf) {
    for (const std::size_t idx : remaining) {
      const auto it = std::lower_bound(
          img.records.begin(), img.records.end(), keys[idx],
          [](const Record& r, std::uint64_t k) { return r.key < k; });
      out[idx] = (it != img.records.end() && it->key == keys[idx])
                     ? std::optional(it->value)
                     : std::nullopt;
    }
    return;
  }

  // Partition by pivot and recurse: one read per node per group.
  std::vector<std::pair<std::size_t, std::size_t>> by_child;
  by_child.reserve(remaining.size());
  for (const std::size_t idx : remaining) {
    const auto child = static_cast<std::size_t>(
        std::upper_bound(img.pivots.begin(), img.pivots.end(), keys[idx]) -
        img.pivots.begin());
    by_child.emplace_back(child, idx);
  }
  std::sort(by_child.begin(), by_child.end());
  std::vector<std::size_t> sub;
  std::size_t i = 0;
  while (i < by_child.size()) {
    const std::size_t child = by_child[i].first;
    std::size_t j = i;
    while (j < by_child.size() && by_child[j].first == child) ++j;
    sub.clear();
    for (std::size_t k = i; k < j; ++k) sub.push_back(by_child[k].second);
    lookupGroup(img.children[child], keys, sub, out);
    i = j;
  }
}

void BufferBTreeTable::lookupBatch(std::span<const std::uint64_t> keys,
                                   std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(keys.size() == out.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (auto v = findInBuffer(root_buffer_, keys[i])) {
      out[i] = (*v == kTombstoneValue) ? std::nullopt : std::optional(*v);
    } else {
      pending.push_back(i);
    }
  }
  if (pending.empty()) return;

  if (root_is_leaf_) {
    for (const std::size_t idx : pending) {
      const auto it = std::lower_bound(
          root_records_.begin(), root_records_.end(), keys[idx],
          [](const Record& r, std::uint64_t k) { return r.key < k; });
      out[idx] = (it != root_records_.end() && it->key == keys[idx])
                     ? std::optional(it->value)
                     : std::nullopt;
    }
    return;
  }

  std::vector<std::pair<std::size_t, std::size_t>> by_child;
  by_child.reserve(pending.size());
  for (const std::size_t idx : pending) {
    by_child.emplace_back(rootChildIndex(keys[idx]), idx);
  }
  std::sort(by_child.begin(), by_child.end());
  std::vector<std::size_t> sub;
  std::size_t i = 0;
  while (i < by_child.size()) {
    const std::size_t child = by_child[i].first;
    std::size_t j = i;
    while (j < by_child.size() && by_child[j].first == child) ++j;
    sub.clear();
    for (std::size_t k = i; k < j; ++k) sub.push_back(by_child[k].second);
    lookupGroup(root_children_[child], keys, sub, out);
    i = j;
  }
}

BufferBTreeTable::SplitResult BufferBTreeTable::applyToLeaf(
    BlockId leaf, const std::vector<Record>& messages) {
  const Geometry g{fanout_, buffer_cap_, leaf_cap_};
  // Messages arrive compacted and key-sorted; merge into the sorted leaf.
  NodeImage img = readNode(ctx_.device->inspect(leaf), g);
  // (The inspect above is paired with the counted write below — one rmw.)
  std::vector<Record> merged;
  merged.reserve(img.records.size() + messages.size());
  std::size_t i = 0, j = 0;
  while (i < img.records.size() || j < messages.size()) {
    if (j >= messages.size() ||
        (i < img.records.size() && img.records[i].key < messages[j].key)) {
      merged.push_back(img.records[i++]);
      continue;
    }
    if (i < img.records.size() && img.records[i].key == messages[j].key) {
      ++i;  // message overrides the record
    }
    const Record msg = messages[j++];
    if (msg.value != kTombstoneValue) merged.push_back(msg);
  }

  if (merged.size() <= leaf_cap_) {
    ctx_.device->withWrite(leaf, [&](std::span<Word> w) {
      NodeImage out;
      out.is_leaf = true;
      out.records = std::move(merged);
      writeNode(w, g, out);
    });
    return SplitResult{};
  }
  // Multi-way split: a skewed batch can exceed two blocks, so carve the
  // merged run into balanced chunks of at most leaf_cap records.
  const std::size_t parts =
      (merged.size() + leaf_cap_ - 1) / leaf_cap_;
  const std::size_t chunk = (merged.size() + parts - 1) / parts;
  SplitResult split;
  std::size_t begin = 0;
  bool first = true;
  while (begin < merged.size()) {
    const std::size_t end = std::min(merged.size(), begin + chunk);
    NodeImage out;
    out.is_leaf = true;
    out.records.assign(merged.begin() + static_cast<std::ptrdiff_t>(begin),
                       merged.begin() + static_cast<std::ptrdiff_t>(end));
    if (first) {
      ctx_.device->withWrite(leaf, [&](std::span<Word> w) {
        writeNode(w, g, out);
      });
      first = false;
    } else {
      const BlockId fresh = ctx_.device->allocate();
      ++node_blocks_;
      ctx_.device->withOverwrite(fresh, [&](std::span<Word> w) {
        writeNode(w, g, out);
      });
      split.splits.emplace_back(out.records.front().key, fresh);
    }
    begin = end;
  }
  return split;
}

BufferBTreeTable::SplitResult BufferBTreeTable::deliver(
    BlockId node, const std::vector<Record>& messages) {
  const Geometry g{fanout_, buffer_cap_, leaf_cap_};

  // Fast path: append into the node's buffer with one rmw.
  struct FastResult {
    bool appended = false;
    bool is_leaf = false;
  };
  const FastResult fast =
      ctx_.device->withWrite(node, [&](std::span<Word> w) {
        if ((w[0] & kInternalFlag) == 0) return FastResult{false, true};
        const auto buffered = static_cast<std::size_t>(w[1]);
        if (buffered + messages.size() > buffer_cap_)
          return FastResult{false, false};
        for (std::size_t i = 0; i < messages.size(); ++i) {
          w[g.bufferAt(buffered + i)] = messages[i].key;
          w[g.bufferAt(buffered + i) + 1] = messages[i].value;
        }
        w[1] = buffered + messages.size();
        return FastResult{true, false};
      });
  if (fast.is_leaf) return applyToLeaf(node, messages);
  if (fast.appended) return SplitResult{};

  // Flush path: the buffer overflows. Combine (old buffer first — it is
  // older), compact, partition by pivots, push each group down, then
  // rewrite this node with an empty buffer and any new pivots.
  ++flushes_;
  NodeImage img = readNode(ctx_.device->inspect(node), g);
  std::vector<Record> combined = std::move(img.buffer);
  combined.insert(combined.end(), messages.begin(), messages.end());
  const std::vector<Record> batch = compactMessages(std::move(combined));

  std::vector<std::pair<std::uint64_t, BlockId>> new_pivots;
  std::size_t begin = 0;
  for (std::size_t child = 0; child <= img.pivots.size(); ++child) {
    std::size_t end = begin;
    while (end < batch.size() &&
           (child == img.pivots.size() ||
            batch[end].key < img.pivots[child])) {
      ++end;
    }
    if (end > begin) {
      std::vector<Record> group(batch.begin() + static_cast<std::ptrdiff_t>(begin),
                                batch.begin() + static_cast<std::ptrdiff_t>(end));
      const SplitResult child_split = deliver(img.children[child], group);
      for (const auto& entry : child_split.splits) {
        new_pivots.push_back(entry);
      }
    }
    begin = end;
  }

  // Install child splits into this node's pivot array.
  for (const auto& [pivot, right] : new_pivots) {
    const auto idx = static_cast<std::size_t>(
        std::upper_bound(img.pivots.begin(), img.pivots.end(), pivot) -
        img.pivots.begin());
    img.pivots.insert(img.pivots.begin() + static_cast<std::ptrdiff_t>(idx),
                      pivot);
    img.children.insert(
        img.children.begin() + static_cast<std::ptrdiff_t>(idx) + 1, right);
  }
  img.buffer.clear();

  SplitResult split;
  // Peel right siblings off until this node fits; each peel promotes one
  // pivot. Skewed batches may require several peels.
  const std::size_t keep = std::max<std::size_t>(1, fanout_ / 2);
  while (img.pivots.size() > fanout_) {
    const std::size_t mid = img.pivots.size() - keep - 1;
    NodeImage right_img;
    right_img.is_leaf = false;
    right_img.pivots.assign(
        img.pivots.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
        img.pivots.end());
    right_img.children.assign(
        img.children.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
        img.children.end());
    const std::uint64_t up_key = img.pivots[mid];
    img.pivots.resize(mid);
    img.children.resize(mid + 1);
    const BlockId right = ctx_.device->allocate();
    ++node_blocks_;
    ctx_.device->withOverwrite(right, [&](std::span<Word> w) {
      writeNode(w, g, right_img);
    });
    split.splits.emplace_back(up_key, right);
  }
  ctx_.device->withOverwrite(node, [&](std::span<Word> w) {
    writeNode(w, g, img);
  });
  return split;
}

void BufferBTreeTable::splitMemRoot() {
  const Geometry g{fanout_, buffer_cap_, leaf_cap_};
  EXTHASH_CHECK(!root_is_leaf_);
  // A batched flush can install many pivots at once, so the memory root is
  // carved into as many disk nodes as needed — each holding keep =
  // max(1, F/2) pivots — with the separators promoted. A lone leftover
  // child would make a node without pivots, so it joins the node before
  // it, which then holds keep + 1 <= F pivots. Recurse if the promoted
  // level still overflows.
  const std::size_t keep = std::max<std::size_t>(1, fanout_ / 2);
  std::vector<std::uint64_t> new_keys;
  std::vector<BlockId> new_children;
  std::size_t begin = 0;  // index into root_children_
  while (begin < root_children_.size()) {
    std::size_t end = std::min(root_children_.size(), begin + keep + 1);
    if (root_children_.size() - end == 1) end = root_children_.size();
    NodeImage img;
    img.is_leaf = false;
    img.pivots.assign(
        root_keys_.begin() + static_cast<std::ptrdiff_t>(begin),
        root_keys_.begin() + static_cast<std::ptrdiff_t>(end - 1));
    img.children.assign(
        root_children_.begin() + static_cast<std::ptrdiff_t>(begin),
        root_children_.begin() + static_cast<std::ptrdiff_t>(end));
    const BlockId id = ctx_.device->allocate();
    ++node_blocks_;
    ctx_.device->withOverwrite(id, [&](std::span<Word> w) {
      writeNode(w, g, img);
    });
    new_children.push_back(id);
    if (end - 1 < root_keys_.size()) new_keys.push_back(root_keys_[end - 1]);
    begin = end;
  }
  root_keys_ = std::move(new_keys);
  root_children_ = std::move(new_children);
  ++height_;
  if (root_keys_.size() > fanout_) splitMemRoot();
}

void BufferBTreeTable::flushRootBuffer() {
  const std::vector<Record> batch =
      compactMessages(std::move(root_buffer_));
  root_buffer_.clear();

  if (root_is_leaf_) {
    // Apply directly to the in-memory leaf payload.
    std::vector<Record> merged;
    merged.reserve(root_records_.size() + batch.size());
    std::size_t i = 0, j = 0;
    while (i < root_records_.size() || j < batch.size()) {
      if (j >= batch.size() || (i < root_records_.size() &&
                                root_records_[i].key < batch[j].key)) {
        merged.push_back(root_records_[i++]);
        continue;
      }
      if (i < root_records_.size() &&
          root_records_[i].key == batch[j].key) {
        ++i;
      }
      const Record msg = batch[j++];
      if (msg.value != kTombstoneValue) merged.push_back(msg);
    }
    root_records_ = std::move(merged);
    if (root_records_.size() <= leaf_cap_) return;
    // Graduate: move the payload into disk leaves under an internal root.
    const Geometry g{fanout_, buffer_cap_, leaf_cap_};
    const std::size_t left_n = root_records_.size() / 2;
    const BlockId left = ctx_.device->allocate();
    const BlockId right = ctx_.device->allocate();
    node_blocks_ += 2;
    NodeImage left_img, right_img;
    left_img.is_leaf = right_img.is_leaf = true;
    left_img.records.assign(
        root_records_.begin(),
        root_records_.begin() + static_cast<std::ptrdiff_t>(left_n));
    right_img.records.assign(
        root_records_.begin() + static_cast<std::ptrdiff_t>(left_n),
        root_records_.end());
    ctx_.device->withOverwrite(left, [&](std::span<Word> w) {
      writeNode(w, g, left_img);
    });
    ctx_.device->withOverwrite(right, [&](std::span<Word> w) {
      writeNode(w, g, right_img);
    });
    root_is_leaf_ = false;
    root_keys_ = {right_img.records.front().key};
    root_children_ = {left, right};
    root_records_.clear();
    ++height_;
    return;
  }

  // Internal root: partition by root pivots and deliver downward.
  std::vector<std::pair<std::uint64_t, BlockId>> new_pivots;
  std::size_t begin = 0;
  for (std::size_t child = 0; child <= root_keys_.size(); ++child) {
    std::size_t end = begin;
    while (end < batch.size() && (child == root_keys_.size() ||
                                  batch[end].key < root_keys_[child])) {
      ++end;
    }
    if (end > begin) {
      std::vector<Record> group(batch.begin() + static_cast<std::ptrdiff_t>(begin),
                                batch.begin() + static_cast<std::ptrdiff_t>(end));
      const SplitResult split = deliver(root_children_[child], group);
      for (const auto& entry : split.splits) new_pivots.push_back(entry);
    }
    begin = end;
  }
  for (const auto& [pivot, right] : new_pivots) {
    const auto idx = rootChildIndex(pivot);
    root_keys_.insert(root_keys_.begin() + static_cast<std::ptrdiff_t>(idx),
                      pivot);
    root_children_.insert(
        root_children_.begin() + static_cast<std::ptrdiff_t>(idx) + 1, right);
  }
  if (root_keys_.size() > fanout_) splitMemRoot();
  EXTHASH_CHECK_MSG(root_keys_.size() <= fanout_,
                    "memory root still overflowing after split");
}

void BufferBTreeTable::visitSubtree(BlockId node,
                                    LayoutVisitor& visitor) const {
  const Geometry g{fanout_, buffer_cap_, leaf_cap_};
  const NodeImage img = readNode(ctx_.device->inspect(node), g);
  for (const Record& msg : img.buffer) {
    if (msg.value != kTombstoneValue) visitor.diskItem(node, msg);
  }
  if (img.is_leaf) {
    for (const Record& r : img.records) visitor.diskItem(node, r);
    return;
  }
  for (const BlockId child : img.children) visitSubtree(child, visitor);
}

void BufferBTreeTable::visitLayout(LayoutVisitor& visitor) const {
  for (const Record& msg : root_buffer_) {
    if (msg.value != kTombstoneValue) visitor.memoryItem(msg);
  }
  if (root_is_leaf_) {
    for (const Record& r : root_records_) visitor.memoryItem(r);
    return;
  }
  for (const BlockId child : root_children_) visitSubtree(child, visitor);
}

std::string BufferBTreeTable::debugString() const {
  return "buffer-btree{height=" + std::to_string(height_) +
         ", fanout=" + std::to_string(fanout_) +
         ", buffer=" + std::to_string(buffer_cap_) +
         ", size=" + std::to_string(live_size_) +
         ", flushes=" + std::to_string(flushes_) +
         ", nodes=" + std::to_string(node_blocks_) + "}";
}

// ---------------------------------------------------------------------------
// Checkpoint metadata
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kBufferBTreeMetaMagic =
    0x4242545245454D54ULL;  // BBTREEMT

std::vector<std::uint64_t> flattenRecords(
    const std::vector<Record>& records) {
  std::vector<std::uint64_t> flat;
  flat.reserve(2 * records.size());
  for (const auto& r : records) {
    flat.push_back(r.key);
    flat.push_back(r.value);
  }
  return flat;
}

std::vector<Record> unflattenRecords(
    const std::vector<std::uint64_t>& flat) {
  EXTHASH_CHECK(flat.size() % 2 == 0);
  std::vector<Record> records;
  records.reserve(flat.size() / 2);
  for (std::size_t i = 0; i < flat.size(); i += 2)
    records.push_back({flat[i], flat[i + 1]});
  return records;
}
}  // namespace

std::vector<std::uint64_t> BufferBTreeTable::serializeMeta() const {
  MetaWriter w;
  w.tag(kBufferBTreeMetaMagic);
  w.u64(fanout_);
  w.u64(buffer_cap_);
  w.u64(leaf_cap_);
  w.u64(live_size_);
  w.u64(height_);
  w.u64(flushes_);
  w.u64(node_blocks_);
  w.b(root_is_leaf_);
  w.vec(root_keys_);
  w.vec(root_children_);
  w.vec(flattenRecords(root_records_));
  // Message order is semantic (oldest first); the flat vector preserves it.
  w.vec(flattenRecords(root_buffer_));
  return w.take();
}

void BufferBTreeTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kBufferBTreeMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == fanout_ && r.u64() == buffer_cap_ &&
                        r.u64() == leaf_cap_,
                    "buffer-btree checkpoint geometry mismatch");
  live_size_ = r.u64();
  height_ = r.u64();
  flushes_ = r.u64();
  node_blocks_ = r.u64();
  root_is_leaf_ = r.b();
  root_keys_ = r.vec();
  root_children_ = r.vec();
  root_records_ = unflattenRecords(r.vec());
  root_buffer_ = unflattenRecords(r.vec());
  EXTHASH_CHECK_MSG(r.done(), "trailing words in buffer-btree checkpoint meta");
}

void BufferBTreeTable::auditSubtree(BlockId node, std::size_t depth,
                                    std::optional<std::uint64_t> lo,
                                    std::optional<std::uint64_t> hi,
                                    AuditReport& report,
                                    std::uint64_t& nodes_seen) const {
  const char* kComponent = "buffer-btree";
  ++nodes_seen;
  EXTHASH_AUDIT_EXPECT(report, kComponent, ctx_.device->isAllocated(node),
                       "tree links freed block " << node << " at depth "
                                                 << depth);
  if (!ctx_.device->isAllocated(node)) return;
  if (nodes_seen > node_blocks_ + 1) {
    // A pointer cycle would recurse forever; the ledger check at the top
    // already reports the mismatch, so just stop descending.
    return;
  }

  // Validate the raw header counts BEFORE readNode materializes the
  // image: a corrupted count must become a finding, not an out-of-range
  // span read.
  const std::span<const Word> w = ctx_.device->inspect(node);
  const auto count = static_cast<std::size_t>(w[0] & 0xffffffffULL);
  const bool is_leaf = (w[0] & kInternalFlag) == 0;
  if (is_leaf) {
    EXTHASH_AUDIT_EXPECT(report, kComponent, count <= leaf_cap_,
                         "leaf " << node << " claims " << count
                                 << " records, capacity " << leaf_cap_);
    EXTHASH_AUDIT_EXPECT(report, kComponent, depth + 1 == height_,
                         "leaf " << node << " at depth " << depth
                                 << ", tree height is " << height_);
    if (count > leaf_cap_) return;
  } else {
    const auto buffered = static_cast<std::size_t>(w[1]);
    EXTHASH_AUDIT_EXPECT(report, kComponent, count <= fanout_,
                         "node " << node << " claims " << count
                                 << " pivots, fanout " << fanout_);
    EXTHASH_AUDIT_EXPECT(report, kComponent, buffered <= buffer_cap_,
                         "node " << node << " buffers " << buffered
                                 << " messages, capacity " << buffer_cap_);
    EXTHASH_AUDIT_EXPECT(report, kComponent, count >= 1,
                         "internal node " << node << " has no pivot");
    if (count > fanout_ || buffered > buffer_cap_) return;
  }

  const Geometry g{fanout_, buffer_cap_, leaf_cap_};
  const NodeImage img = readNode(w, g);
  const auto in_range = [&](std::uint64_t key) {
    return (!lo || key >= *lo) && (!hi || key < *hi);
  };
  if (img.is_leaf) {
    for (std::size_t i = 0; i < img.records.size(); ++i) {
      const std::uint64_t key = img.records[i].key;
      EXTHASH_AUDIT_EXPECT(report, kComponent,
                           i == 0 || img.records[i - 1].key < key,
                           "leaf " << node << " key order broken at slot "
                                   << i);
      EXTHASH_AUDIT_EXPECT(report, kComponent, in_range(key),
                           "leaf " << node << " key " << key
                                   << " escapes its fence interval");
    }
    return;
  }
  for (std::size_t i = 0; i < img.pivots.size(); ++i) {
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         i == 0 || img.pivots[i - 1] < img.pivots[i],
                         "node " << node << " pivot order broken at slot "
                                 << i);
    EXTHASH_AUDIT_EXPECT(report, kComponent, in_range(img.pivots[i]),
                         "node " << node << " pivot " << img.pivots[i]
                                 << " escapes its fence interval");
  }
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       img.children.size() == img.pivots.size() + 1,
                       "node " << node << " has " << img.children.size()
                               << " children for " << img.pivots.size()
                               << " pivots");
  for (const Record& msg : img.buffer) {
    EXTHASH_AUDIT_EXPECT(report, kComponent, in_range(msg.key),
                         "node " << node << " buffered message for key "
                                 << msg.key
                                 << " escapes its fence interval");
  }
  for (std::size_t i = 0; i < img.children.size(); ++i) {
    // Child i covers [pivots[i-1], pivots[i]) — rootChildIndex's
    // upper_bound convention.
    auditSubtree(img.children[i], depth + 1,
                 i == 0 ? lo : std::optional<std::uint64_t>(img.pivots[i - 1]),
                 i == img.pivots.size()
                     ? hi
                     : std::optional<std::uint64_t>(img.pivots[i]),
                 report, nodes_seen);
  }
}

void BufferBTreeTable::validateLayout(AuditReport& report) const {
  ExternalHashTable::validateLayout(report);  // attached-cache audit
  const char* kComponent = "buffer-btree";

  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       std::is_sorted(root_keys_.begin(), root_keys_.end()),
                       "memory-root pivots out of order");
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       root_buffer_.size() <= buffer_cap_,
                       "memory-root buffers " << root_buffer_.size()
                           << " messages, capacity " << buffer_cap_);
  if (root_is_leaf_) {
    EXTHASH_AUDIT_EXPECT(report, kComponent,
                         root_children_.empty() && height_ == 1,
                         "leaf root carries " << root_children_.size()
                             << " children at height " << height_);
    EXTHASH_AUDIT_EXPECT(report, kComponent, node_blocks_ == 0,
                         "leaf root but " << node_blocks_
                             << " device nodes on the ledger");
    return;
  }
  EXTHASH_AUDIT_EXPECT(report, kComponent,
                       root_children_.size() == root_keys_.size() + 1,
                       "memory root has " << root_children_.size()
                           << " children for " << root_keys_.size()
                           << " pivots");
  EXTHASH_AUDIT_EXPECT(report, kComponent, height_ >= 2,
                       "internal root at height " << height_);
  if (root_children_.size() != root_keys_.size() + 1) return;
  std::uint64_t nodes_seen = 0;
  for (std::size_t i = 0; i < root_children_.size(); ++i) {
    auditSubtree(
        root_children_[i], 1,
        i == 0 ? std::nullopt
               : std::optional<std::uint64_t>(root_keys_[i - 1]),
        i == root_keys_.size()
            ? std::nullopt
            : std::optional<std::uint64_t>(root_keys_[i]),
        report, nodes_seen);
  }
  EXTHASH_AUDIT_EXPECT(report, kComponent, nodes_seen == node_blocks_,
                       "tree reaches " << nodes_seen
                           << " nodes, ledger says " << node_blocks_);
}

}  // namespace exthash::tables
