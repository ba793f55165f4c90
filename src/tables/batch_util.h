// Shared helpers for the batch-first dictionary API (applyBatch /
// lookupBatch): grouping a batch by target bucket, replaying a bucket's
// operations in memory, and the one-pass chain rewrite used by every
// chained-bucket table (chaining, linear hashing). Header-only so the
// tables inline them into their own addressing.
//
// The chain-walk helpers are templates over the block-access type: pass a
// BlockDevice for raw counted access, or an extmem::CachedBlockIo to read
// through an attached BlockCache (hits cost zero I/Os) while keeping the
// cache coherent across the rewrite.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/bucket_page.h"
#include "extmem/memory_budget.h"
#include "extmem/record.h"
#include "tables/hash_table.h"

namespace exthash::tables::batch {

/// (bucket, original index) pairs sorted by bucket, original order
/// preserved within a bucket — the grouping that turns k ops against one
/// block extent into one read-modify-write.
///
/// A stable LSD radix sort with one counting pass per byte that is not the
/// same in every bucket of the batch. The pairs start in index order, so
/// the result is exactly the (bucket, index) order a comparison sort of
/// the pairs gives, and the block-visit order — with every cache decision
/// and counted I/O behind it — does not depend on how it is computed. The
/// pass's second buffer, as large as the result, is charged to `memory`
/// while it lives.
template <class BucketOf>
std::vector<std::pair<std::uint64_t, std::size_t>> orderByBucket(
    extmem::MemoryBudget& memory, std::size_t n, BucketOf&& bucket_of) {
  using Entry = std::pair<std::uint64_t, std::size_t>;
  std::vector<Entry> order;
  order.reserve(n);
  // The bits in which some bucket differs from the first.
  std::uint64_t varying = 0;
  for (std::size_t i = 0; i < n; ++i) {
    order.emplace_back(bucket_of(i), i);
    varying |= order.front().first ^ order.back().first;
  }
  if (varying == 0) return order;

  extmem::MemoryCharge scratch(memory, 2 * n);
  std::vector<Entry> buffer(n);
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    std::array<std::size_t, 256> next{};
    for (const Entry& e : order) ++next[(e.first >> shift) & 0xff];
    std::size_t start = 0;
    for (std::size_t& slot : next) start += std::exchange(slot, start);
    for (const Entry& e : order) buffer[next[(e.first >> shift) & 0xff]++] = e;
    order.swap(buffer);
  }
  return order;
}

/// Invoke fn(bucket, begin, end) for each run of equal buckets in an
/// orderByBucket result; [begin, end) index into `order`.
template <class Fn>
void forEachGroup(
    const std::vector<std::pair<std::uint64_t, std::size_t>>& order,
    Fn&& fn) {
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j < order.size() && order[j].first == order[i].first) ++j;
    fn(order[i].first, i, j);
    i = j;
  }
}

/// Apply ops in order to an in-memory record vector (update-in-place on
/// insert of an existing key, drop on erase). Returns the net change in
/// record count.
inline std::ptrdiff_t applyOpsToRecords(std::vector<Record>& records,
                                        std::span<const Op> ops) {
  std::ptrdiff_t delta = 0;
  for (const Op& op : ops) {
    const auto it =
        std::find_if(records.begin(), records.end(),
                     [&](const Record& r) { return r.key == op.key; });
    if (op.kind == OpKind::kInsert) {
      if (it != records.end()) {
        it->value = op.value;
      } else {
        records.push_back(Record{op.key, op.value});
        ++delta;
      }
    } else if (it != records.end()) {
      records.erase(it);
      --delta;
    }
  }
  return delta;
}

/// Replay >= 2 ops against one chained bucket with a single pass.
///
/// Single-block bucket: one rmw loads, replays, and rewrites the page in
/// place; growth past one block writes fresh overflow inside the same
/// guarded scope (block storage is chunk-stable, so the span stays valid).
/// Chained bucket: the rmw salvages the primary's records, the rest of the
/// chain is drained (overflow freed), and the whole chain is rewritten
/// once. (Opening the primary as an rmw rather than a read costs the same
/// under the paper's footnote-2 convention — rmw and read are both one
/// I/O — so probing write-capable first keeps the single-block case at
/// cost 1 without penalizing the chained case.) `overflow_blocks` tracks
/// the table's overflow-block counter. Returns the net record-count
/// change.
template <class Io>
std::ptrdiff_t applyOpsToChain(Io&& device, extmem::BlockId primary,
                               std::span<const Op> ops,
                               std::uint64_t& overflow_blocks) {
  using extmem::BlockId;
  using extmem::BucketPage;
  using extmem::ConstBucketPage;
  using extmem::kInvalidBlock;
  using extmem::Word;
  const std::size_t cap =
      extmem::recordCapacityForWords(device.wordsPerBlock());

  // Write the overflow chain for `records` beyond the primary's capacity;
  // returns the first overflow id (or invalid when everything fits).
  auto writeOverflow = [&](const std::vector<Record>& records) {
    const std::size_t blocks =
        records.size() <= cap ? 0 : (records.size() - cap + cap - 1) / cap;
    std::vector<BlockId> chain(blocks);
    for (std::size_t i = 0; i < blocks; ++i) {
      chain[i] = device.allocate();
      ++overflow_blocks;
    }
    for (std::size_t i = 0; i < blocks; ++i) {
      device.withOverwrite(chain[i], [&](std::span<Word> data) {
        BucketPage page(data);
        page.format();
        const std::size_t begin = cap + i * cap;
        const std::size_t end = std::min(records.size(), begin + cap);
        for (std::size_t r = begin; r < end; ++r) {
          // Hot path: cannot fail (end - begin <= cap by construction), so
          // debug-only — but the append must still RUN in Release, hence
          // the hoisted call (EXTHASH_DCHECK never evaluates under NDEBUG).
          const bool appended = page.append(records[r]);
          EXTHASH_DCHECK(appended);
          (void)appended;
        }
        if (i + 1 < blocks) page.setNext(chain[i + 1]);
      });
    }
    return blocks > 0 ? chain[0] : kInvalidBlock;
  };

  struct FastResult {
    bool handled = false;
    std::ptrdiff_t delta = 0;
    BlockId next = kInvalidBlock;
    std::vector<Record> primary_records;  // salvage for the chained path
  };
  FastResult fast = device.withWrite(primary, [&](std::span<Word> data) {
    BucketPage page(data);
    FastResult r;
    std::vector<Record> records;
    const std::size_t n = page.count();
    records.reserve(n + ops.size());
    for (std::size_t i = 0; i < n; ++i) records.push_back(page.recordAt(i));
    if (page.hasNext()) {
      r.next = page.next();
      r.primary_records = std::move(records);
      return r;
    }
    r.delta = applyOpsToRecords(records, ops);
    r.handled = true;
    const std::uint32_t flags = page.flags();
    page.format();
    page.setFlags(flags);
    const std::size_t in_primary = std::min(records.size(), cap);
    for (std::size_t i = 0; i < in_primary; ++i) {
      const bool appended = page.append(records[i]);
      EXTHASH_DCHECK(appended);  // in_primary <= cap; hoisted for NDEBUG
      (void)appended;
    }
    page.setNext(writeOverflow(records));
    return r;
  });
  if (fast.handled) return fast.delta;

  std::vector<Record> records = std::move(fast.primary_records);
  BlockId current = fast.next;
  while (current != kInvalidBlock) {
    const BlockId next =
        device.withRead(current, [&](std::span<const Word> data) {
          ConstBucketPage page(data);
          const std::size_t n = page.count();
          for (std::size_t i = 0; i < n; ++i)
            records.push_back(page.recordAt(i));
          return page.next();
        });
    device.free(current);
    --overflow_blocks;
    current = next;
  }
  const std::ptrdiff_t delta = applyOpsToRecords(records, ops);

  device.withOverwrite(primary, [&](std::span<Word> data) {
    BucketPage page(data);
    page.format();
    const std::size_t in_primary = std::min(records.size(), cap);
    for (std::size_t i = 0; i < in_primary; ++i) {
      const bool appended = page.append(records[i]);
      EXTHASH_DCHECK(appended);  // in_primary <= cap; hoisted for NDEBUG
      (void)appended;
    }
    page.setNext(writeOverflow(records));
  });
  return delta;
}

/// Answer every pending key against one bucket chain with a single pass;
/// unresolved keys are set to nullopt. `pending` holds indices into
/// keys/out and is consumed.
template <class Io>
void lookupInChain(Io&& device, extmem::BlockId primary,
                   std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out,
                   std::vector<std::size_t>& pending) {
  using extmem::BlockId;
  using extmem::ConstBucketPage;
  using extmem::kInvalidBlock;
  using extmem::Word;
  BlockId current = primary;
  while (current != kInvalidBlock && !pending.empty()) {
    current = device.withRead(current, [&](std::span<const Word> data) {
      ConstBucketPage page(data);
      for (auto it = pending.begin(); it != pending.end();) {
        if (auto v = page.find(keys[*it])) {
          out[*it] = v;
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      return page.next();
    });
  }
  for (const std::size_t idx : pending) out[idx] = std::nullopt;
  pending.clear();
}

}  // namespace exthash::tables::batch
