// The chained-bucket page protocol shared by ChainingHashTable and
// LinearHashTable: a bucket is a primary block plus an overflow chain of
// BucketPages linked through their page headers. These helpers extend,
// update and unlink a chain one op at a time (insert, erase), replay a
// group of ops or answer a group of keys in one pass (applyOps,
// lookupPending; a lookup is a group of one key), and visit, audit and
// free whole tables of chains; the tables
// keep only their addressing (bucket of a key, primary block of a bucket)
// and pass it in. Header-only so each table inlines them.
//
// The counted helpers are templates over the block-access type: pass a
// BlockDevice for raw counted access, or an extmem::CachedBlockIo to read
// through an attached BlockCache (hits cost zero I/Os) while keeping the
// cache coherent across every rewrite. The uncounted walks (visit, audit,
// free) take the table's CachedBlockIo, flush it first — they read the
// device directly, and under a write-back cache the dirty frames hold the
// live chain links — and then inspect() the device.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "extmem/bucket_page.h"
#include "extmem/cached_io.h"
#include "extmem/fault.h"
#include "extmem/memory_budget.h"
#include "extmem/record.h"
#include "tables/batch_util.h"
#include "tables/hash_table.h"
#include "util/audit.h"

namespace exthash::tables::chain {

/// Insert `key` → `value` into the chain at `primary`, updating in place
/// if the key is already there. Returns true if the key was new.
///
/// Common path (single-block bucket): one rmw covers update, append, and
/// first-overflow creation (the new block is written inside the same
/// guarded scope; block storage is chunk-stable, so the span stays valid).
/// General path (the bucket has overflow blocks, probability 1/2^Ω(b) at
/// load < 1/2): walk the chain past the primary, looking for the key and
/// remembering the first block with free space.
template <class Io>
bool insert(Io&& io, extmem::BlockId primary, std::uint64_t key,
            std::uint64_t value, std::uint64_t& overflow_blocks) {
  using extmem::BlockId;
  using extmem::BucketPage;
  using extmem::ConstBucketPage;
  using extmem::kInvalidBlock;
  using extmem::Word;

  struct FastResult {
    bool handled = false;
    bool inserted_new = false;
    bool primary_full = false;
    BlockId next = kInvalidBlock;
  };
  const FastResult fast = io.withWrite(primary, [&](std::span<Word> data) {
    BucketPage page(data);
    FastResult r;
    if (auto idx = page.indexOf(key)) {
      page.setValueAt(*idx, value);
      r.handled = true;
      return r;
    }
    if (page.hasNext()) {  // long chain: general path below
      r.primary_full = page.full();
      r.next = page.next();
      return r;
    }
    if (page.append(Record{key, value})) {
      r.handled = r.inserted_new = true;
      return r;
    }
    const BlockId fresh = io.allocate();
    io.withOverwrite(fresh, [&](std::span<Word> fresh_data) {
      BucketPage fresh_page(fresh_data);
      fresh_page.format();
      EXTHASH_CHECK(fresh_page.append(Record{key, value}));
    });
    page.setNext(fresh);
    ++overflow_blocks;
    r.handled = r.inserted_new = true;
    return r;
  });
  if (fast.handled) return fast.inserted_new;

  BlockId current = fast.next;
  BlockId first_with_space = fast.primary_full ? kInvalidBlock : primary;
  BlockId last = primary;
  while (current != kInvalidBlock) {
    struct ChainInfo {
      bool found = false;
      bool full = true;
      BlockId next = kInvalidBlock;
    };
    const ChainInfo info =
        io.withRead(current, [&](std::span<const Word> data) {
          ConstBucketPage page(data);
          return ChainInfo{page.indexOf(key).has_value(), page.full(),
                           page.next()};
        });
    if (info.found) {
      io.withWrite(current, [&](std::span<Word> data) {
        BucketPage page(data);
        const auto idx = page.indexOf(key);
        EXTHASH_CHECK(idx.has_value());
        page.setValueAt(*idx, value);
      });
      return false;
    }
    if (!info.full && first_with_space == kInvalidBlock)
      first_with_space = current;
    last = current;
    current = info.next;
  }

  if (first_with_space != kInvalidBlock) {
    io.withWrite(first_with_space, [&](std::span<Word> data) {
      EXTHASH_CHECK(BucketPage(data).append(Record{key, value}));
    });
  } else {
    const BlockId fresh = io.allocate();
    io.withOverwrite(fresh, [&](std::span<Word> data) {
      BucketPage page(data);
      page.format();
      EXTHASH_CHECK(page.append(Record{key, value}));
    });
    io.withWrite(last, [&](std::span<Word> data) {
      BucketPage(data).setNext(fresh);
    });
    ++overflow_blocks;
  }
  return true;
}

/// Remove `key` from the chain at `primary`; returns true if it was
/// there. An overflow block the removal empties is unlinked and freed, to
/// keep chains tight.
template <class Io>
bool erase(Io&& io, extmem::BlockId primary, std::uint64_t key,
           std::uint64_t& overflow_blocks) {
  using extmem::BlockId;
  using extmem::BucketPage;
  using extmem::Word;
  struct Info {
    std::optional<std::size_t> index;
    std::size_t count = 0;
    BlockId next = extmem::kInvalidBlock;
  };
  BlockId prev = extmem::kInvalidBlock;
  BlockId current = primary;
  while (current != extmem::kInvalidBlock) {
    const Info info = io.withRead(current, [&](std::span<const Word> data) {
      extmem::ConstBucketPage page(data);
      return Info{page.indexOf(key), page.count(), page.next()};
    });
    if (info.index) {
      io.withWrite(current, [&](std::span<Word> data) {
        BucketPage page(data);
        const auto idx = page.indexOf(key);
        EXTHASH_CHECK(idx.has_value());
        page.removeAt(*idx);
      });
      if (current != primary && info.count == 1) {
        io.withWrite(prev, [&](std::span<Word> data) {
          BucketPage(data).setNext(info.next);
        });
        io.free(current);
        --overflow_blocks;
      }
      return true;
    }
    prev = current;
    current = info.next;
  }
  return false;
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

/// Append the records of the page at `id` to `records` (one read) and
/// return the page's next link.
template <class Io>
extmem::BlockId readRecords(Io&& io, extmem::BlockId id,
                            std::vector<Record>& records) {
  return io.withRead(id, [&](std::span<const extmem::Word> data) {
    extmem::ConstBucketPage page(data);
    const std::size_t n = page.count();
    for (std::size_t i = 0; i < n; ++i) records.push_back(page.recordAt(i));
    return page.next();
  });
}

/// Read the overflow chain from `first` on, appending every record to
/// `records` and freeing each block once read: one read per block.
template <class Io>
void drainOverflow(Io&& io, extmem::BlockId first,
                   std::vector<Record>& records,
                   std::uint64_t& overflow_blocks) {
  extmem::BlockId current = first;
  while (current != extmem::kInvalidBlock) {
    const extmem::BlockId next = readRecords(io, current, records);
    io.free(current);
    --overflow_blocks;
    current = next;
  }
}

/// Write `records` as the whole chain at `primary`: the primary holds the
/// first b records, fresh overflow blocks the rest. Every block is written
/// once, blind (the primary even when `records` is empty).
template <class Io>
void write(Io&& io, extmem::BlockId primary, std::span<const Record> records,
           std::uint64_t& overflow_blocks) {
  const std::size_t cap = extmem::recordCapacityForWords(io.wordsPerBlock());
  const std::size_t blocks =
      records.empty() ? 1 : (records.size() + cap - 1) / cap;
  std::vector<extmem::BlockId> chain(blocks);
  chain[0] = primary;
  for (std::size_t i = 1; i < blocks; ++i) {
    chain[i] = io.allocate();
    ++overflow_blocks;
  }
  for (std::size_t i = 0; i < blocks; ++i) {
    io.withOverwrite(chain[i], [&](std::span<extmem::Word> data) {
      extmem::BucketPage page(data);
      page.format();
      const std::size_t end = std::min(records.size(), (i + 1) * cap);
      for (std::size_t r = i * cap; r < end; ++r)
        EXTHASH_CHECK(page.append(records[r]));
      if (i + 1 < blocks) page.setNext(chain[i + 1]);
    });
  }
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
/// cost 1 without penalizing the chained case.) Returns the net
/// record-count change.
template <class Io>
std::ptrdiff_t applyOps(Io&& io, extmem::BlockId primary,
                        std::span<const Op> ops,
                        std::uint64_t& overflow_blocks) {
  using extmem::BlockId;
  using extmem::BucketPage;
  using extmem::ConstBucketPage;
  using extmem::kInvalidBlock;
  using extmem::Word;
  const std::size_t cap = extmem::recordCapacityForWords(io.wordsPerBlock());

  // Write the overflow chain for `records` beyond the primary's capacity;
  // returns the first overflow id (or invalid when everything fits).
  auto writeOverflow = [&](const std::vector<Record>& records) {
    const std::size_t blocks =
        records.size() <= cap ? 0 : (records.size() - cap + cap - 1) / cap;
    std::vector<BlockId> chain(blocks);
    for (std::size_t i = 0; i < blocks; ++i) {
      chain[i] = io.allocate();
      ++overflow_blocks;
    }
    for (std::size_t i = 0; i < blocks; ++i) {
      io.withOverwrite(chain[i], [&](std::span<Word> data) {
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
  FastResult fast = io.withWrite(primary, [&](std::span<Word> data) {
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
  drainOverflow(io, fast.next, records, overflow_blocks);
  const std::ptrdiff_t delta = applyOpsToRecords(records, ops);

  io.withOverwrite(primary, [&](std::span<Word> data) {
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
void lookupPending(Io&& io, extmem::BlockId primary,
                   std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out,
                   std::vector<std::size_t>& pending) {
  extmem::BlockId current = primary;
  while (current != extmem::kInvalidBlock && !pending.empty()) {
    current = io.withRead(current, [&](std::span<const extmem::Word> data) {
      extmem::ConstBucketPage page(data);
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

/// The grouped batch path over a bucket array: ops grouped by
/// `bucket_of(key)`, one chain pass per bucket at `block_of(bucket)` —
/// k ops against a single-block bucket cost one rmw instead of k. A lone
/// op takes the single-op path, which is already optimal (one rmw).
/// `size` and `overflow_blocks` are the table's counters.
template <class Io, class BucketOf, class BlockOf>
void applyBatch(Io&& io, extmem::MemoryBudget& memory,
                std::span<const Op> ops, BucketOf&& bucket_of,
                BlockOf&& block_of, std::size_t& size,
                std::uint64_t& overflow_blocks) {
  // The grouping index is merge scratch, charged like every other
  // in-memory working set.
  extmem::MemoryCharge scratch(memory, 2 * ops.size());
  const auto order = batch::orderByBucket(
      memory, ops.size(), [&](std::size_t i) { return bucket_of(ops[i].key); });

  std::vector<Op> group;
  batch::forEachGroup(order, [&](std::uint64_t bucket, std::size_t i,
                                 std::size_t j) {
    const extmem::BlockId primary = block_of(bucket);
    if (j - i == 1) {
      const Op& op = ops[order[i].second];
      if (op.kind == OpKind::kInsert) {
        if (insert(io, primary, op.key, op.value, overflow_blocks)) ++size;
      } else if (erase(io, primary, op.key, overflow_blocks)) {
        --size;
      }
      return;
    }
    group.clear();
    for (std::size_t k = i; k < j; ++k) group.push_back(ops[order[k].second]);
    const std::ptrdiff_t delta = applyOps(io, primary, group, overflow_blocks);
    size = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(size) + delta);
  });
}

/// Batched lookups grouped by bucket: one chain pass answers every key
/// that hashes to the same bucket.
template <class Io, class BucketOf, class BlockOf>
void lookupBatch(Io&& io, extmem::MemoryBudget& memory,
                 std::span<const std::uint64_t> keys,
                 std::span<std::optional<std::uint64_t>> out,
                 BucketOf&& bucket_of, BlockOf&& block_of) {
  EXTHASH_CHECK(keys.size() == out.size());
  const auto scratch = batch::lookupScratch(memory, keys.size());
  const auto order = batch::orderByBucket(
      memory, keys.size(), [&](std::size_t i) { return bucket_of(keys[i]); });

  std::vector<std::size_t> pending;
  batch::forEachGroup(order, [&](std::uint64_t bucket, std::size_t i,
                                 std::size_t j) {
    pending.clear();
    for (std::size_t k = i; k < j; ++k) pending.push_back(order[k].second);
    lookupPending(io, block_of(bucket), keys, out, pending);
  });
}

/// Hand every record of buckets [0, buckets) to `visitor` (uncounted).
template <class BlockOf>
void visit(extmem::CachedBlockIo io, std::uint64_t buckets,
           BlockOf&& block_of, LayoutVisitor& visitor) {
  io.flush();
  for (std::uint64_t j = 0; j < buckets; ++j) {
    extmem::BlockId current = block_of(j);
    while (current != extmem::kInvalidBlock) {
      extmem::ConstBucketPage page(io.device().inspect(current));
      const std::size_t n = page.count();
      for (std::size_t i = 0; i < n; ++i)
        visitor.diskItem(current, page.recordAt(i));
      current = page.next();
    }
  }
}

/// Deep audit of buckets [0, buckets) under `component` (uncounted):
/// record placement (bucket_of agreement), per-page counts, per-chain key
/// uniqueness, chain acyclicity, and that the table's `size` and
/// `overflow_blocks` match what the blocks actually hold.
template <class BlockOf, class BucketOf>
void audit(AuditReport& report, const char* component,
           extmem::CachedBlockIo io, std::uint64_t buckets,
           BlockOf&& block_of, BucketOf&& bucket_of, std::size_t size,
           std::uint64_t overflow_blocks) {
  io.flush();
  extmem::BlockDevice& device = io.device();
  // Any chain longer than primary + every overflow block the table ever
  // counted must contain a cycle; stop walking there instead of hanging.
  const std::uint64_t max_chain = 1 + overflow_blocks;
  std::size_t records_seen = 0;
  std::uint64_t overflow_seen = 0;
  std::vector<std::uint64_t> chain_keys;
  for (std::uint64_t j = 0; j < buckets; ++j) {
    chain_keys.clear();
    extmem::BlockId current = block_of(j);
    std::uint64_t hops = 0;
    while (current != extmem::kInvalidBlock) {
      if (hops > max_chain) {
        report.fail(component, "chain acyclic",
                    "bucket " + std::to_string(j) + " chain exceeds " +
                        std::to_string(max_chain) + " blocks (cycle?)");
        break;
      }
      EXTHASH_AUDIT_EXPECT(report, component, device.isAllocated(current),
                           "bucket " << j << " chain links freed block "
                                     << current);
      if (!device.isAllocated(current)) break;
      extmem::ConstBucketPage page(device.inspect(current));
      // Clamp before iterating: a corrupted header must produce a
      // finding, not out-of-range record reads.
      EXTHASH_AUDIT_EXPECT(report, component,
                           page.count() <= page.capacity(),
                           "block " << current << " claims " << page.count()
                               << " records, capacity " << page.capacity());
      const std::size_t n = std::min(page.count(), page.capacity());
      for (std::size_t i = 0; i < n; ++i) {
        const Record r = page.recordAt(i);
        EXTHASH_AUDIT_EXPECT(report, component, bucket_of(r.key) == j,
                             "key " << r.key << " stored in bucket " << j
                                    << " but addresses to bucket "
                                    << bucket_of(r.key));
        chain_keys.push_back(r.key);
      }
      records_seen += n;
      if (hops > 0) ++overflow_seen;
      ++hops;
      current = page.next();
    }
    std::sort(chain_keys.begin(), chain_keys.end());
    EXTHASH_AUDIT_EXPECT(
        report, component,
        std::adjacent_find(chain_keys.begin(), chain_keys.end()) ==
            chain_keys.end(),
        "bucket " << j << " chain stores a key twice");
  }
  EXTHASH_AUDIT_EXPECT(report, component, records_seen == size,
                       "blocks hold " << records_seen
                           << " records, size() reports " << size);
  EXTHASH_AUDIT_EXPECT(report, component, overflow_seen == overflow_blocks,
                       "chains link " << overflow_seen
                           << " overflow blocks, counter says "
                           << overflow_blocks);
}

/// Free the overflow blocks of buckets [0, buckets); the caller frees the
/// primary blocks. Runs from destructors, possibly on a dying device, so
/// an I/O error — in the flush or in a page read — only cuts the walk
/// short (the device has already counted it in io_gave_up and noted it
/// for the flight recorder): freeing is in-process bookkeeping, and
/// leaking ids on a failing device beats terminating the process. The
/// walk is uncounted, since deallocation is metadata, not data transfer
/// (the owner of a real disk would drop the whole file).
template <class BlockOf>
void freeOverflow(extmem::CachedBlockIo io, std::uint64_t buckets,
                  BlockOf&& block_of) {
  try {
    io.flush();
    for (std::uint64_t j = 0; j < buckets; ++j) {
      extmem::BlockId overflow =
          extmem::ConstBucketPage(io.device().inspect(block_of(j))).next();
      while (overflow != extmem::kInvalidBlock) {
        const extmem::BlockId next =
            extmem::ConstBucketPage(io.device().inspect(overflow)).next();
        io.free(overflow);
        overflow = next;
      }
    }
  } catch (const extmem::IoError&) {
    // Walked as far as the device allowed.
  }
}

}  // namespace exthash::tables::chain
