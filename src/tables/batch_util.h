// Shared helpers for the batch-first dictionary API (applyBatch /
// lookupBatch): grouping a batch by target bucket, and the grouping
// scratch a lookup batch charges. Header-only so the tables inline them
// into their own addressing. The chained-bucket tables' chain passes live
// in tables/bucket_chain.h.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "extmem/memory_budget.h"

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

/// The charge for a lookup batch's grouping index, 2 words per key while
/// it lives. One key needs no grouping and charges nothing, so lookup(key),
/// a one-key lookupBatch, holds no more memory than a single probe.
inline extmem::MemoryCharge lookupScratch(extmem::MemoryBudget& memory,
                                          std::size_t keys) {
  return extmem::MemoryCharge(memory, keys == 1 ? 0 : 2 * keys);
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

}  // namespace exthash::tables::batch
