// The memory/fast/slow zone abstraction of Section 2.
//
// Given any table's item layout and its memory-computable address function
// f (ExternalHashTable::primaryBlockOf), classify each distinct key:
//   M — resides in internal memory (costs 0 I/Os to query)
//   F — some copy lives in block f(x)  (costs exactly 1 I/O)
//   S — everything else               (costs >= 2 I/Os)
// and check the paper's inequality (1): E|S| <= m + δk, which any table
// answering successful queries in 1 + δ expected average I/Os must obey.
#pragma once

#include <cstdint>

#include "tables/hash_table.h"

namespace exthash::lowerbound {

struct ZoneStats {
  std::uint64_t memory_items = 0;  // |M|
  std::uint64_t fast_items = 0;    // |F|
  std::uint64_t slow_items = 0;    // |S|
  std::uint64_t total_items = 0;   // k = |M| + |F| + |S| (distinct keys)
  std::uint64_t disk_copies = 0;   // disk records incl. duplicates/copies

  /// Minimum possible expected average query cost for this layout:
  /// (|F| + 2|S|) / k, counting memory hits as free — the quantity the
  /// paper lower-bounds by 1 + δ.
  double impliedQueryCost() const noexcept;

  /// The right side of inequality (1): m + δ·k.
  static double slowZoneBudget(std::uint64_t m_items, double delta,
                               std::uint64_t k) {
    return static_cast<double>(m_items) +
           delta * static_cast<double>(k);
  }
};

/// Classify every distinct key of `table` into the three zones.
/// Uses uncounted layout inspection; the table is not modified.
ZoneStats analyzeZones(const tables::ExternalHashTable& table);

}  // namespace exthash::lowerbound
