// The unit of storage: a (key, value) record of two 64-bit words.
//
// The paper's "item" is one machine word; storing a value alongside the key
// scales the block capacity `b` (records per block) but changes none of the
// formulas, which are all expressed in terms of `b`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace exthash {

struct Record {
  std::uint64_t key = 0;
  std::uint64_t value = 0;

  friend bool operator==(const Record&, const Record&) = default;
};

/// Reserved value marking a deletion (LSM / log-method tombstones).
/// User values must not equal this sentinel; insert() checks.
inline constexpr std::uint64_t kTombstoneValue = 0xdeadbeefdeadbeefULL;

inline constexpr std::size_t kWordsPerRecord = 2;

/// A record travelling through a merge, with its order value h(key)
/// computed once where it entered (README, "Merges").
struct HashedRecord {
  std::uint64_t hash = 0;
  Record record;

  friend bool operator==(const HashedRecord&, const HashedRecord&) = default;
};

inline constexpr std::size_t kWordsPerHashedRecord = 3;

/// The order of every merge stream: (hash, key) ascending.
inline bool hashOrderLess(const HashedRecord& a,
                          const HashedRecord& b) noexcept {
  if (a.hash != b.hash) return a.hash < b.hash;
  return a.record.key < b.record.key;
}

/// Tag each record with hash(key) — one call per record — and sort by
/// (hash, key). `hash` is any callable uint64 -> uint64: a
/// hashfn::HashFunction, or the identity for key-ordered streams.
template <class Hash>
std::vector<HashedRecord> sortByHash(std::span<const Record> records,
                                     const Hash& hash) {
  std::vector<HashedRecord> out;
  out.reserve(records.size());
  for (const Record& r : records) out.push_back(HashedRecord{hash(r.key), r});
  // A lambda rather than the function pointer, so the comparison inlines.
  std::sort(out.begin(), out.end(),
            [](const HashedRecord& a, const HashedRecord& b) {
              return hashOrderLess(a, b);
            });
  return out;
}

}  // namespace exthash
