// Word-stream serializer for table metadata (the checkpoint manifest
// payload — see durability/manifest.h).
//
// Everything a table needs beyond its on-device blocks — extents,
// directories, split pointers, level/run tables, memory-resident buffer
// contents — round-trips through a flat vector of 64-bit words. The
// format is deliberately primitive: tagged sections (each table kind
// writes a magic first, so a manifest restored into the wrong kind fails
// loudly), u64 scalars, doubles via bit_cast, length-prefixed sequences,
// and one records section for every memory-resident record set. Bounds
// and tags are EXTHASH_CHECKed on the read side — a
// manifest that passed its checksum but disagrees with the table's
// construction geometry is a logic error worth stopping on, not a torn
// write to tolerate.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "extmem/memtable.h"
#include "extmem/record.h"
#include "util/assert.h"

namespace exthash::tables {

class MetaWriter {
 public:
  void tag(std::uint64_t magic) { words_.push_back(magic); }
  void u64(std::uint64_t v) { words_.push_back(v); }
  void b(bool v) { words_.push_back(v ? 1 : 0); }
  void dbl(double v) { words_.push_back(std::bit_cast<std::uint64_t>(v)); }
  void vec(std::span<const std::uint64_t> v) {
    words_.push_back(v.size());
    words_.insert(words_.end(), v.begin(), v.end());
  }
  /// A records section: the count, then each key and value, in the given
  /// order (a vector's order can be semantic, e.g. oldest first).
  void records(std::span<const Record> v) {
    words_.push_back(v.size());
    for (const Record& r : v) {
      words_.push_back(r.key);
      words_.push_back(r.value);
    }
  }
  /// A MemTable's records in key order, so the section depends on the
  /// contents alone, not on the insertion history behind its slots.
  void records(const extmem::MemTable& table) {
    std::vector<Record> v;
    v.reserve(table.size());
    table.forEach([&](const Record& r) { v.push_back(r); });
    std::sort(v.begin(), v.end(), [](const Record& a, const Record& b) {
      return a.key < b.key;
    });
    records(v);
  }

  std::vector<std::uint64_t> take() { return std::move(words_); }
  std::size_t size() const noexcept { return words_.size(); }

 private:
  std::vector<std::uint64_t> words_;
};

class MetaReader {
 public:
  explicit MetaReader(std::span<const std::uint64_t> words) : words_(words) {}

  void expectTag(std::uint64_t magic) {
    const std::uint64_t got = u64();
    EXTHASH_CHECK_MSG(got == magic, "meta tag mismatch: got " << got
                                                              << " want "
                                                              << magic);
  }
  std::uint64_t u64() {
    EXTHASH_CHECK_MSG(pos_ < words_.size(), "meta stream truncated");
    return words_[pos_++];
  }
  bool b() { return u64() != 0; }
  double dbl() { return std::bit_cast<double>(u64()); }
  std::vector<std::uint64_t> vec() {
    const std::uint64_t n = u64();
    EXTHASH_CHECK_MSG(pos_ + n <= words_.size(), "meta vector truncated");
    std::vector<std::uint64_t> out(words_.begin() +
                                       static_cast<std::ptrdiff_t>(pos_),
                                   words_.begin() +
                                       static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::vector<Record> records() {
    const std::uint64_t n = u64();
    EXTHASH_CHECK_MSG(n <= remaining() / 2, "meta records truncated");
    std::vector<Record> out(n);
    for (Record& r : out) {
      r.key = words_[pos_++];
      r.value = words_[pos_++];
    }
    return out;
  }
  /// Refill `table` with a records section (its earlier contents go).
  void records(extmem::MemTable& table) {
    table.clear();
    for (const Record& r : records()) {
      EXTHASH_CHECK(table.insertOrAssign(r.key, r.value));
    }
  }

  bool done() const noexcept { return pos_ == words_.size(); }
  std::size_t remaining() const noexcept { return words_.size() - pos_; }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t pos_ = 0;
};

}  // namespace exthash::tables
