// Hash function interface and bucket indexers.
//
// The paper assumes an ideal hash function h: U → {0..u-1} mapping each
// item independently and uniformly at random (justified for realistic data
// by Mitzenmacher & Vadhan [15]). The library treats u = 2^64.
//
// Bucket indexers turn a 64-bit hash into a bucket number in [0, d):
//   RangeIndexer — j = floor(h · d / 2^64): partitions the hash space into
//                  d consecutive ranges. Monotone in h, so a scan in hash
//                  order visits buckets in order — this is what makes all
//                  merges single-pass (see README, "Merges").
//   ModIndexer   — j = h mod d: the textbook least-significant-bits
//                  convention the paper states.
// Both are uniform under an ideal h; they differ only in which bits they
// consume.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

namespace exthash::hashfn {

class HashFunction {
 public:
  virtual ~HashFunction() = default;
  /// The 64-bit hash value h(key), uniform over [0, 2^64).
  virtual std::uint64_t operator()(std::uint64_t key) const = 0;
  virtual std::string_view name() const = 0;
};

/// Bucket index by hash range (monotone in h). d must be >= 1.
inline std::uint64_t rangeBucket(std::uint64_t hash, std::uint64_t d) noexcept {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(hash) * d) >> 64);
}

/// Bucket index by modulus (the paper's least-significant-bits convention).
inline std::uint64_t modBucket(std::uint64_t hash, std::uint64_t d) noexcept {
  return hash % d;
}

using HashPtr = std::shared_ptr<const HashFunction>;

}  // namespace exthash::hashfn
