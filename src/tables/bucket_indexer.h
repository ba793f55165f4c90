// Maps a 64-bit hash value to a bucket index in [0, d).
//
// kRange     — consecutive hash ranges (monotone in h). The library default:
//              monotone indexers make table scans emit records in one global
//              hash order, so every merge is single-pass (README,
//              "Merges").
// kMod       — h mod d, the paper's least-significant-bits convention.
//              Not monotone, so tables using it cannot be bulk-built from
//              hash-ordered streams (standalone use only).
// kSkewPower — j = floor(d · (h/2^64)^power), power > 1: a deliberately BAD
//              address function whose characteristic vector has heavy head
//              mass (large λ_f). Used by the Lemma 2 experiments to show
//              how a bad f floods the slow zone. Monotone, so it works
//              inside real tables.
#pragma once

#include <cmath>
#include <cstdint>

#include "hashfn/hash_function.h"
#include "util/assert.h"

namespace exthash::tables {

enum class IndexKind { kRange, kMod, kSkewPower };

struct BucketIndexer {
  IndexKind kind = IndexKind::kRange;
  double power = 1.0;  // only for kSkewPower; must be >= 1

  std::uint64_t operator()(std::uint64_t hash, std::uint64_t d) const {
    EXTHASH_CHECK(d >= 1);
    switch (kind) {
      case IndexKind::kRange:
        return hashfn::rangeBucket(hash, d);
      case IndexKind::kMod:
        return hashfn::modBucket(hash, d);
      case IndexKind::kSkewPower: {
        const double x = static_cast<double>(hash) * 0x1.0p-64;  // [0,1)
        auto j = static_cast<std::uint64_t>(
            std::pow(x, power) * static_cast<double>(d));
        return j >= d ? d - 1 : j;
      }
    }
    EXTHASH_CHECK_MSG(false, "unknown IndexKind");
    return 0;
  }

  /// True if bucket index is nondecreasing in the hash value, which is the
  /// precondition for bulk building from a hash-ordered record stream.
  bool monotone() const noexcept { return kind != IndexKind::kMod; }

  /// The fraction of the hash universe mapped to bucket j (the α_j of the
  /// paper's characteristic vector).
  double alpha(std::uint64_t j, std::uint64_t d) const {
    EXTHASH_CHECK(j < d);
    switch (kind) {
      case IndexKind::kRange:
      case IndexKind::kMod:
        return 1.0 / static_cast<double>(d);
      case IndexKind::kSkewPower: {
        // Inverse image of [j/d, (j+1)/d) under x^power is
        // [ (j/d)^(1/p), ((j+1)/d)^(1/p) ).
        const double p = 1.0 / power;
        const double lo = std::pow(static_cast<double>(j) / static_cast<double>(d), p);
        const double hi =
            std::pow(static_cast<double>(j + 1) / static_cast<double>(d), p);
        return hi - lo;
      }
    }
    return 0.0;
  }
};

}  // namespace exthash::tables
