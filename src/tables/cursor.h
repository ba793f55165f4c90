// Pull-based record streams in global hash order, and the k-way merger
// that powers every rebuild in the library (logarithmic-method level
// migration, Theorem-2 buffer-into-Ĥ merges, Jensen–Pagh rebuilds, LSM
// compaction).
//
// All cursors yield records in nondecreasing (h(key), key) order, each
// carrying h(key) — computed once where the record entered the merge
// (sortByHash), never again on the way through. Because the range indexer
// is monotone in h, such a stream is also in bucket order for *any* bucket
// count — which is what makes merges between tables of different sizes
// single-pass (see README, "Merges").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "extmem/memory_budget.h"
#include "extmem/record.h"

namespace exthash::tables {

class RecordCursor {
 public:
  virtual ~RecordCursor() = default;
  /// The next run of records in nondecreasing (hash, key) order (one
  /// bucket, block or vector); empty at the end, never before. The span
  /// stays valid until the next call.
  virtual std::span<const HashedRecord> nextChunk() = 0;
};

/// Feed every remaining record of `cursor` to fn(const HashedRecord&).
template <class Fn>
void forEachRecord(RecordCursor& cursor, Fn&& fn) {
  for (auto chunk = cursor.nextChunk(); !chunk.empty();
       chunk = cursor.nextChunk()) {
    for (const HashedRecord& r : chunk) fn(r);
  }
}

/// Cursor over a pre-sorted in-memory vector (e.g. a drained memtable),
/// handed out as one chunk.
class VectorCursor final : public RecordCursor {
 public:
  explicit VectorCursor(std::vector<HashedRecord> records)
      : records_(std::move(records)) {}

  std::span<const HashedRecord> nextChunk() override {
    if (done_) return {};
    done_ = true;
    return records_;
  }

 private:
  std::vector<HashedRecord> records_;
  bool done_ = false;
};

/// Merges k hash-ordered sources into one hash-ordered stream, ordering by
/// the carried hash alone.
///
/// Sources must be given NEWEST FIRST, each holding a key at most once.
/// When the same key appears in several sources, only the newest version
/// is emitted (last-writer-wins). If `drop_tombstones` is set, records
/// whose value is kTombstoneValue are suppressed after duplicate
/// resolution — set it only when merging into the oldest structure, where
/// no shadowed data remains below.
///
/// k is small (a handful of levels), so heads are compared by linear scan;
/// the source holding the smallest head then emits its whole run below
/// every other head at one comparison per record. The working set is one
/// output chunk of kChunkRecords, charged to `memory`.
class KWayMerger final : public RecordCursor {
 public:
  static constexpr std::size_t kChunkRecords = 256;

  KWayMerger(std::vector<std::unique_ptr<RecordCursor>> sources,
             bool drop_tombstones, extmem::MemoryBudget& memory)
      : drop_tombstones_(drop_tombstones),
        charge_(memory, kChunkRecords * kWordsPerHashedRecord) {
    for (auto& cursor : sources) {
      Source s{std::move(cursor), {}};
      if (s.refill()) sources_.push_back(std::move(s));
    }
    out_.reserve(kChunkRecords);
  }

  std::span<const HashedRecord> nextChunk() override {
    out_.clear();
    while (out_.size() < kChunkRecords && !sources_.empty()) {
      // The smallest head (the newest source's among equals), and the
      // smallest head of the other sources: the bound of its run.
      std::size_t best = 0;
      for (std::size_t i = 1; i < sources_.size(); ++i) {
        if (hashOrderLess(sources_[i].head(), sources_[best].head())) best = i;
      }
      const HashedRecord* bound = nullptr;
      for (std::size_t i = 0; i < sources_.size(); ++i) {
        if (i != best &&
            (bound == nullptr || hashOrderLess(sources_[i].head(), *bound))) {
          bound = &sources_[i].head();
        }
      }
      if (bound != nullptr && !hashOrderLess(sources_[best].head(), *bound)) {
        // Older versions of the same key follow: emit the newest and
        // consume them all.
        const HashedRecord winner = sources_[best].head();
        emit(winner);
        for (std::size_t i = 0; i < sources_.size();) {
          bool live = true;
          while (live && !hashOrderLess(winner, sources_[i].head())) {
            live = sources_[i].pop();
          }
          if (live) {
            ++i;
          } else {
            sources_.erase(sources_.begin() + static_cast<std::ptrdiff_t>(i));
          }
        }
        continue;
      }
      Source& run = sources_[best];
      bool live = true;
      do {
        emit(run.head());
        live = run.pop();
      } while (live && out_.size() < kChunkRecords &&
               (bound == nullptr || hashOrderLess(run.head(), *bound)));
      if (!live) {
        sources_.erase(sources_.begin() + static_cast<std::ptrdiff_t>(best));
      }
    }
    return out_;
  }

 private:
  struct Source {
    std::unique_ptr<RecordCursor> cursor;
    std::span<const HashedRecord> chunk;  // unconsumed part, never empty

    const HashedRecord& head() const { return chunk.front(); }
    /// Load the next chunk; false at the end of the source.
    bool refill() {
      chunk = cursor->nextChunk();
      return !chunk.empty();
    }
    /// Drop the head; false once the source is exhausted.
    bool pop() {
      chunk = chunk.subspan(1);
      return !chunk.empty() || refill();
    }
  };

  void emit(const HashedRecord& r) {
    if (!(drop_tombstones_ && r.record.value == kTombstoneValue)) {
      out_.push_back(r);
    }
  }

  std::vector<Source> sources_;  // live sources, newest first
  std::vector<HashedRecord> out_;
  bool drop_tombstones_;
  extmem::MemoryCharge charge_;
};

}  // namespace exthash::tables
