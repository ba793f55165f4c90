// Deterministic acknowledged-operations ledger — the reference model the
// crash-recovery sweep (tests/test_crash_recovery.cpp), the chaos
// equivalence sweep (tests/test_fault_injection.cpp) and the pipeline's
// log-stage tests (tests/test_pipeline.cpp) all share, through one check
// (expectMatchesLedger in tests/table_test_util.h).
//
// The ledger replays the ingest pipeline's windowing rules on the side:
// submitted ops accumulate into a staging window with the same
// last-write-wins coalescing (same index structure, same in-place
// overwrite, same seal-at-capacity trigger), so sealed window k here is
// bit-identical to the k-th window the pipeline hands to the WAL — and in
// ack-after-durable mode window k IS WAL record with LSN first_lsn+k-1.
// That correspondence is what turns a post-crash durableLsn() snapshot
// into an exact statement of which submitted ops were acknowledged:
// everything in windows 1..durable_lsn, nothing after.
//
// stateThroughLsn(L) folds windows 1..L into key → value-or-erased, the
// expected table contents a recovery to LSN L must reproduce bit-exactly:
// nothing acknowledged lost, nothing unacknowledged resurrected.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "tables/hash_table.h"
#include "util/assert.h"

namespace exthash::durability {

class AckLedger {
 public:
  /// Mirror of PipelineConfig: batch_capacity and coalesce must match the
  /// pipeline this ledger shadows; first_lsn must match its WalWriter.
  explicit AckLedger(std::size_t batch_capacity, bool coalesce = true,
                     std::uint64_t first_lsn = 1)
      : capacity_(batch_capacity),
        coalesce_(coalesce),
        first_lsn_(first_lsn == 0 ? 1 : first_lsn) {
    EXTHASH_CHECK(capacity_ >= 1);
  }

  /// Shadow of IngestPipeline::submit — call with exactly the same op
  /// stream, in the same order.
  void submit(tables::Op op) {
    if (coalesce_) {
      const auto [it, fresh] = staging_index_.try_emplace(op.key,
                                                          staging_.size());
      if (!fresh) {
        staging_[it->second] = op;  // last write wins inside the window
        return;
      }
    }
    staging_.push_back(op);
    if (staging_.size() >= capacity_) sealWindow();
  }

  /// Shadow of flush()/drain(): seal the partial staging window (if any).
  void seal() {
    if (!staging_.empty()) sealWindow();
  }

  /// Windows sealed so far; window k (1-based) carries LSN lsnOfWindow(k).
  std::size_t sealedWindows() const noexcept { return windows_.size(); }
  std::uint64_t lsnOfWindow(std::size_t k) const noexcept {
    return first_lsn_ + k - 1;
  }
  const std::vector<tables::Op>& window(std::size_t k) const {
    EXTHASH_CHECK(k >= 1 && k <= windows_.size());
    return windows_[k - 1];
  }

  /// Expected table contents after every window with LSN <= `lsn` applied:
  /// key → value for live keys; keys absent from the map (or mapped to
  /// nullopt by a trailing erase) must not be found in the table.
  std::unordered_map<std::uint64_t, std::optional<std::uint64_t>>
  stateThroughLsn(std::uint64_t lsn) const {
    std::unordered_map<std::uint64_t, std::optional<std::uint64_t>> state;
    for (std::size_t k = 1; k <= windows_.size(); ++k) {
      if (lsnOfWindow(k) > lsn) break;
      for (const tables::Op& op : windows_[k - 1]) {
        if (op.kind == tables::OpKind::kInsert) {
          state[op.key] = op.value;
        } else {
          state[op.key] = std::nullopt;
        }
      }
    }
    return state;
  }

 private:
  void sealWindow() {
    windows_.push_back(std::move(staging_));
    staging_ = {};
    staging_index_ = {};
  }

  std::size_t capacity_;
  bool coalesce_;
  std::uint64_t first_lsn_;
  std::vector<tables::Op> staging_;
  std::unordered_map<std::uint64_t, std::size_t> staging_index_;
  std::vector<std::vector<tables::Op>> windows_;
};

}  // namespace exthash::durability
