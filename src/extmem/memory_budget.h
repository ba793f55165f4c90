// Internal-memory accounting: the paper's `m` is a hard budget in words.
//
// Every in-memory structure (memtable slots, LSM fence pointers, extendible
// directory, cached B-tree root, merge scratch buffers) must charge this
// budget; exceeding the limit throws BudgetExceeded. This is what lets the
// test suite *prove* that a structure honors a given memory bound rather
// than merely claim it.
//
// Thread safety: charge/release/used are atomic. The sharded façade hands
// ONE caller budget to per-shard block caches that admit and evict on
// concurrent shard threads, so the counters must tolerate that. The limit
// is enforced exactly and an over-limit attempt never mutates the
// counter (CAS, not fetch_add-then-rollback), so a doomed charge cannot
// spuriously fail a concurrent one that fits; `peak` is a monotone
// CAS-max. Being lock-free, there is no capability for the thread-safety
// analysis (util/thread_annotations.h) to track here — the atomics ARE
// the synchronization, and MemoryCharge instances are single-owner by
// construction (each belongs to one structure serialized by its caller).
#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace exthash::extmem {

class BudgetExceeded : public std::runtime_error {
 public:
  explicit BudgetExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

class MemoryBudget {
 public:
  /// `limit_words == 0` means unlimited (useful for baselines that are
  /// deliberately memory-hungry, e.g. dense LSM fence pointers).
  explicit MemoryBudget(std::size_t limit_words = 0)
      : limit_words_(limit_words) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  void charge(std::size_t words);
  void release(std::size_t words) noexcept;

  std::size_t used() const noexcept {
    return used_words_.load(std::memory_order_relaxed);
  }
  std::size_t limit() const noexcept { return limit_words_; }
  std::size_t peak() const noexcept {
    return peak_words_.load(std::memory_order_relaxed);
  }
  bool unlimited() const noexcept { return limit_words_ == 0; }
  std::size_t available() const noexcept;

 private:
  std::size_t limit_words_;
  std::atomic<std::size_t> used_words_{0};
  std::atomic<std::size_t> peak_words_{0};
};

/// RAII charge against a budget; resizable, released on destruction.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  MemoryCharge(MemoryBudget& budget, std::size_t words)
      : budget_(&budget), words_(0) {
    resize(words);
  }
  ~MemoryCharge() { reset(); }

  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;
  MemoryCharge(MemoryCharge&& other) noexcept { *this = std::move(other); }
  MemoryCharge& operator=(MemoryCharge&& other) noexcept {
    if (this != &other) {
      reset();
      budget_ = other.budget_;
      words_ = other.words_;
      other.budget_ = nullptr;
      other.words_ = 0;
    }
    return *this;
  }

  /// Adjust the charged amount up or down. An unchanged amount touches
  /// nothing: the per-shard caches recharge on every admission and
  /// eviction, and a no-op must not CAS the budget the shards share.
  void resize(std::size_t words) {
    if (!budget_ || words == words_) return;
    if (words > words_) budget_->charge(words - words_);
    else budget_->release(words_ - words);
    words_ = words;
  }

  void reset() noexcept {
    if (budget_ && words_ > 0) budget_->release(words_);
    words_ = 0;
  }

  std::size_t words() const noexcept { return words_; }

 private:
  MemoryBudget* budget_ = nullptr;
  std::size_t words_ = 0;
};

}  // namespace exthash::extmem
