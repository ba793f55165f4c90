// obs — metrics: counters and gauges in a MetricsRegistry, with a
// Prometheus-exposition text sink, and a log-bucketed LatencyHistogram.
//
// Pull model: nothing records into a registry on the hot path. Each
// component keeps its own numbers in plain fields (IoStats, BlockCache's
// hits(), PipelineStats, the WAL's record count, ...) and writes them into
// a caller's registry with collect(MetricsRegistry&) const — BlockDevice,
// BlockCache, IngestPipeline, MemoryArbiter, DurabilityManager and
// ExternalHashTable (whose sharded override labels per-shard series). The
// stack's owner calls collect at a quiescent point, as it calls
// flushCache() or audit(), into a fresh registry, and dumps it. Every
// build exports the same families; there is no global registry and no
// build flag.
//
// The classes are also used directly: IngestPipeline records its
// per-window apply latency into a LatencyHistogram it owns.
//
// Threading: Counter / Gauge / LatencyHistogram are lock-free — relaxed
// atomics on the record path, CAS-max for maxima — and safe to record
// from any number of threads. Readouts (count/sum/quantiles, dump) are
// racy-but-coherent snapshots: exact once the recorders are quiescent.
// MetricsRegistry::counter()/gauge() take a mutex to find-or-create;
// the returned references stay valid for the registry's lifetime
// (node-stable map).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace exthash::obs {

/// Monotone event counter (Prometheus "counter").
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value (Prometheus "gauge"). Doubles, so it can carry
/// fractional figures like ARC's adaptive target or a per-side utility.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// HDR-style log-bucketed histogram over unsigned 64-bit samples
/// (nanoseconds on the latency paths): 4 sub-buckets per octave in a
/// fixed 256-slot array, covering the full uint64 range with <= 25%
/// relative bucket width. Recording is one relaxed fetch_add plus a
/// CAS-max; no allocation, ever.
class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBucketBits = 2;  // 4 sub-buckets/octave
  static constexpr std::size_t kSubBuckets = 1u << kSubBucketBits;
  static constexpr std::size_t kBuckets = 256;  // covers 2^64 with room

  void record(std::uint64_t value) noexcept {
    counts_[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Value at quantile q in [0, 1]: the upper edge of the bucket holding
  /// the ceil(q * count)-th smallest sample — an overestimate by at most
  /// the bucket width (<= 25% relative). 0 when empty.
  std::uint64_t valueAtQuantile(double q) const noexcept;

  /// Bucket for `value`: identity below kSubBuckets, then
  /// (octave, sub-bucket) from the top kSubBucketBits+1 significant bits.
  static constexpr std::size_t bucketIndex(std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const int exp = std::bit_width(value) - 1;  // >= kSubBucketBits
    const std::size_t sub = static_cast<std::size_t>(
        (value >> (exp - kSubBucketBits)) & (kSubBuckets - 1));
    return (static_cast<std::size_t>(exp - kSubBucketBits)
            << kSubBucketBits) +
           kSubBuckets + sub;
  }

  /// Largest value mapping to bucket `index` (inclusive).
  static constexpr std::uint64_t bucketUpperBound(
      std::size_t index) noexcept {
    if (index < kSubBuckets) return index;
    const std::size_t exp = ((index - kSubBuckets) >> kSubBucketBits) +
                            kSubBucketBits;
    const std::uint64_t sub = (index - kSubBuckets) & (kSubBuckets - 1);
    return ((kSubBuckets + sub + 1) << (exp - kSubBucketBits)) - 1;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII latency sample: records elapsed nanoseconds into `hist` at scope
/// exit. Pass nullptr to disarm (the runtime-disabled case) — then the
/// constructor does not even read the clock.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(LatencyHistogram* hist) noexcept;
  ~ScopedLatencyTimer();
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  LatencyHistogram* hist_;
  std::uint64_t start_ns_ = 0;
};

/// Named metrics, find-or-create. Metric names follow the scheme
/// exthash_<component>_<name>, with Prometheus labels embedded verbatim
/// — e.g. exthash_shard_ops_total{shard="3"} — so one logical family can
/// carry per-shard series; the exposition writer groups a family's
/// # TYPE line by the name before '{'.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  bool has(const std::string& name) const;

  /// Add `part`'s counters into this registry and copy its gauges, with
  /// `label` (e.g. shard="3") spliced into every series name — how a
  /// composite owner labels the series of the parts it collects.
  void merge(const MetricsRegistry& part, const std::string& label);

  /// Prometheus text exposition of the counters and gauges.
  void dump(std::ostream& os) const;

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
  };

  mutable std::mutex mutex_;
  // std::map: node-stable AND deterministically ordered output.
  std::map<std::string, Entry> metrics_;
};

}  // namespace exthash::obs
