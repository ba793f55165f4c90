// Shared scaffolding for the perfbench workloads: the clock, layer timers
// that double as trace spans, the metric list a pass reports, exact
// quantiles, and the small in-benchmark resource stack.
//
// Every timer wraps ONE call into a library module from benchmark code.
// The same code runs traced and untraced: obs::TraceSpan is a no-op (one
// atomic load) while no TraceSession is current, so the untraced run pays
// only for the two steady_clock reads around each call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/bucket_page.h"
#include "extmem/memory_budget.h"
#include "hashfn/hash_family.h"
#include "obs/trace.h"
#include "tables/hash_table.h"
#include "util/random.h"

namespace perfbench {

using namespace exthash;

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Accumulated wall time and call count of one layer's calls.
struct LayerClock {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  double ms() const { return static_cast<double>(ns) / 1e6; }
  double seconds() const { return static_cast<double>(ns) / 1e9; }
};

/// Run `fn` inside a trace span named `span` (category "perfbench") and
/// add its wall time to `clock`. Returns the call's duration in ns. A call
/// that throws adds nothing; the caller counts it as failed.
template <class F>
std::uint64_t timeCall(LayerClock& clock, const char* span, F&& fn) {
  obs::TraceSpan trace(span, "perfbench");
  const std::uint64_t start = nowNs();
  std::forward<F>(fn)();
  const std::uint64_t elapsed = nowNs() - start;
  clock.ns += elapsed;
  ++clock.calls;
  return elapsed;
}

/// Nearest-rank quantile (q in [0, 1]) of a sample; 0 when empty.
template <class T>
double quantile(std::vector<T> sample, double q) {
  if (sample.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  const std::size_t index =
      std::min(sample.size(), std::max<std::size_t>(rank, 1)) - 1;
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(index),
                   sample.end());
  return static_cast<double>(sample[index]);
}

inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// The value W1 and W2 store for `key` (checked on read-back).
inline std::uint64_t valueFor(std::uint64_t key, std::uint64_t salt) {
  return splitmix64(key ^ salt);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Deterministic for a given seed and size: must repeat bit-exactly
  /// across runs and between the traced and untraced passes.
  bool counted = false;
};

/// The metrics one pass measured, end-to-end and per-layer alike; the
/// main program picks the set it prints by name.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit,
           bool counted = false) {
    list_.push_back(
        Metric{std::move(name), value, std::move(unit), counted});
  }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : list_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// What one pass of a workload reports.
struct PassResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Wall time inside the timed update and lookup calls (the basis of
  /// bench.trace_overhead_frac).
  std::uint64_t timed_ns = 0;
  /// Human-readable lines for the report (sample counts, policies).
  std::vector<std::string> notes;
};

struct RunOptions {
  std::uint64_t seed = 1;
  /// Work multiplier: replay counts are quoted at scale 1 (a 10-second
  /// run). Table sizes do not scale.
  double scale = 1.0;
  bool traced = false;
  /// Directory for file-backed devices (durable-ingest-file only).
  std::string data_dir;
};

/// The replay count for a run: `base` (quoted at scale 1) scaled, rounded
/// down, and never below one.
inline std::size_t replayCount(std::size_t base, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(base) * scale));
}

/// Median of a few durations.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Device + budget + hash: what a standalone table runs on.
struct Stack {
  std::unique_ptr<extmem::BlockDevice> device;
  std::unique_ptr<extmem::MemoryBudget> memory;
  hashfn::HashPtr hash;

  Stack(std::size_t records_per_block, std::uint64_t hash_seed)
      : device(std::make_unique<extmem::BlockDevice>(
            extmem::wordsForRecordCapacity(records_per_block))),
        memory(std::make_unique<extmem::MemoryBudget>(0)),
        hash(hashfn::makeHash(hashfn::HashKind::kMix, hash_seed)) {}

  tables::TableContext context() const {
    return tables::TableContext{device.get(), memory.get(), hash};
  }
};

/// Build a fresh set-up, destroying the old one first so that peak memory
/// holds one, and add its wall time in seconds to `seconds`. Workloads set
/// up again before every replay, so the set-ups sample the whole run, and
/// setup_s is the fastest of them (see fastestSetUp).
template <class State, class Build>
void setUpAgain(std::unique_ptr<State>& state, std::vector<double>& seconds,
                Build build) {
  state.reset();
  const std::uint64_t start = nowNs();
  state = build();
  seconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
}

/// setup_s: the fastest set-up of the run. Every set-up builds the same
/// state, so like a replayed call its cost is its fastest replay. A median
/// does not hold still here: on a shared host, short set-ups run at one of
/// two speeds, about 1.6x apart, in streaks of seconds, and the median
/// lands on either speed depending on the run.
inline double fastestSetUp(const std::vector<double>& seconds) {
  return seconds.empty() ? 0.0
                         : *std::min_element(seconds.begin(), seconds.end());
}

/// hashfn layer: nanoseconds per key of the table's HashFunction over the
/// workload's own keys (median of three passes).
template <class Items, class KeyOf>
double hashNsPerKey(const hashfn::HashFunction& hash, const Items& items,
                    KeyOf key_of) {
  obs::TraceSpan span("hashfn.loop", "perfbench");
  static volatile std::uint64_t sink = 0;
  std::vector<double> per_key;
  for (int pass = 0; pass < 3; ++pass) {
    std::uint64_t acc = 0;
    const std::uint64_t start = nowNs();
    for (const auto& item : items) acc += hash(key_of(item));
    per_key.push_back(ratio(static_cast<double>(nowNs() - start),
                            static_cast<double>(items.size())));
    sink = sink + acc;
  }
  return median(std::move(per_key));
}

/// Per-op counted I/O breakdown shared by every workload.
inline void reportDeviceCounts(Metrics& m, const extmem::IoStats& io,
                               double ops, std::size_t blocks_in_use) {
  m.add("extmem.reads_per_op", ratio(static_cast<double>(io.reads), ops),
        "count", true);
  m.add("extmem.writes_per_op", ratio(static_cast<double>(io.writes), ops),
        "count", true);
  m.add("extmem.rmws_per_op", ratio(static_cast<double>(io.rmws), ops),
        "count", true);
  m.add("extmem.bypass_reads_per_op",
        ratio(static_cast<double>(io.cache_bypass_reads), ops), "count",
        true);
  m.add("extmem.blocks_in_use", static_cast<double>(blocks_in_use), "count",
        true);
}

/// The fastest time of each call of a replayed call sequence.
///
/// A workload replays the same sequence of calls from the same starting
/// state several times (a fresh, identical table each time). Each call's
/// cost is the fastest of its replays: other tenants of the machine only
/// ever add time to a call, and over seconds they move a median by as much
/// as the program's own cost does, while a call's fastest replay stays put.
class FastestReplay {
 public:
  /// Record one replay of call `pos` of the sequence.
  void add(std::size_t pos, std::uint64_t ns) {
    if (pos >= ns_.size()) ns_.resize(pos + 1, UINT64_MAX);
    ns_[pos] = std::min(ns_[pos], ns);
  }
  /// Fastest replay of every call, in sequence order.
  const std::vector<std::uint64_t>& ns() const { return ns_; }
  double totalSeconds() const {
    std::uint64_t total = 0;
    for (const std::uint64_t ns : ns_) total += ns;
    return static_cast<double>(total) / 1e9;
  }

 private:
  std::vector<std::uint64_t> ns_;
};

/// The lookup-phase end-to-end metrics, from the fastest replay of each
/// lookupBatch call: keys per second over the sum of the fastest times,
/// and the p50 and p99 over the calls.
inline void reportLookupPhase(PassResult& r, const FastestReplay& lookups,
                              double keys_per_call, std::size_t replays) {
  const std::vector<std::uint64_t>& ns = lookups.ns();
  r.metrics.add("lookup_ops_s",
                ratio(keys_per_call * static_cast<double>(ns.size()),
                      lookups.totalSeconds()),
                "ops/s");
  r.metrics.add("lookup_batch_p50_us", quantile(ns, 0.50) / 1e3, "us");
  r.metrics.add("lookup_batch_p99_us", quantile(ns, 0.99) / 1e3, "us");
  r.notes.push_back("lookup batches: " + std::to_string(ns.size()) +
                    " distinct calls, each timed as the fastest of " +
                    std::to_string(replays) + " replays (" +
                    std::to_string(ns.size() / 100) +
                    " calls beyond the p99)");
}

}  // namespace perfbench
