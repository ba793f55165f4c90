#include "obs/metrics.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <string_view>

namespace exthash::obs {

namespace {

bool computeEnabledFromEnv() {
#ifdef EXTHASH_TELEMETRY_MODE
  // A telemetry build defaults ON unless the env var explicitly disables.
  const char* env = std::getenv("EXTHASH_TELEMETRY");
  if (env == nullptr) return true;
  return *env != '\0' && std::string_view(env) != "0";
#else
  const char* env = std::getenv("EXTHASH_TELEMETRY");
  return env != nullptr && *env != '\0' && std::string_view(env) != "0";
#endif
}

std::atomic<bool>& enabledFlag() noexcept {
  static std::atomic<bool> flag{computeEnabledFromEnv()};
  return flag;
}

std::uint64_t steadyNowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Family name for the # TYPE line: everything before the label block.
std::string_view familyOf(const std::string& name) noexcept {
  const auto brace = name.find('{');
  return std::string_view(name).substr(
      0, brace == std::string::npos ? name.size() : brace);
}

/// Splice a label into a possibly-already-labeled metric name:
/// f("a_total", "quantile=\"0.5\"") -> a_total{quantile="0.5"};
/// f("a{shard=\"1\"}", ...) -> a{shard="1",quantile="0.5"}.
std::string withLabel(const std::string& name, const std::string& label) {
  const auto close = name.rfind('}');
  if (close == std::string::npos) return name + "{" + label + "}";
  std::string out = name.substr(0, close);
  out += ",";
  out += label;
  out += "}";
  return out;
}

/// Append `suffix` to the family part, keeping any label block:
/// f("a{shard=\"1\"}", "_sum") -> a_sum{shard="1"}.
std::string withSuffix(const std::string& name, const char* suffix) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) return name + suffix;
  return name.substr(0, brace) + suffix + name.substr(brace);
}

constexpr double kSummaryQuantiles[] = {0.5, 0.9, 0.99, 0.999};
constexpr const char* kSummaryQuantileLabels[] = {
    "quantile=\"0.5\"", "quantile=\"0.9\"", "quantile=\"0.99\"",
    "quantile=\"0.999\""};

}  // namespace

bool enabled() noexcept {
  return enabledFlag().load(std::memory_order_relaxed);
}

void setEnabled(bool on) noexcept {
  enabledFlag().store(on, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::valueAtQuantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return bucketUpperBound(i);
  }
  // Concurrent recorders can leave count_ briefly ahead of the bucket
  // sums; the max is the honest answer for the tail in that window.
  return max();
}

void LatencyHistogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

ScopedLatencyTimer::ScopedLatencyTimer(LatencyHistogram* hist) noexcept
    : hist_(hist) {
  if (hist_ != nullptr) start_ns_ = steadyNowNs();
}

ScopedLatencyTimer::~ScopedLatencyTimer() {
  if (hist_ != nullptr) hist_->record(steadyNowNs() - start_ns_);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = metrics_[name];
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = metrics_[name];
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = metrics_[name];
  if (!e.histogram) e.histogram = std::make_unique<LatencyHistogram>();
  return *e.histogram;
}

bool MetricsRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.find(name) != metrics_.end();
}

void MetricsRegistry::dump(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string_view last_family;
  for (const auto& [name, entry] : metrics_) {
    const std::string_view family = familyOf(name);
    const bool new_family = family != last_family;
    last_family = family;
    if (entry.counter) {
      if (new_family) os << "# TYPE " << family << " counter\n";
      os << name << " " << entry.counter->value() << "\n";
    }
    if (entry.gauge) {
      if (new_family && !entry.counter)
        os << "# TYPE " << family << " gauge\n";
      os << name << " " << entry.gauge->value() << "\n";
    }
    if (entry.histogram) {
      if (new_family && !entry.counter && !entry.gauge)
        os << "# TYPE " << family << " summary\n";
      const LatencyHistogram& h = *entry.histogram;
      for (std::size_t i = 0; i < std::size(kSummaryQuantiles); ++i) {
        os << withLabel(name, kSummaryQuantileLabels[i]) << " "
           << h.valueAtQuantile(kSummaryQuantiles[i]) << "\n";
      }
      os << withSuffix(name, "_sum") << " " << h.sum() << "\n";
      os << withSuffix(name, "_count") << " " << h.count() << "\n";
      os << withSuffix(name, "_max") << " " << h.max() << "\n";
    }
  }
}

void dumpMetrics(std::ostream& os) { MetricsRegistry::global().dump(os); }

}  // namespace exthash::obs
