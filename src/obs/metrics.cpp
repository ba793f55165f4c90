#include "obs/metrics.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <ostream>
#include <string_view>

namespace exthash::obs {

namespace {

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
/// f("a_total", "shard=\"1\"") -> a_total{shard="1"};
/// f("a{kind=\"x\"}", ...) -> a{kind="x",shard="1"}.
std::string withLabel(const std::string& name, const std::string& label) {
  const auto close = name.rfind('}');
  if (close == std::string::npos) return name + "{" + label + "}";
  std::string out = name.substr(0, close);
  out += ",";
  out += label;
  out += "}";
  return out;
}

/// The shortest decimal that reads back as exactly `value`, so a gauge's
/// exposition equals its owner's number (the stream default keeps six
/// significant digits: 1234567 would print as 1.23457e+06).
std::string exactDecimal(double value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

}  // namespace

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

ScopedLatencyTimer::ScopedLatencyTimer(LatencyHistogram* hist) noexcept
    : hist_(hist) {
  if (hist_ != nullptr) start_ns_ = steadyNowNs();
}

ScopedLatencyTimer::~ScopedLatencyTimer() {
  if (hist_ != nullptr) hist_->record(steadyNowNs() - start_ns_);
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

bool MetricsRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.find(name) != metrics_.end();
}

void MetricsRegistry::merge(const MetricsRegistry& part,
                            const std::string& label) {
  std::lock_guard<std::mutex> lock(part.mutex_);
  for (const auto& [name, entry] : part.metrics_) {
    const std::string labelled = withLabel(name, label);
    if (entry.counter) counter(labelled).inc(entry.counter->value());
    if (entry.gauge) gauge(labelled).set(entry.gauge->value());
  }
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
      os << name << " " << exactDecimal(entry.gauge->value()) << "\n";
    }
  }
}

}  // namespace exthash::obs
