// Streaming statistics used by the measurement harness and benchmarks.
#pragma once

#include <cstddef>

namespace exthash {

/// Running mean (Welford's update) with min/max tracking.
class RunningStat {
 public:
  void push(double x) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace exthash
