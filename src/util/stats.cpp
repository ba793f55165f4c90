#include "util/stats.h"

#include <algorithm>

namespace exthash {

void RunningStat::push(double x) noexcept {
  ++count_;
  if (count_ == 1) {
    mean_ = x;
    min_ = max_ = x;
    return;
  }
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

}  // namespace exthash
