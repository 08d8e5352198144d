#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace pensieve {

void SampleStats::Add(double value) { samples_.push_back(value); }

double SampleStats::Sum() const {
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum;
}

double SampleStats::Mean() const {
  PENSIEVE_CHECK(!samples_.empty());
  return Sum() / static_cast<double>(samples_.size());
}

double SampleStats::Percentile(double q) const {
  PENSIEVE_CHECK(!samples_.empty());
  PENSIEVE_CHECK_GE(q, 0.0);
  PENSIEVE_CHECK_LE(q, 1.0);
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) {
    return sorted[0];
  }
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace pensieve
