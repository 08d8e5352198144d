// Streaming statistics accumulators used by the metrics layer and benches.

#ifndef PENSIEVE_SRC_COMMON_STATS_H_
#define PENSIEVE_SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace pensieve {

// Accumulates samples and answers sum / mean / percentile queries.
// Percentile queries sort a copy lazily; fine for offline metrics.
class SampleStats {
 public:
  void Add(double value);

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double Sum() const;
  double Mean() const;
  // q in [0, 1]; linear interpolation between closest ranks.
  double Percentile(double q) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_COMMON_STATS_H_
