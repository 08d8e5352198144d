// Seeded random-number utilities used by the workload generator and tests.
//
// All randomness in Pensieve flows through Rng so that every experiment is
// reproducible from a single 64-bit seed.

#ifndef PENSIEVE_SRC_COMMON_RNG_H_
#define PENSIEVE_SRC_COMMON_RNG_H_

#include <cstdint>
#include <random>

namespace pensieve {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  // Exponential with the given mean (mean = 1 / rate).
  double Exponential(double mean);

  // Log-normal parameterized by the *target* mean and standard deviation of
  // the resulting distribution (not of the underlying normal).
  double LogNormalWithMean(double mean, double stddev);

  // Geometric number of trials >= 1 with success probability p.
  int64_t GeometricAtLeastOne(double p);

  // True with probability p.
  bool Bernoulli(double p);

  // Split off an independent child stream (deterministic given parent state).
  Rng Fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_COMMON_RNG_H_
