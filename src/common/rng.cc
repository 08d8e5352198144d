#include "src/common/rng.h"

#include <cmath>

#include "src/common/logging.h"

namespace pensieve {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  PENSIEVE_CHECK_LE(lo, hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::Exponential(double mean) {
  PENSIEVE_CHECK_GT(mean, 0.0);
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

double Rng::LogNormalWithMean(double mean, double stddev) {
  PENSIEVE_CHECK_GT(mean, 0.0);
  PENSIEVE_CHECK_GT(stddev, 0.0);
  // If X ~ LogNormal(mu, sigma), then E[X] = exp(mu + sigma^2/2) and
  // Var[X] = (exp(sigma^2) - 1) exp(2mu + sigma^2). Invert for (mu, sigma).
  const double variance_ratio = (stddev * stddev) / (mean * mean);
  const double sigma2 = std::log1p(variance_ratio);
  const double mu = std::log(mean) - 0.5 * sigma2;
  std::lognormal_distribution<double> dist(mu, std::sqrt(sigma2));
  return dist(engine_);
}

int64_t Rng::GeometricAtLeastOne(double p) {
  PENSIEVE_CHECK_GT(p, 0.0);
  PENSIEVE_CHECK_LE(p, 1.0);
  std::geometric_distribution<int64_t> dist(p);
  return dist(engine_) + 1;
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

Rng Rng::Fork() { return Rng(engine_()); }

}  // namespace pensieve
