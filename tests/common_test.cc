// Unit tests for src/common: status, rng, stats, interp.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/interp.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"

namespace pensieve {
namespace {

// --- Status ----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ResourceExhausted("no blocks");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.message(), "no blocks");
  EXPECT_EQ(s.ToString(), "RESOURCE_EXHAUSTED: no blocks");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition), "FAILED_PRECONDITION");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::InvalidArgument("bad"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(7);
  Rng b(8);
  int differences = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) != b.UniformInt(0, 1000000)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 90);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(2);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(60.0);
  }
  EXPECT_NEAR(sum / n, 60.0, 2.0);
}

TEST(RngTest, LogNormalMatchesTargetMoments) {
  Rng rng(3);
  const double target_mean = 204.58;
  const double target_std = 180.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.LogNormalWithMean(target_mean, target_std);
    sum += v;
    sum_sq += v * v;
    EXPECT_GT(v, 0.0);
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, target_mean, target_mean * 0.05);
  EXPECT_NEAR(std::sqrt(var), target_std, target_std * 0.10);
}

TEST(RngTest, GeometricAtLeastOneHasCorrectMean) {
  Rng rng(4);
  const double p = 1.0 / 5.56;  // ShareGPT's mean turn count
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const int64_t v = rng.GeometricAtLeastOne(p);
    EXPECT_GE(v, 1);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 5.56, 0.15);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.Fork();
  // The child stream should not simply mirror the parent.
  int differences = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.UniformInt(0, 1 << 30) != child.UniformInt(0, 1 << 30)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 45);
}

// --- SampleStats -------------------------------------------------------------

TEST(SampleStatsTest, BasicMoments) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
}

TEST(SampleStatsTest, PercentileInterpolates) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(s.Percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.Percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.Percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0.9), 90.1, 1e-9);
}

TEST(SampleStatsTest, SingleSamplePercentile) {
  SampleStats s;
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.9), 7.0);
}

// --- InterpTable -------------------------------------------------------------

TEST(InterpTest, ExactAtKnots) {
  InterpTable t;
  t.AddPoint(1.0, 10.0);
  t.AddPoint(2.0, 20.0);
  t.AddPoint(4.0, 80.0);
  EXPECT_DOUBLE_EQ(t.Eval(1.0), 10.0);
  EXPECT_DOUBLE_EQ(t.Eval(2.0), 20.0);
  EXPECT_DOUBLE_EQ(t.Eval(4.0), 80.0);
}

TEST(InterpTest, LinearBetweenKnots) {
  InterpTable t;
  t.AddPoint(0.0, 0.0);
  t.AddPoint(10.0, 100.0);
  EXPECT_DOUBLE_EQ(t.Eval(2.5), 25.0);
  EXPECT_DOUBLE_EQ(t.Eval(7.5), 75.0);
}

TEST(InterpTest, ExtrapolatesWithEndSlopes) {
  InterpTable t;
  t.AddPoint(1.0, 1.0);
  t.AddPoint(2.0, 3.0);  // slope 2
  t.AddPoint(3.0, 4.0);  // slope 1
  EXPECT_DOUBLE_EQ(t.Eval(0.0), -1.0);  // 1 - 2*1
  EXPECT_DOUBLE_EQ(t.Eval(5.0), 6.0);   // 4 + 1*2
}

TEST(InterpTest, SinglePointIsConstant) {
  InterpTable t;
  t.AddPoint(5.0, 42.0);
  EXPECT_DOUBLE_EQ(t.Eval(-100.0), 42.0);
  EXPECT_DOUBLE_EQ(t.Eval(100.0), 42.0);
}

TEST(InterpTest, PowerOfTwoProfileInterpolation) {
  // Mirrors the paper's profiling scheme: knots at powers of two; the
  // interpolated cost between knots must be monotone for a linear cost.
  InterpTable t;
  for (int64_t ctx = 32; ctx <= 16384; ctx *= 2) {
    t.AddPoint(static_cast<double>(ctx), 1e-6 * static_cast<double>(ctx) + 5e-4);
  }
  double prev = 0.0;
  for (int64_t ctx = 32; ctx <= 16384; ctx += 111) {
    const double v = t.Eval(static_cast<double>(ctx));
    EXPECT_GT(v, prev);
    prev = v;
  }
}

}  // namespace
}  // namespace pensieve
