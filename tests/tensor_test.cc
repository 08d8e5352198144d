// Unit tests for the tensor substrate (src/tensor).

#include <gtest/gtest.h>

#include <cmath>

#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace pensieve {
namespace {

TEST(TensorTest, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t[i], 0.0f);
  }
}

TEST(TensorTest, FullFills) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t[i], 2.5f);
  }
}

TEST(TensorTest, AtIndexingRowMajor) {
  Tensor t({2, 3});
  t.at({1, 2}) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  t.at({0, 1}) = 3.0f;
  EXPECT_EQ(t[1], 3.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(r.at({2, 1}), 6.0f);
}

TEST(TensorTest, ShapeString) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.ShapeString(), "[2, 3, 4]");
}

TEST(TensorTest, MaxAbsDiff) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.5f, 1.0f});
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 1.0f);
}

// --- MatMul -----------------------------------------------------------------

TEST(OpsTest, MatMulSmall) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0f);
}

TEST(OpsTest, MatMulIdentity) {
  Tensor a({2, 2}, {3, 4, 5, 6});
  Tensor eye({2, 2}, {1, 0, 0, 1});
  Tensor c = MatMul(a, eye);
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, c), 0.0f);
}

TEST(OpsTest, MatMulTransposedBMatchesMatMul) {
  Tensor a({3, 4});
  FillNormal(a, 1, 1.0f);
  Tensor b({4, 5});
  FillNormal(b, 2, 1.0f);
  // b_t[n, k] with b_t[j][i] = b[i][j]
  Tensor b_t({5, 4});
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      b_t.at({j, i}) = b.at({i, j});
    }
  }
  Tensor c1 = MatMul(a, b);
  Tensor c2 = MatMulTransposedB(a, b_t);
  EXPECT_LT(MaxAbsDiff(c1, c2), 1e-5f);
}

// --- Elementwise -------------------------------------------------------------

TEST(OpsTest, AddBias) {
  Tensor x({2, 2}, {1, 2, 3, 4});
  Tensor bias({2}, {10, 20});
  AddBiasInPlace(x, bias);
  EXPECT_FLOAT_EQ(x.at({0, 0}), 11.0f);
  EXPECT_FLOAT_EQ(x.at({1, 1}), 24.0f);
}

TEST(OpsTest, AddInPlace) {
  Tensor x({3}, {1, 2, 3});
  Tensor y({3}, {10, 20, 30});
  AddInPlace(x, y);
  EXPECT_FLOAT_EQ(x[2], 33.0f);
}

TEST(OpsTest, MulInPlace) {
  Tensor x({2}, {3, 4});
  Tensor y({2}, {2, 0.5f});
  MulInPlace(x, y);
  EXPECT_FLOAT_EQ(x[0], 6.0f);
  EXPECT_FLOAT_EQ(x[1], 2.0f);
}

TEST(OpsTest, Relu) {
  Tensor x({3}, {-1, 0, 2});
  ReluInPlace(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
  EXPECT_FLOAT_EQ(x[2], 2.0f);
}

TEST(OpsTest, SiluValues) {
  Tensor x({2}, {0.0f, 1.0f});
  SiluInPlace(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_NEAR(x[1], 1.0f / (1.0f + std::exp(-1.0f)), 1e-6);
}

TEST(OpsTest, GeluApproxValues) {
  Tensor x({3}, {-10.0f, 0.0f, 10.0f});
  GeluInPlace(x);
  EXPECT_NEAR(x[0], 0.0f, 1e-3);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
  EXPECT_NEAR(x[2], 10.0f, 1e-3);
}

// --- Softmax -----------------------------------------------------------------

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor x({3, 5});
  FillNormal(x, 3, 2.0f);
  SoftmaxRowsInPlace(x);
  for (int64_t i = 0; i < 3; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_GE(x.at({i, j}), 0.0f);
      sum += x.at({i, j});
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(OpsTest, SoftmaxNumericallyStableForLargeInputs) {
  Tensor x({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  SoftmaxRowsInPlace(x);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(x[j], 1.0f / 3.0f, 1e-5);
  }
}

TEST(OpsTest, SoftmaxHandlesMinusInfinityMask) {
  Tensor x({1, 3},
           {0.0f, -std::numeric_limits<float>::infinity(), 0.0f});
  SoftmaxRowsInPlace(x);
  EXPECT_NEAR(x[0], 0.5f, 1e-6);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
  EXPECT_NEAR(x[2], 0.5f, 1e-6);
}

// --- Norms -------------------------------------------------------------------

TEST(OpsTest, LayerNormZeroMeanUnitVar) {
  Tensor x({1, 4}, {1, 2, 3, 4});
  Tensor gain = Tensor::Full({4}, 1.0f);
  Tensor bias = Tensor::Zeros({4});
  Tensor out(x.shape());
  LayerNormInto(x, gain, bias, 1e-5f, &out);
  float mean = 0.0f;
  float var = 0.0f;
  for (int64_t j = 0; j < 4; ++j) {
    mean += out[j];
  }
  mean /= 4.0f;
  for (int64_t j = 0; j < 4; ++j) {
    var += (out[j] - mean) * (out[j] - mean);
  }
  var /= 4.0f;
  EXPECT_NEAR(mean, 0.0f, 1e-5);
  EXPECT_NEAR(var, 1.0f, 1e-3);
}

TEST(OpsTest, LayerNormAppliesGainAndBias) {
  Tensor x({1, 2}, {-1.0f, 1.0f});
  Tensor gain({2}, {2.0f, 2.0f});
  Tensor bias({2}, {5.0f, 5.0f});
  Tensor out(x.shape());
  LayerNormInto(x, gain, bias, 1e-6f, &out);
  EXPECT_NEAR(out[0], 5.0f - 2.0f, 1e-3);
  EXPECT_NEAR(out[1], 5.0f + 2.0f, 1e-3);
}

TEST(OpsTest, RmsNormUnitRms) {
  Tensor x({1, 4}, {3, -3, 3, -3});
  Tensor gain = Tensor::Full({4}, 1.0f);
  Tensor out(x.shape());
  RmsNormInto(x, gain, 1e-6f, &out);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(std::fabs(out[j]), 1.0f, 1e-4);
  }
}

TEST(OpsTest, RmsNormScaleInvariantDirection) {
  Tensor x({1, 3}, {1.0f, 2.0f, 3.0f});
  Tensor x2({1, 3}, {10.0f, 20.0f, 30.0f});
  Tensor gain = Tensor::Full({3}, 1.0f);
  Tensor a(x.shape());
  Tensor b(x2.shape());
  RmsNormInto(x, gain, 0.0f, &a);
  RmsNormInto(x2, gain, 0.0f, &b);
  EXPECT_LT(MaxAbsDiff(a, b), 1e-5f);
}

// --- Rotary ------------------------------------------------------------------

TEST(OpsTest, RotaryAtPositionZeroIsIdentity) {
  Tensor x({1, 2, 4});
  FillNormal(x, 5, 1.0f);
  Tensor orig = x;
  ApplyRotaryInPlace(x, {0}, 10000.0f);
  EXPECT_LT(MaxAbsDiff(x, orig), 1e-6f);
}

TEST(OpsTest, RotaryPreservesNorm) {
  Tensor x({3, 2, 8});
  FillNormal(x, 6, 1.0f);
  float norm_before = 0.0f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    norm_before += x[i] * x[i];
  }
  ApplyRotaryInPlace(x, {5, 17, 129}, 10000.0f);
  float norm_after = 0.0f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    norm_after += x[i] * x[i];
  }
  EXPECT_NEAR(norm_before, norm_after, 1e-3f);
}

TEST(OpsTest, RotaryDotProductDependsOnRelativePositionOnly) {
  // The defining property of RoPE: <R(p)q, R(p+d)k> depends only on d.
  const int64_t head_dim = 16;
  Tensor q({1, 1, head_dim});
  Tensor k({1, 1, head_dim});
  FillNormal(q, 7, 1.0f);
  FillNormal(k, 8, 1.0f);

  auto rotated_dot = [&](int64_t pos_q, int64_t pos_k) {
    Tensor q2 = q;
    Tensor k2 = k;
    ApplyRotaryInPlace(q2, {pos_q}, 10000.0f);
    ApplyRotaryInPlace(k2, {pos_k}, 10000.0f);
    float dot = 0.0f;
    for (int64_t i = 0; i < head_dim; ++i) {
      dot += q2[i] * k2[i];
    }
    return dot;
  };

  EXPECT_NEAR(rotated_dot(0, 4), rotated_dot(10, 14), 1e-3f);
  EXPECT_NEAR(rotated_dot(3, 3), rotated_dot(100, 100), 1e-3f);
}

TEST(OpsTest, FillNormalDeterministic) {
  Tensor a({100});
  Tensor b({100});
  FillNormal(a, 42, 1.0f);
  FillNormal(b, 42, 1.0f);
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 0.0f);
}

}  // namespace
}  // namespace pensieve
