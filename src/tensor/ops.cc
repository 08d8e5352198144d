#include "src/tensor/ops.h"

#include <cmath>

#include "src/common/thread_pool.h"

namespace pensieve {

Tensor MatMul(const Tensor& a, const Tensor& b) {
  PENSIEVE_CHECK_EQ(a.rank(), 2u);
  PENSIEVE_CHECK_EQ(b.rank(), 2u);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  PENSIEVE_CHECK_EQ(b.dim(0), k);
  const int64_t n = b.dim(1);
  Tensor c({m, n});
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  // i-k-j loop order keeps the inner loop streaming over contiguous rows of
  // B and C, which is the cache-friendly order for row-major data. Rows of C
  // are independent, so the row loop is partitioned; the k-reduction for a
  // row never crosses a chunk boundary (determinism contract). The inner
  // loop is branch-free: skipping zero A elements would trade a predictable
  // FMA stream for a value-dependent branch that the predictor loses on
  // dense activations.
  ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          for (int64_t kk = 0; kk < k; ++kk) {
            const float av = ap[i * k + kk];
            const float* brow = bp + kk * n;
            float* crow = cp + i * n;
            for (int64_t j = 0; j < n; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      },
      GrainForItemCost(k * n));
  return c;
}

namespace {

// Dot product of one activation row against one weight row, with the fixed
// 4-accumulator association both MatMulTransposedB partitioning paths share
// (determinism contract: the value of C[i, j] must not depend on which path
// or chunk computed it).
inline float TransposedDot(const float* arow, const float* brow, int64_t k) {
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    a0 += arow[kk] * brow[kk];
    a1 += arow[kk + 1] * brow[kk + 1];
    a2 += arow[kk + 2] * brow[kk + 2];
    a3 += arow[kk + 3] * brow[kk + 3];
  }
  for (; kk < k; ++kk) {
    a0 += arow[kk] * brow[kk];
  }
  return (a0 + a1) + (a2 + a3);
}

}  // namespace

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  PENSIEVE_CHECK_EQ(a.rank(), 2u);
  PENSIEVE_CHECK_EQ(b.rank(), 2u);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  PENSIEVE_CHECK_EQ(b.dim(1), k);
  const int64_t n = b.dim(0);
  Tensor c({m, n});
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  if (m <= 8 && m > 0) {
    // Decode-sized batches: partitioning over the m rows would leave every
    // thread but one idle, so partition over output columns instead. Each
    // C element is still one TransposedDot, so bits match the row path.
    ParallelFor(
        0, n,
        [&](int64_t col_begin, int64_t col_end) {
          for (int64_t i = 0; i < m; ++i) {
            const float* arow = ap + i * k;
            for (int64_t j = col_begin; j < col_end; ++j) {
              cp[i * n + j] = TransposedDot(arow, bp + j * k, k);
            }
          }
        },
        GrainForItemCost(m * k));
    return c;
  }
  ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          const float* arow = ap + i * k;
          for (int64_t j = 0; j < n; ++j) {
            cp[i * n + j] = TransposedDot(arow, bp + j * k, k);
          }
        }
      },
      GrainForItemCost(k * n));
  return c;
}

void AddBiasInPlace(Tensor& x, const Tensor& bias) {
  PENSIEVE_CHECK_EQ(x.rank(), 2u);
  PENSIEVE_CHECK_EQ(bias.rank(), 1u);
  const int64_t m = x.dim(0);
  const int64_t n = x.dim(1);
  PENSIEVE_CHECK_EQ(bias.dim(0), n);
  float* xp = x.data();
  const float* bp = bias.data();
  ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            xp[i * n + j] += bp[j];
          }
        }
      },
      GrainForItemCost(n));
}

void AddInPlace(Tensor& x, const Tensor& y) {
  PENSIEVE_CHECK(x.SameShape(y));
  float* xp = x.data();
  const float* yp = y.data();
  ParallelFor(
      0, x.numel(),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          xp[i] += yp[i];
        }
      },
      GrainForItemCost(1));
}

void SoftmaxRowsInPlace(Tensor& x) {
  PENSIEVE_CHECK_EQ(x.rank(), 2u);
  const int64_t m = x.dim(0);
  const int64_t n = x.dim(1);
  float* xp = x.data();
  ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          float* row = xp + i * n;
          float max_v = row[0];
          for (int64_t j = 1; j < n; ++j) {
            max_v = std::max(max_v, row[j]);
          }
          float sum = 0.0f;
          for (int64_t j = 0; j < n; ++j) {
            row[j] = std::exp(row[j] - max_v);
            sum += row[j];
          }
          const float inv = 1.0f / sum;
          for (int64_t j = 0; j < n; ++j) {
            row[j] *= inv;
          }
        }
      },
      GrainForItemCost(n));
}

void LayerNormInto(const Tensor& x, const Tensor& gain, const Tensor& bias,
                   float eps, Tensor* out) {
  PENSIEVE_CHECK_EQ(x.rank(), 2u);
  const int64_t m = x.dim(0);
  const int64_t n = x.dim(1);
  PENSIEVE_CHECK_EQ(gain.dim(0), n);
  PENSIEVE_CHECK_EQ(bias.dim(0), n);
  PENSIEVE_CHECK(out->SameShape(x));
  const float* xp = x.data();
  const float* gp = gain.data();
  const float* bp = bias.data();
  float* op = out->data();
  ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          const float* row = xp + i * n;
          float mean = 0.0f;
          for (int64_t j = 0; j < n; ++j) {
            mean += row[j];
          }
          mean /= static_cast<float>(n);
          float var = 0.0f;
          for (int64_t j = 0; j < n; ++j) {
            var += (row[j] - mean) * (row[j] - mean);
          }
          var /= static_cast<float>(n);
          const float inv_std = 1.0f / std::sqrt(var + eps);
          float* orow = op + i * n;
          for (int64_t j = 0; j < n; ++j) {
            orow[j] = (row[j] - mean) * inv_std * gp[j] + bp[j];
          }
        }
      },
      GrainForItemCost(n));
}

void RmsNormInto(const Tensor& x, const Tensor& gain, float eps, Tensor* out) {
  PENSIEVE_CHECK_EQ(x.rank(), 2u);
  const int64_t m = x.dim(0);
  const int64_t n = x.dim(1);
  PENSIEVE_CHECK_EQ(gain.dim(0), n);
  PENSIEVE_CHECK(out->SameShape(x));
  const float* xp = x.data();
  const float* gp = gain.data();
  float* op = out->data();
  ParallelFor(
      0, m,
      [&](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
          const float* row = xp + i * n;
          float sum_sq = 0.0f;
          for (int64_t j = 0; j < n; ++j) {
            sum_sq += row[j] * row[j];
          }
          const float inv_rms =
              1.0f / std::sqrt(sum_sq / static_cast<float>(n) + eps);
          float* orow = op + i * n;
          for (int64_t j = 0; j < n; ++j) {
            orow[j] = row[j] * inv_rms * gp[j];
          }
        }
      },
      GrainForItemCost(n));
}

void SiluInPlace(Tensor& x) {
  float* xp = x.data();
  ParallelFor(
      0, x.numel(),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          xp[i] = xp[i] / (1.0f + std::exp(-xp[i]));
        }
      },
      GrainForItemCost(1));
}

void GeluInPlace(Tensor& x) {
  // tanh approximation, as used by GPT-family models.
  constexpr float kSqrt2OverPi = 0.7978845608f;
  float* xp = x.data();
  ParallelFor(
      0, x.numel(),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const float v = xp[i];
          xp[i] =
              0.5f * v * (1.0f + std::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v)));
        }
      },
      GrainForItemCost(1));
}

void ReluInPlace(Tensor& x) {
  float* xp = x.data();
  ParallelFor(
      0, x.numel(),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          xp[i] = std::max(0.0f, xp[i]);
        }
      },
      GrainForItemCost(1));
}

void MulInPlace(Tensor& x, const Tensor& y) {
  PENSIEVE_CHECK(x.SameShape(y));
  float* xp = x.data();
  const float* yp = y.data();
  ParallelFor(
      0, x.numel(),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          xp[i] *= yp[i];
        }
      },
      GrainForItemCost(1));
}

void ApplyRotaryInPlace(Tensor& x, const std::vector<int64_t>& positions, float base) {
  PENSIEVE_CHECK_EQ(x.rank(), 3u);
  const int64_t num_tokens = x.dim(0);
  const int64_t num_heads = x.dim(1);
  const int64_t head_dim = x.dim(2);
  PENSIEVE_CHECK_EQ(static_cast<int64_t>(positions.size()), num_tokens);
  PENSIEVE_CHECK_EQ(head_dim % 2, 0);
  float* xp = x.data();
  ParallelFor(
      0, num_tokens,
      [&](int64_t token_begin, int64_t token_end) {
        for (int64_t t = token_begin; t < token_end; ++t) {
          const double pos = static_cast<double>(positions[static_cast<size_t>(t)]);
          for (int64_t h = 0; h < num_heads; ++h) {
            float* vec = xp + (t * num_heads + h) * head_dim;
            for (int64_t i = 0; i < head_dim / 2; ++i) {
              const double theta =
                  pos * std::pow(static_cast<double>(base),
                                 -2.0 * static_cast<double>(i) /
                                     static_cast<double>(head_dim));
              const float cos_t = static_cast<float>(std::cos(theta));
              const float sin_t = static_cast<float>(std::sin(theta));
              const float a = vec[2 * i];
              const float b = vec[2 * i + 1];
              vec[2 * i] = a * cos_t - b * sin_t;
              vec[2 * i + 1] = a * sin_t + b * cos_t;
            }
          }
        }
      },
      GrainForItemCost(num_heads * head_dim));
}

void NormalStream::Fill(float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = dist_(engine_);
  }
}

void FillNormal(Tensor& x, uint64_t seed, float stddev) {
  NormalStream(seed, stddev).Fill(x.data(), x.numel());
}

}  // namespace pensieve
