// Dense CPU operators used by the reference transformer (src/model) and the
// attention kernels (src/kernels).
//
// These mirror the operator set Pensieve obtains from the PyTorch C++
// frontend in the paper's implementation: GEMM, softmax, LayerNorm, RMSNorm,
// SiLU/GELU activations, and rotary position embedding.

#ifndef PENSIEVE_SRC_TENSOR_OPS_H_
#define PENSIEVE_SRC_TENSOR_OPS_H_

#include <cstdint>
#include <random>

#include "src/tensor/tensor.h"

namespace pensieve {

// C[m,n] = A[m,k] * B[k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

// C[m,n] = A[m,k] * B[n,k]^T. Weight matrices are stored [out, in], so this
// is the projection form used throughout the model.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

// y = x + b, broadcasting bias b[n] over rows of x[m,n].
void AddBiasInPlace(Tensor& x, const Tensor& bias);

// Elementwise sum into x; shapes must match.
void AddInPlace(Tensor& x, const Tensor& y);

// Row-wise numerically-stable softmax over the last dimension of a rank-2
// tensor.
void SoftmaxRowsInPlace(Tensor& x);

// Standard LayerNorm over the last dimension with learned gain/bias, and
// RMSNorm (Zhang & Sennrich) with learned gain. *out must already have x's
// shape (typically a workspace-borrowed tensor) and may not alias x.
void LayerNormInto(const Tensor& x, const Tensor& gain, const Tensor& bias,
                   float eps, Tensor* out);
void RmsNormInto(const Tensor& x, const Tensor& gain, float eps, Tensor* out);

// Elementwise activations.
void SiluInPlace(Tensor& x);
void GeluInPlace(Tensor& x);
void ReluInPlace(Tensor& x);

// Elementwise product into x; shapes must match. (Used by Llama's gated FFN.)
void MulInPlace(Tensor& x, const Tensor& y);

// Applies rotary position embedding in place to x[num_tokens, num_heads,
// head_dim]; positions[t] is the absolute position of token t. Pairs
// (x[2i], x[2i+1]) are rotated by theta_i = pos * base^(-2i/head_dim).
void ApplyRotaryInPlace(Tensor& x, const std::vector<int64_t>& positions, float base);

// The seeded N(0, stddev) stream behind FillNormal. One seed yields one
// fixed sequence of values however it is consumed, so drawing n values in
// pieces gives exactly the floats one FillNormal of n values writes. The
// model draws each projection this way, straight into its packed panels.
class NormalStream {
 public:
  NormalStream(uint64_t seed, float stddev) : engine_(seed), dist_(0.0f, stddev) {}

  // Writes the next n values of the stream to out[0, n).
  void Fill(float* out, int64_t n);

 private:
  std::mt19937_64 engine_;
  std::normal_distribution<float> dist_;
};

// Fills a tensor, in row-major order, with the first numel() values of
// NormalStream(seed, stddev).
void FillNormal(Tensor& x, uint64_t seed, float stddev);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_TENSOR_OPS_H_
