#include "src/tensor/packed_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/thread_pool.h"

// x86-64 builds get a runtime-dispatched AVX2+FMA microkernel next to the
// portable one: the binary itself stays baseline (no -mavx2 build flag
// required), and the dispatcher below picks the wide kernel only when the
// CPU reports support.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PENSIEVE_GEMM_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace pensieve {

const char* QuantModeName(QuantMode mode) {
  return mode == QuantMode::kInt8 ? "int8" : "fp32";
}

bool QuantModeByName(const std::string& name, QuantMode* mode) {
  if (name == "fp32") {
    *mode = QuantMode::kFp32;
    return true;
  }
  if (name == "int8") {
    *mode = QuantMode::kInt8;
    return true;
  }
  return false;
}

PackedMatrix::PackedMatrix(const Tensor& w, QuantMode mode)
    : PackedMatrix(w.dim(0), w.dim(1), mode) {
  PENSIEVE_CHECK_EQ(w.rank(), 2u);
  const float* wp = w.data();
  const int64_t panel_values = in_dim_ * kGemmNR;
  ParallelFor(
      0, num_panels_,
      [&](int64_t p_begin, int64_t p_end) {
        for (int64_t p = p_begin; p < p_end; ++p) {
          PackPanel(p, wp + p * panel_values);
        }
      },
      GrainForItemCost((mode == QuantMode::kInt8 ? 2 : 1) * panel_values));
}

PackedMatrix::PackedMatrix(int64_t out_dim, int64_t in_dim, QuantMode mode)
    : out_dim_(out_dim),
      in_dim_(in_dim),
      num_panels_((out_dim + kGemmNR - 1) / kGemmNR),
      quant_mode_(mode) {
  PENSIEVE_CHECK_GE(out_dim, 0);
  PENSIEVE_CHECK_GE(in_dim, 0);
  const size_t payload = static_cast<size_t>(num_panels_ * in_dim_ * kGemmNR);
  if (mode == QuantMode::kInt8) {
    qdata_.assign(payload, 0);
    scales_.assign(static_cast<size_t>(num_panels_ * kGemmNR), 0.0f);
  } else {
    data_.assign(payload, 0.0f);
  }
}

void PackedMatrix::PackRows(const RowSource& next_rows) {
  std::vector<float> rows(static_cast<size_t>(kGemmNR * in_dim_));
  for (int64_t p = 0; p < num_panels_; ++p) {
    next_rows(rows.data(), std::min(kGemmNR, out_dim_ - p * kGemmNR));
    PackPanel(p, rows.data());
  }
}

void PackedMatrix::PackPanel(int64_t p, const float* rows) {
  const int64_t k = in_dim_;
  const int64_t ncols = std::min(kGemmNR, out_dim_ - p * kGemmNR);
  if (quant_mode_ == QuantMode::kInt8) {
    int8_t* panel = qdata_.data() + p * k * kGemmNR;
    float* pscale = scales_.data() + p * kGemmNR;
    for (int64_t j = 0; j < ncols; ++j) {
      const float* wrow = rows + j * k;
      float amax = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        amax = std::max(amax, std::fabs(wrow[kk]));
      }
      // All-zero (or empty) column: scale 0, all codes 0, and the
      // dequantized column is exactly zero.
      const float scale = amax / 127.0f;
      pscale[j] = scale;
      if (scale == 0.0f) {
        continue;
      }
      for (int64_t kk = 0; kk < k; ++kk) {
        // lround = round-half-away-from-zero, independent of the FP
        // environment, so packing is deterministic. |wrow| <= amax bounds
        // the quotient by 127; the clamp only guards rounding at the
        // +-amax endpoints.
        const long q = std::lround(wrow[kk] / scale);
        panel[kk * kGemmNR + j] =
            static_cast<int8_t>(std::max<long>(-127, std::min<long>(127, q)));
      }
    }
    return;
  }
  float* panel = data_.data() + p * k * kGemmNR;
  for (int64_t j = 0; j < ncols; ++j) {
    const float* wrow = rows + j * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      panel[kk * kGemmNR + j] = wrow[kk];
    }
  }
}

int64_t PackedMatrix::PackedBytes() const {
  if (quant_mode_ == QuantMode::kInt8) {
    return static_cast<int64_t>(qdata_.size()) * static_cast<int64_t>(sizeof(int8_t)) +
           static_cast<int64_t>(scales_.size()) * static_cast<int64_t>(sizeof(float));
  }
  return static_cast<int64_t>(data_.size()) * static_cast<int64_t>(sizeof(float));
}

namespace {

// One MR x kGemmNR register tile over k-range [0, kc) of a packed panel
// block. `first` selects store-vs-accumulate into C; per output element this
// yields the fixed reduction order documented in the header. MR is a
// template parameter so the accumulator array stays in registers; the
// per-element arithmetic order is identical for every MR, which keeps the
// same row bit-identical across batch sizes.
template <int MR>
void MicroKernel(const float* a, int64_t lda, const float* bblock, int64_t kc,
                 bool first, float* c, int64_t ldc, int64_t ncols) {
  float acc[MR][kGemmNR] = {{0.0f}};
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* brow = bblock + kk * kGemmNR;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * lda + kk];
      for (int64_t j = 0; j < kGemmNR; ++j) {
        acc[r][j] += av * brow[j];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = c + r * ldc;
    if (first) {
      for (int64_t j = 0; j < ncols; ++j) {
        crow[j] = acc[r][j];
      }
    } else {
      for (int64_t j = 0; j < ncols; ++j) {
        crow[j] += acc[r][j];
      }
    }
  }
}

// Computes C rows covered by row-blocks [rb_begin, rb_end) against panels
// [p_begin, p_end). Shared by both partitioning paths so their
// per-element reduction order is identical by construction. Loop nest is
// kb -> panel -> row-block: the kc x kNR packed B block stays L1-resident
// across all row-blocks of the chunk.
void ComputeRange(const float* ap, int64_t m, int64_t k, const PackedMatrix& w,
                  float* cp, int64_t n, int64_t rb_begin, int64_t rb_end,
                  int64_t p_begin, int64_t p_end) {
  for (int64_t kb = 0; kb < k; kb += kGemmKC) {
    const int64_t kc = std::min(kGemmKC, k - kb);
    const bool first = kb == 0;
    for (int64_t p = p_begin; p < p_end; ++p) {
      const int64_t j0 = p * kGemmNR;
      const int64_t ncols = std::min(kGemmNR, n - j0);
      const float* bblock = w.panel(p) + kb * kGemmNR;
      for (int64_t rb = rb_begin; rb < rb_end; ++rb) {
        const int64_t i0 = rb * kGemmMR;
        const int64_t mr = std::min(kGemmMR, m - i0);
        const float* ablock = ap + i0 * k + kb;
        float* cblock = cp + i0 * n + j0;
        switch (mr) {
          case 1:
            MicroKernel<1>(ablock, k, bblock, kc, first, cblock, n, ncols);
            break;
          case 2:
            MicroKernel<2>(ablock, k, bblock, kc, first, cblock, n, ncols);
            break;
          case 3:
            MicroKernel<3>(ablock, k, bblock, kc, first, cblock, n, ncols);
            break;
          default:
            MicroKernel<4>(ablock, k, bblock, kc, first, cblock, n, ncols);
            break;
        }
      }
    }
  }
}

// Int8 twin of MicroKernel: the panel payload is int8, widened to float at
// each k-step, accumulated in fp32 in the same kk-ascending order, and the
// per-column scale is applied once as the block's partial sum folds into C.
// Per output element: C = sum over k-blocks of scale[j] * (block partial) —
// a pure function of k, identical across MR variants and both partitioning
// paths, so the §7 bit-identity contract holds for the quantized path too.
template <int MR>
void MicroKernelInt8(const float* a, int64_t lda, const int8_t* bblock,
                     const float* colscale, int64_t kc, bool first, float* c,
                     int64_t ldc, int64_t ncols) {
  float acc[MR][kGemmNR] = {{0.0f}};
  for (int64_t kk = 0; kk < kc; ++kk) {
    const int8_t* brow = bblock + kk * kGemmNR;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * lda + kk];
      for (int64_t j = 0; j < kGemmNR; ++j) {
        acc[r][j] += av * static_cast<float>(brow[j]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = c + r * ldc;
    if (first) {
      for (int64_t j = 0; j < ncols; ++j) {
        crow[j] = colscale[j] * acc[r][j];
      }
    } else {
      for (int64_t j = 0; j < ncols; ++j) {
        crow[j] += colscale[j] * acc[r][j];
      }
    }
  }
}

// Int8 twin of ComputeRange; identical loop nest, panels resolved through
// qpanel()/scales().
void ComputeRangeInt8(const float* ap, int64_t m, int64_t k, const PackedMatrix& w,
                      float* cp, int64_t n, int64_t rb_begin, int64_t rb_end,
                      int64_t p_begin, int64_t p_end) {
  for (int64_t kb = 0; kb < k; kb += kGemmKC) {
    const int64_t kc = std::min(kGemmKC, k - kb);
    const bool first = kb == 0;
    for (int64_t p = p_begin; p < p_end; ++p) {
      const int64_t j0 = p * kGemmNR;
      const int64_t ncols = std::min(kGemmNR, n - j0);
      const int8_t* bblock = w.qpanel(p) + kb * kGemmNR;
      const float* colscale = w.scales(p);
      for (int64_t rb = rb_begin; rb < rb_end; ++rb) {
        const int64_t i0 = rb * kGemmMR;
        const int64_t mr = std::min(kGemmMR, m - i0);
        const float* ablock = ap + i0 * k + kb;
        float* cblock = cp + i0 * n + j0;
        switch (mr) {
          case 1:
            MicroKernelInt8<1>(ablock, k, bblock, colscale, kc, first, cblock,
                               n, ncols);
            break;
          case 2:
            MicroKernelInt8<2>(ablock, k, bblock, colscale, kc, first, cblock,
                               n, ncols);
            break;
          case 3:
            MicroKernelInt8<3>(ablock, k, bblock, colscale, kc, first, cblock,
                               n, ncols);
            break;
          default:
            MicroKernelInt8<4>(ablock, k, bblock, colscale, kc, first, cblock,
                               n, ncols);
            break;
        }
      }
    }
  }
}

#if PENSIEVE_GEMM_X86_DISPATCH

// AVX2+FMA twin of MicroKernel: one kGemmNR-wide panel row is exactly one
// ymm vector, so the MR x NR tile is MR ymm accumulators fed by one fused
// multiply-add per (row, k) step. Per output element the reduction order is
// the same kk-ascending order as the generic kernel and identical across
// every MR, so the batch-size/path bit-identity invariants carry over
// unchanged; only the rounding differs from the generic kernel (FMA skips
// the intermediate product rounding), which is why dispatch is per-process:
// one variant serves every call, whatever its partitioning.
template <int MR>
__attribute__((target("avx2,fma"))) void MicroKernelAvx2(
    const float* a, int64_t lda, const float* bblock, int64_t kc, bool first,
    float* c, int64_t ldc, int64_t ncols) {
  static_assert(kGemmNR == 8, "one panel row == one 8-float ymm vector");
  __m256 acc[MR];
  for (int r = 0; r < MR; ++r) {
    acc[r] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b = _mm256_loadu_ps(bblock + kk * kGemmNR);
    for (int r = 0; r < MR; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[r * lda + kk]), b, acc[r]);
    }
  }
  if (ncols == kGemmNR) {
    for (int r = 0; r < MR; ++r) {
      float* crow = c + r * ldc;
      if (first) {
        _mm256_storeu_ps(crow, acc[r]);
      } else {
        _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r]));
      }
    }
  } else {
    // Ragged last panel: the accumulators hold the full 8 lanes (the panel
    // is zero-padded), only ncols of them are real outputs.
    alignas(32) float tmp[kGemmNR];
    for (int r = 0; r < MR; ++r) {
      _mm256_store_ps(tmp, acc[r]);
      float* crow = c + r * ldc;
      if (first) {
        for (int64_t j = 0; j < ncols; ++j) {
          crow[j] = tmp[j];
        }
      } else {
        for (int64_t j = 0; j < ncols; ++j) {
          crow[j] += tmp[j];
        }
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void ComputeRangeAvx2(
    const float* ap, int64_t m, int64_t k, const PackedMatrix& w, float* cp,
    int64_t n, int64_t rb_begin, int64_t rb_end, int64_t p_begin,
    int64_t p_end) {
  for (int64_t kb = 0; kb < k; kb += kGemmKC) {
    const int64_t kc = std::min(kGemmKC, k - kb);
    const bool first = kb == 0;
    for (int64_t p = p_begin; p < p_end; ++p) {
      const int64_t j0 = p * kGemmNR;
      const int64_t ncols = std::min(kGemmNR, n - j0);
      const float* bblock = w.panel(p) + kb * kGemmNR;
      for (int64_t rb = rb_begin; rb < rb_end; ++rb) {
        const int64_t i0 = rb * kGemmMR;
        const int64_t mr = std::min(kGemmMR, m - i0);
        const float* ablock = ap + i0 * k + kb;
        float* cblock = cp + i0 * n + j0;
        switch (mr) {
          case 1:
            MicroKernelAvx2<1>(ablock, k, bblock, kc, first, cblock, n, ncols);
            break;
          case 2:
            MicroKernelAvx2<2>(ablock, k, bblock, kc, first, cblock, n, ncols);
            break;
          case 3:
            MicroKernelAvx2<3>(ablock, k, bblock, kc, first, cblock, n, ncols);
            break;
          default:
            MicroKernelAvx2<4>(ablock, k, bblock, kc, first, cblock, n, ncols);
            break;
        }
      }
    }
  }
}

// AVX2+FMA twin of MicroKernelInt8: 8 int8 panel entries are widened to one
// ymm float vector per k-step (cvtepi8_epi32 -> cvtepi32_ps), accumulated
// with FMA in the same kk-ascending order, and the column-scale vector is
// applied once per k-block on the way into C. The widening converts are
// exact (int8 is representable in fp32), so only the FMA-vs-mul+add rounding
// differs from the portable kernel — handled, as for fp32, by per-process
// dispatch.
template <int MR>
__attribute__((target("avx2,fma"))) void MicroKernelInt8Avx2(
    const float* a, int64_t lda, const int8_t* bblock, const float* colscale,
    int64_t kc, bool first, float* c, int64_t ldc, int64_t ncols) {
  static_assert(kGemmNR == 8, "one int8 panel row == one 8-byte load");
  __m256 acc[MR];
  for (int r = 0; r < MR; ++r) {
    acc[r] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m128i b8 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(bblock + kk * kGemmNR));
    const __m256 b = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b8));
    for (int r = 0; r < MR; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[r * lda + kk]), b, acc[r]);
    }
  }
  const __m256 s = _mm256_loadu_ps(colscale);
  if (ncols == kGemmNR) {
    for (int r = 0; r < MR; ++r) {
      float* crow = c + r * ldc;
      if (first) {
        _mm256_storeu_ps(crow, _mm256_mul_ps(s, acc[r]));
      } else {
        _mm256_storeu_ps(crow,
                         _mm256_fmadd_ps(s, acc[r], _mm256_loadu_ps(crow)));
      }
    }
  } else {
    // Ragged last panel: scale all 8 lanes (padding scales are 0), store
    // only the real columns. An element's panel — hence its store path — is
    // fixed by its column index, so this never mixes with the vector path
    // for the same element.
    alignas(32) float tmp[kGemmNR];
    for (int r = 0; r < MR; ++r) {
      _mm256_store_ps(tmp, _mm256_mul_ps(s, acc[r]));
      float* crow = c + r * ldc;
      if (first) {
        for (int64_t j = 0; j < ncols; ++j) {
          crow[j] = tmp[j];
        }
      } else {
        for (int64_t j = 0; j < ncols; ++j) {
          crow[j] += tmp[j];
        }
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void ComputeRangeInt8Avx2(
    const float* ap, int64_t m, int64_t k, const PackedMatrix& w, float* cp,
    int64_t n, int64_t rb_begin, int64_t rb_end, int64_t p_begin,
    int64_t p_end) {
  for (int64_t kb = 0; kb < k; kb += kGemmKC) {
    const int64_t kc = std::min(kGemmKC, k - kb);
    const bool first = kb == 0;
    for (int64_t p = p_begin; p < p_end; ++p) {
      const int64_t j0 = p * kGemmNR;
      const int64_t ncols = std::min(kGemmNR, n - j0);
      const int8_t* bblock = w.qpanel(p) + kb * kGemmNR;
      const float* colscale = w.scales(p);
      for (int64_t rb = rb_begin; rb < rb_end; ++rb) {
        const int64_t i0 = rb * kGemmMR;
        const int64_t mr = std::min(kGemmMR, m - i0);
        const float* ablock = ap + i0 * k + kb;
        float* cblock = cp + i0 * n + j0;
        switch (mr) {
          case 1:
            MicroKernelInt8Avx2<1>(ablock, k, bblock, colscale, kc, first,
                                   cblock, n, ncols);
            break;
          case 2:
            MicroKernelInt8Avx2<2>(ablock, k, bblock, colscale, kc, first,
                                   cblock, n, ncols);
            break;
          case 3:
            MicroKernelInt8Avx2<3>(ablock, k, bblock, colscale, kc, first,
                                   cblock, n, ncols);
            break;
          default:
            MicroKernelInt8Avx2<4>(ablock, k, bblock, colscale, kc, first,
                                   cblock, n, ncols);
            break;
        }
      }
    }
  }
}

#endif  // PENSIEVE_GEMM_X86_DISPATCH

using ComputeRangeFn = void (*)(const float*, int64_t, int64_t,
                                const PackedMatrix&, float*, int64_t, int64_t,
                                int64_t, int64_t, int64_t);

bool GemmDispatchHasAvx2() {
#if PENSIEVE_GEMM_X86_DISPATCH
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// Picked once per process so every GEMM call — any path, any thread count —
// runs the same instruction sequence, keeping results bit-reproducible
// within a run.
ComputeRangeFn PickComputeRange() {
#if PENSIEVE_GEMM_X86_DISPATCH
  if (GemmDispatchHasAvx2()) {
    return ComputeRangeAvx2;
  }
#endif
  return ComputeRange;
}

ComputeRangeFn PickComputeRangeInt8() {
#if PENSIEVE_GEMM_X86_DISPATCH
  if (GemmDispatchHasAvx2()) {
    return ComputeRangeInt8Avx2;
  }
#endif
  return ComputeRangeInt8;
}

const ComputeRangeFn kComputeRange = PickComputeRange();
const ComputeRangeFn kComputeRangeInt8 = PickComputeRangeInt8();

// Decode-sized matmuls (m <= kGemvMaxRows) partition over output panels
// instead of rows; a single-token step otherwise runs on one thread.
constexpr int64_t kGemvMaxRows = 8;

// The GEMM driver over the given range kernels: m <= kGemvMaxRows
// partitions over output panels, larger m over row-blocks.
void MatMulPackedWith(ComputeRangeFn fp32, ComputeRangeFn int8, const Tensor& a,
                      const PackedMatrix& w, Tensor* c) {
  PENSIEVE_CHECK_EQ(a.rank(), 2u);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  PENSIEVE_CHECK_EQ(k, w.in_dim());
  const int64_t n = w.out_dim();
  PENSIEVE_CHECK_EQ(c->rank(), 2u);
  PENSIEVE_CHECK_EQ(c->dim(0), m);
  PENSIEVE_CHECK_EQ(c->dim(1), n);
  if (m == 0 || n == 0) {
    return;
  }
  const float* ap = a.data();
  float* cp = c->data();
  if (k == 0) {
    std::memset(cp, 0, static_cast<size_t>(m * n) * sizeof(float));
    return;
  }
  const ComputeRangeFn compute = w.quant_mode() == QuantMode::kInt8 ? int8 : fp32;
  const int64_t num_row_blocks = (m + kGemmMR - 1) / kGemmMR;
  if (m <= kGemvMaxRows) {
    ParallelFor(
        0, w.num_panels(),
        [&](int64_t p_begin, int64_t p_end) {
          compute(ap, m, k, w, cp, n, 0, num_row_blocks, p_begin, p_end);
        },
        GrainForItemCost(m * k * kGemmNR));
    return;
  }
  ParallelFor(
      0, num_row_blocks,
      [&](int64_t rb_begin, int64_t rb_end) {
        compute(ap, m, k, w, cp, n, rb_begin, rb_end, 0, w.num_panels());
      },
      GrainForItemCost(kGemmMR * k * n));
}

}  // namespace

const char* GemmIsaName() { return GemmDispatchHasAvx2() ? "avx2" : "sse"; }

void MatMulPackedInto(const Tensor& a, const PackedMatrix& w, Tensor* c) {
  MatMulPackedWith(kComputeRange, kComputeRangeInt8, a, w, c);
}

namespace internal {

void MatMulPackedPortableInto(const Tensor& a, const PackedMatrix& w,
                              Tensor* c) {
  MatMulPackedWith(ComputeRange, ComputeRangeInt8, a, w, c);
}

}  // namespace internal

}  // namespace pensieve
