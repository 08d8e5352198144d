// Prepacked weight matrices and the cache-blocked GEMM that consumes them.
//
// Every static projection matrix in the model (wqkv, wo, the FFN mats, the
// tied LM head) is multiplied thousands of times against activations but
// never changes after load. PackedMatrix pays a one-time reorganisation of
// the [out, in] row-major weight into NR-wide column panels so that the hot
// GEMM loop reads both operands with unit stride and keeps an MR x NR
// accumulator tile in registers — the same GotoBLAS/BLIS structure Cutlass
// applies on the GPU side of the paper's implementation.
//
// Layout. Output columns are grouped into panels of kNR; within panel p the
// elements are k-major: packed[p][kk][j] = W[p * kNR + j][kk]. A microkernel
// step therefore loads one contiguous kNR-vector of B per k-step. The last
// panel is zero-padded to full width, so the microkernel never branches on
// column remainder (stores are still clipped to the real width).
//
// Determinism. For every output element C[i][j] the k-reduction order is a
// pure function of k alone: kKC-sized blocks ascending, plain ascending
// accumulation inside each block, one add into C per block. Both
// partitioning strategies (over row-blocks for large m, over panels for the
// decode GEMV path) and every row-remainder microkernel variant follow this
// exact order, so results are bit-identical across thread counts, across
// the two paths, and for the same row regardless of batch size — the
// contract tests/thread_determinism_test.cc pins.
//
// Microkernels. x86-64 builds carry two microkernel bodies: a portable one
// the autovectorizer lowers to SSE, and an AVX2+FMA one (one panel row ==
// one ymm, MR fused multiply-adds per k-step) selected once per process via
// __builtin_cpu_supports — the binary needs no -mavx2 to build or to run on
// older CPUs. Both follow the reduction order above; FMA rounds differently
// than mul+add, so absolute values may differ *between* the two variants,
// but never within a process (one variant serves every call).
//
// Int8 path (QuantMode::kInt8). Decode GEMV is memory-bound: m = 1 streams
// the whole weight matrix per token and saturates the bus long before the
// ALUs. Quantizing the payload to int8 (symmetric per output column:
// scale[j] = amax_k |W[j][k]| / 127, stored once per panel column) quarters
// the bytes streamed while accumulation stays fp32 — each int8 panel entry
// is widened to float inside the microkernel, summed in the exact reduction
// order above, and the column scale is applied once per kKC block as the
// block's partial sum is folded into C. That keeps the §7 determinism
// contract intact for the int8 path: still bit-identical across thread
// counts, partitioning paths and batch sizes (DESIGN.md §12).

#ifndef PENSIEVE_SRC_TENSOR_PACKED_MATRIX_H_
#define PENSIEVE_SRC_TENSOR_PACKED_MATRIX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace pensieve {

// Weight storage mode for a PackedMatrix. kFp32 is the exact prepacked
// float path; kInt8 stores the panels as symmetric per-column int8 with
// fp32 accumulation.
enum class QuantMode { kFp32, kInt8 };

// "fp32" / "int8".
const char* QuantModeName(QuantMode mode);
// Parses "fp32" / "int8"; returns false on anything else.
bool QuantModeByName(const std::string& name, QuantMode* mode);

// Instruction set the per-process GEMM dispatcher selected: "avx2" or
// "sse". Recorded in bench JSON headers so results are attributable.
const char* GemmIsaName();

// Register-tile and cache-block constants for the packed GEMM. Sized for a
// baseline SSE2 target: an MR x NR = 4 x 8 float accumulator tile uses 8 of
// the 16 xmm registers, and a kKC x kNR packed B block (512 * 8 * 4B = 16KB)
// fits in half an L1d.
inline constexpr int64_t kGemmNR = 8;
inline constexpr int64_t kGemmMR = 4;
inline constexpr int64_t kGemmKC = 512;

// A weight matrix W[out, in] repacked into kNR-wide, k-major column panels.
// Built once at model-construction time; immutable afterwards.
class PackedMatrix {
 public:
  // Empty placeholder (0 x 0); assign a packed value before use.
  PackedMatrix() = default;

  // Packs w (rank 2, [out, in]). Parallelized over panels. kInt8 quantizes
  // each output column symmetrically (scale = amax / 127) while packing;
  // the fp32 weights are not retained.
  explicit PackedMatrix(const Tensor& w, QuantMode mode = QuantMode::kFp32);

  // Zeroed storage for an [out_dim, in_dim] matrix, for PackRows to fill.
  PackedMatrix(int64_t out_dim, int64_t in_dim, QuantMode mode = QuantMode::kFp32);

  // Writes the next `num_rows` rows of W, row-major (num_rows * in_dim
  // floats), to `rows`.
  using RowSource = std::function<void(float* rows, int64_t num_rows)>;

  // Packs W from `next_rows`, which is asked for one panel's rows (kGemmNR,
  // fewer for a partial last panel) per call, in row order, so no fp32 copy
  // of the whole matrix ever exists. Serial: the source is a sequential
  // stream. Bit-identical to packing the same rows from a tensor; both
  // share one per-panel routine. Storage comes from the constructor, so a
  // caller can allocate on one thread and pack on another.
  void PackRows(const RowSource& next_rows);

  int64_t out_dim() const { return out_dim_; }
  int64_t in_dim() const { return in_dim_; }
  int64_t num_panels() const { return num_panels_; }
  QuantMode quant_mode() const { return quant_mode_; }

  // Start of panel p: in_dim() rows of kGemmNR contiguous floats. fp32 mode
  // only.
  const float* panel(int64_t p) const {
    PENSIEVE_CHECK_LT(p, num_panels_);
    return data_.data() + p * in_dim_ * kGemmNR;
  }

  // Int8-mode accessors: panel payload (same k-major layout as panel(),
  // int8 entries) and the kGemmNR per-column scales of panel p (padding
  // columns carry scale 0).
  const int8_t* qpanel(int64_t p) const {
    PENSIEVE_CHECK_LT(p, num_panels_);
    return qdata_.data() + p * in_dim_ * kGemmNR;
  }
  const float* scales(int64_t p) const {
    PENSIEVE_CHECK_LT(p, num_panels_);
    return scales_.data() + p * kGemmNR;
  }

  // Bytes the GEMV streams per full pass over the matrix (payload plus, in
  // int8 mode, the per-column scales). The memory-bound decode story in
  // BENCH_gemm.json is told in these bytes.
  int64_t PackedBytes() const;

 private:
  // Packs (and in int8 mode quantizes) panel p from its rows of W: the
  // min(kGemmNR, out_dim_ - p * kGemmNR) rows starting at p * kGemmNR,
  // contiguous and row-major.
  void PackPanel(int64_t p, const float* rows);

  int64_t out_dim_ = 0;
  int64_t in_dim_ = 0;
  int64_t num_panels_ = 0;
  QuantMode quant_mode_ = QuantMode::kFp32;
  std::vector<float> data_;      // fp32 mode payload
  std::vector<int8_t> qdata_;    // int8 mode payload
  std::vector<float> scales_;    // int8 mode: num_panels * kGemmNR scales
};

// C[m, out] = A[m, in] * W^T for a prepacked W. Overwrites c (no need to
// zero it first); c must already have shape [m, out]. Equivalent to
// MatMulTransposedB(a, w) up to floating-point reassociation.
//
// m > 8 partitions over row-blocks; m <= 8 (decode) partitions over column
// panels so single-token steps still use every thread.
void MatMulPackedInto(const Tensor& a, const PackedMatrix& w, Tensor* c);

namespace internal {

// MatMulPackedInto on the portable range kernels, whatever the dispatcher
// picked for this host. Test-only: it lets an avx2 host check the path every
// host without avx2 runs.
void MatMulPackedPortableInto(const Tensor& a, const PackedMatrix& w,
                              Tensor* c);

}  // namespace internal

}  // namespace pensieve

#endif  // PENSIEVE_SRC_TENSOR_PACKED_MATRIX_H_
