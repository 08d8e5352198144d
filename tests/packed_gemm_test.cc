// Correctness of the cache-blocked packed GEMM (src/tensor/packed_matrix.h)
// against the naive transposed-B matmul, with emphasis on the awkward
// shapes: m = 1 (the decode GEMV path), k not a multiple of the unroll or of
// the kKC cache block, n below one panel, and ragged remainder tiles on both
// axes. Also pins the batch-invariance property the determinism contract
// implies: the same input row produces byte-identical output whether it is
// multiplied alone or inside a larger batch. Also pins that a matrix packed
// panel by panel from a row stream equals, bitwise, the same rows packed
// from a tensor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/tensor/ops.h"
#include "src/tensor/packed_matrix.h"
#include "tests/numeric_test_util.h"

namespace pensieve {
namespace {

// Reassociation tolerance: both sides accumulate k products of O(1) values
// in different orders.
float TolForK(int64_t k) { return 1e-4f + 1e-6f * static_cast<float>(k); }

TEST(PackedGemmTest, MatchesNaiveAcrossOddShapes) {
  const int64_t ms[] = {1, 2, 3, 4, 5, 8, 17};
  const int64_t ks[] = {1, 3, 37, 515};
  const int64_t ns[] = {1, 5, 8, 9, 130};
  for (int64_t m : ms) {
    for (int64_t k : ks) {
      for (int64_t n : ns) {
        Tensor a({m, k});
        Tensor w({n, k});
        FillNormal(a, static_cast<uint64_t>(m * 10007 + k * 101 + n), 1.0f);
        FillNormal(w, static_cast<uint64_t>(m * 997 + k * 13 + n + 1), 1.0f);
        const PackedMatrix packed(w);
        EXPECT_EQ(packed.out_dim(), n);
        EXPECT_EQ(packed.in_dim(), k);
        const Tensor expected = MatMulTransposedB(a, w);
        const Tensor got = PackedProduct(a, packed);
        ASSERT_TRUE(expected.SameShape(got));
        EXPECT_LE(MaxAbsDiff(expected, got), TolForK(k))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(PackedGemmTest, KcBlockingBoundary) {
  // k straddling the kKC = 512 cache block: one element under, exact, one
  // over, and several blocks with a remainder.
  for (int64_t k : {511, 512, 513, 1200}) {
    Tensor a({6, k});
    Tensor w({19, k});
    FillNormal(a, static_cast<uint64_t>(k), 1.0f);
    FillNormal(w, static_cast<uint64_t>(k + 1), 1.0f);
    const Tensor expected = MatMulTransposedB(a, w);
    const Tensor got = PackedProduct(a, PackedMatrix(w));
    EXPECT_LE(MaxAbsDiff(expected, got), TolForK(k)) << "k=" << k;
  }
}

TEST(PackedGemmTest, IntoOverwritesExistingContents) {
  Tensor a({3, 20});
  Tensor w({11, 20});
  FillNormal(a, 1, 1.0f);
  FillNormal(w, 2, 1.0f);
  const PackedMatrix packed(w);
  const Tensor expected = PackedProduct(a, packed);
  // MatMulPackedInto must fully overwrite c, including poison values —
  // workspace arenas hand back dirty memory.
  Tensor c = Tensor::Full({3, 11}, 1e30f);
  MatMulPackedInto(a, packed, &c);
  EXPECT_EQ(0, std::memcmp(expected.data(), c.data(),
                           static_cast<size_t>(c.numel()) * sizeof(float)));
}

TEST(PackedGemmTest, RowsAreBatchSizeInvariant) {
  // The per-element reduction order is independent of the batch size and of
  // which partitioning path ran, so multiplying one row alone (GEMV path)
  // must reproduce the same bytes as that row inside a 17-row batch (row
  // path), for every row-remainder position within the 4-row micro tile.
  const int64_t k = 515, n = 130;
  Tensor a({17, k});
  Tensor w({n, k});
  FillNormal(a, 3, 1.0f);
  FillNormal(w, 4, 1.0f);
  const PackedMatrix packed(w);
  const Tensor batch = PackedProduct(a, packed);
  for (int64_t i = 0; i < a.dim(0); ++i) {
    const Tensor row = PackedProduct(RowSlice(a, i, i + 1), packed);
    EXPECT_EQ(0, std::memcmp(batch.data() + i * n, row.data(),
                             static_cast<size_t>(n) * sizeof(float)))
        << "row " << i;
  }
}

TEST(PackedGemmTest, ZeroSizedDims) {
  Tensor w({8, 16});
  FillNormal(w, 5, 1.0f);
  const PackedMatrix packed(w);
  Tensor a({0, 16});
  const Tensor empty = PackedProduct(a, packed);
  EXPECT_EQ(empty.dim(0), 0);
  // k == 0 must yield zeros, not dirty memory.
  Tensor wk0({4, 0});
  Tensor ak0({3, 0});
  Tensor c = Tensor::Full({3, 4}, 7.0f);
  MatMulPackedInto(ak0, PackedMatrix(wk0), &c);
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_EQ(c[i], 0.0f);
  }
}

// The model draws each projection straight into its panels; tests and
// benches pack a FillNormal'd tensor. Both must give the same bytes,
// including a partial last panel and an all-zero row (int8 scale 0).
TEST(PackedGemmTest, StreamedDrawPacksLikeTensorDraw) {
  constexpr int64_t kOut = 21;      // 2 full panels + 5 rows
  constexpr int64_t kIn = 37;
  constexpr int64_t kZeroRow = 18;  // inside the partial panel
  constexpr uint64_t kSeed = 77;
  constexpr float kStddev = 0.5f;
  for (QuantMode mode : {QuantMode::kFp32, QuantMode::kInt8}) {
    SCOPED_TRACE(QuantModeName(mode));
    Tensor w({kOut, kIn});
    FillNormal(w, kSeed, kStddev);
    std::fill_n(w.data() + kZeroRow * kIn, kIn, 0.0f);
    const PackedMatrix from_tensor(w, mode);

    NormalStream stream(kSeed, kStddev);
    int64_t next_row = 0;
    PackedMatrix streamed(kOut, kIn, mode);
    streamed.PackRows([&](float* rows, int64_t num_rows) {
      EXPECT_EQ(num_rows, std::min(kGemmNR, kOut - next_row));
      stream.Fill(rows, num_rows * kIn);
      if (kZeroRow >= next_row && kZeroRow < next_row + num_rows) {
        std::fill_n(rows + (kZeroRow - next_row) * kIn, kIn, 0.0f);
      }
      next_row += num_rows;
    });
    EXPECT_EQ(next_row, kOut);

    ASSERT_EQ(streamed.num_panels(), 3);
    ASSERT_EQ(streamed.num_panels(), from_tensor.num_panels());
    ASSERT_EQ(streamed.PackedBytes(), from_tensor.PackedBytes());
    const size_t panel_values = static_cast<size_t>(kIn * kGemmNR);
    for (int64_t p = 0; p < streamed.num_panels(); ++p) {
      if (mode == QuantMode::kFp32) {
        EXPECT_EQ(std::memcmp(streamed.panel(p), from_tensor.panel(p),
                              panel_values * sizeof(float)),
                  0)
            << "panel " << p;
      } else {
        EXPECT_EQ(std::memcmp(streamed.qpanel(p), from_tensor.qpanel(p), panel_values), 0)
            << "panel " << p;
        EXPECT_EQ(std::memcmp(streamed.scales(p), from_tensor.scales(p),
                              static_cast<size_t>(kGemmNR) * sizeof(float)),
                  0)
            << "scales of panel " << p;
      }
    }
    if (mode == QuantMode::kInt8) {
      EXPECT_EQ(streamed.scales(kZeroRow / kGemmNR)[kZeroRow % kGemmNR], 0.0f);
      EXPECT_GT(streamed.scales(0)[0], 0.0f);
    }
  }
}

// The weights an int8 PackedMatrix encodes (scale * q), as a [n, k] tensor.
Tensor DequantizedWeights(const PackedMatrix& q) {
  const int64_t n = q.out_dim();
  const int64_t k = q.in_dim();
  Tensor w({n, k});
  for (int64_t j = 0; j < n; ++j) {
    const float scale = q.scales(j / kGemmNR)[j % kGemmNR];
    const int8_t* panel = q.qpanel(j / kGemmNR);
    for (int64_t kk = 0; kk < k; ++kk) {
      w.data()[j * k + kk] =
          scale * static_cast<float>(panel[kk * kGemmNR + j % kGemmNR]);
    }
  }
  return w;
}

// The portable range kernels serve every host without avx2; an avx2 host
// never dispatches to them, so they are driven here directly: both
// partitionings (m <= 8 over panels, m > 8 over row-blocks), every row
// remainder, k across the kKC block and a partial last panel, fp32 and int8.
TEST(PackedGemmTest, PortableKernelsMatchReference) {
  const int64_t ms[] = {1, 2, 3, 4, 5, 8, 17};
  const int64_t ks[] = {37, 515};
  const int64_t ns[] = {5, 21};
  for (QuantMode mode : {QuantMode::kFp32, QuantMode::kInt8}) {
    for (int64_t m : ms) {
      for (int64_t k : ks) {
        for (int64_t n : ns) {
          SCOPED_TRACE(testing::Message() << QuantModeName(mode) << " m=" << m
                                          << " k=" << k << " n=" << n);
          Tensor a({m, k});
          Tensor w({n, k});
          FillNormal(a, static_cast<uint64_t>(m * 7919 + k * 17 + n), 1.0f);
          FillNormal(w, static_cast<uint64_t>(m * 31 + k * 3 + n + 9), 1.0f);
          const PackedMatrix packed(w, mode);
          const Tensor expected = MatMulTransposedB(
              a, mode == QuantMode::kInt8 ? DequantizedWeights(packed) : w);
          Tensor got({m, n});
          internal::MatMulPackedPortableInto(a, packed, &got);
          EXPECT_LE(MaxAbsDiff(expected, got), TolForK(k));
        }
      }
    }
  }
}

TEST(PackedGemmTest, MatMulHandlesZeroActivations) {
  // The branch-free MatMul inner loop must still be exact when A is riddled
  // with zeros (the removed `if (av == 0) continue` fast-path).
  Tensor a({5, 12});
  Tensor b({12, 7});
  FillNormal(a, 6, 1.0f);
  FillNormal(b, 7, 1.0f);
  for (int64_t i = 0; i < a.numel(); i += 3) {
    a[i] = 0.0f;
  }
  const Tensor got = MatMul(a, b);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 7; ++j) {
      double ref = 0.0;
      for (int64_t kk = 0; kk < 12; ++kk) {
        ref += static_cast<double>(a.at({i, kk})) * static_cast<double>(b.at({kk, j}));
      }
      EXPECT_NEAR(got.at({i, j}), static_cast<float>(ref), 1e-4) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace pensieve
