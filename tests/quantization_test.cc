// Int8 quantization: the prepacked int8 weight path (accuracy against its
// own dequantized weights, batch-size and thread-count bit-identity, amax
// edge cases) and KV-block quantization at the tier boundary (round-trip
// error bounds, checksum-over-quantized-bytes stability, corruption
// degrading to recomputation, compressed capacity accounting).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/kvcache/kv_pool.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/model/model_config.h"
#include "src/model/transformer.h"
#include "src/tensor/ops.h"
#include "src/tensor/packed_matrix.h"
#include "tests/numeric_test_util.h"

namespace pensieve {
namespace {

// --- PackedMatrix int8 --------------------------------------------------------

TEST(QuantModeTest, NamesRoundTrip) {
  EXPECT_STREQ(QuantModeName(QuantMode::kFp32), "fp32");
  EXPECT_STREQ(QuantModeName(QuantMode::kInt8), "int8");
  QuantMode mode;
  ASSERT_TRUE(QuantModeByName("int8", &mode));
  EXPECT_EQ(mode, QuantMode::kInt8);
  ASSERT_TRUE(QuantModeByName("fp32", &mode));
  EXPECT_EQ(mode, QuantMode::kFp32);
  EXPECT_FALSE(QuantModeByName("fp16", &mode));
}

// Reconstructs the weights the int8 panels actually encode (scale * q), so
// the kernel can be checked against an exact reference instead of a loose
// quantization-error bound.
Tensor DequantizedWeights(const PackedMatrix& q, int64_t n, int64_t k) {
  EXPECT_EQ(q.quant_mode(), QuantMode::kInt8);
  Tensor w({n, k});
  for (int64_t j = 0; j < n; ++j) {
    const int64_t p = j / kGemmNR;
    const int64_t lane = j % kGemmNR;
    const float s = q.scales(p)[lane];
    const int8_t* panel = q.qpanel(p);
    for (int64_t kk = 0; kk < k; ++kk) {
      w.data()[j * k + kk] =
          s * static_cast<float>(panel[kk * kGemmNR + lane]);
    }
  }
  return w;
}

TEST(Int8PackedGemmTest, MatchesDequantizedReferenceAcrossOddShapes) {
  const int64_t ms[] = {1, 3, 8, 17};
  const int64_t ks[] = {3, 37, 515};
  const int64_t ns[] = {1, 8, 130};
  for (int64_t m : ms) {
    for (int64_t k : ks) {
      for (int64_t n : ns) {
        Tensor a({m, k});
        Tensor w({n, k});
        FillNormal(a, static_cast<uint64_t>(m * 1009 + k * 31 + n), 1.0f);
        FillNormal(w, static_cast<uint64_t>(m * 71 + k * 7 + n + 5), 1.0f);
        const PackedMatrix qpacked(w, QuantMode::kInt8);
        EXPECT_EQ(qpacked.out_dim(), n);
        EXPECT_EQ(qpacked.in_dim(), k);
        const Tensor wdq = DequantizedWeights(qpacked, n, k);
        // The int8 path folds the column scale once per k-block instead of
        // into every product, so the comparison is reassociation-tight, not
        // bit-exact.
        const Tensor expected = MatMulTransposedB(a, wdq);
        const Tensor got = PackedProduct(a, qpacked);
        ASSERT_TRUE(expected.SameShape(got));
        EXPECT_LE(MaxAbsDiff(expected, got),
                  5e-3f)
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(Int8PackedGemmTest, RowsAreBatchSizeInvariant) {
  // Same contract as the fp32 path: one row alone (GEMV partitioning) must
  // reproduce byte-identical output to that row inside a 17-row batch (row
  // partitioning), for every remainder position of the 4-row micro tile.
  const int64_t k = 515, n = 130;
  Tensor a({17, k});
  Tensor w({n, k});
  FillNormal(a, 13, 1.0f);
  FillNormal(w, 14, 1.0f);
  const PackedMatrix qpacked(w, QuantMode::kInt8);
  const Tensor batch = PackedProduct(a, qpacked);
  for (int64_t i = 0; i < a.dim(0); ++i) {
    const Tensor row = PackedProduct(RowSlice(a, i, i + 1), qpacked);
    EXPECT_EQ(0, std::memcmp(batch.data() + i * n, row.data(),
                             static_cast<size_t>(n) * sizeof(float)))
        << "row " << i;
  }
}

TEST(Int8PackedGemmTest, BitIdenticalAcrossThreadCounts) {
  const int64_t k = 700, n = 97;
  Tensor a1({1, k});
  Tensor a17({17, k});
  Tensor w({n, k});
  FillNormal(a1, 21, 1.0f);
  FillNormal(a17, 22, 1.0f);
  FillNormal(w, 23, 1.0f);
  const PackedMatrix qpacked(w, QuantMode::kInt8);
  ThreadPool::SetGlobalThreads(1);
  const Tensor ref1 = PackedProduct(a1, qpacked);
  const Tensor ref17 = PackedProduct(a17, qpacked);
  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    const Tensor got1 = PackedProduct(a1, qpacked);
    const Tensor got17 = PackedProduct(a17, qpacked);
    EXPECT_EQ(0, std::memcmp(ref1.data(), got1.data(),
                             static_cast<size_t>(ref1.numel()) * sizeof(float)))
        << "m=1 threads=" << threads;
    EXPECT_EQ(0, std::memcmp(ref17.data(), got17.data(),
                             static_cast<size_t>(ref17.numel()) * sizeof(float)))
        << "m=17 threads=" << threads;
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(Int8PackedGemmTest, PackedBytesRoughlyQuartered) {
  Tensor w({256, 512});
  FillNormal(w, 31, 1.0f);
  const PackedMatrix fp32(w);
  const PackedMatrix int8(w, QuantMode::kInt8);
  EXPECT_EQ(fp32.quant_mode(), QuantMode::kFp32);
  EXPECT_EQ(int8.quant_mode(), QuantMode::kInt8);
  // int8 payload is a quarter of the fp32 panels; per-column scales add a
  // small constant.
  EXPECT_LT(int8.PackedBytes(), fp32.PackedBytes() / 3);
  EXPECT_GT(int8.PackedBytes(), fp32.PackedBytes() / 5);
}

TEST(Int8PackedGemmTest, AllZeroColumnStaysExactlyZero) {
  const int64_t k = 40, n = 9;
  Tensor w({n, k});
  FillNormal(w, 41, 1.0f);
  for (int64_t kk = 0; kk < k; ++kk) {
    w.data()[3 * k + kk] = 0.0f;  // output column 3 is all-zero
  }
  const PackedMatrix qpacked(w, QuantMode::kInt8);
  Tensor a({2, k});
  FillNormal(a, 42, 1.0f);
  const Tensor got = PackedProduct(a, qpacked);
  EXPECT_EQ(got.at({0, 3}), 0.0f);
  EXPECT_EQ(got.at({1, 3}), 0.0f);
}

TEST(Int8PackedGemmTest, AmaxEndpointsSurviveQuantization) {
  // A one-hot activation reads a single dequantized weight; the column's
  // +-amax entries map to +-127 and must come back as ~amax exactly (up to
  // one rounding in scale = amax / 127).
  const int64_t k = 16, n = 8;
  const float amax = 3.75f;
  Tensor w({n, k});
  FillNormal(w, 51, 0.5f);
  w.data()[0 * k + 2] = amax;   // column 0 endpoint +amax
  w.data()[0 * k + 7] = -amax;  // and -amax
  const PackedMatrix qpacked(w, QuantMode::kInt8);
  Tensor a({1, k});
  for (int64_t kk = 0; kk < k; ++kk) {
    a.data()[kk] = 0.0f;
  }
  a.data()[2] = 1.0f;
  Tensor hit_pos = PackedProduct(a, qpacked);
  EXPECT_NEAR(hit_pos.at({0, 0}), amax, amax * 1e-5f);
  a.data()[2] = 0.0f;
  a.data()[7] = 1.0f;
  Tensor hit_neg = PackedProduct(a, qpacked);
  EXPECT_NEAR(hit_neg.at({0, 0}), -amax, amax * 1e-5f);
}

TEST(Int8PackedGemmTest, DenormalWeightsStayFinite) {
  // amax in the denormal range: scale = amax / 127 may itself be denormal
  // (or flush the whole column to zero); either way the kernel must produce
  // finite, tiny outputs — never NaN or inf.
  const int64_t k = 12, n = 8;
  Tensor w({n, k});
  for (int64_t i = 0; i < w.numel(); ++i) {
    w.data()[i] = 1e-41f * static_cast<float>((i % 5) - 2);
  }
  const PackedMatrix qpacked(w, QuantMode::kInt8);
  Tensor a({1, k});
  FillNormal(a, 61, 1.0f);
  const Tensor got = PackedProduct(a, qpacked);
  for (int64_t j = 0; j < n; ++j) {
    EXPECT_TRUE(std::isfinite(got.at({0, j}))) << "col " << j;
    EXPECT_LE(std::fabs(got.at({0, j})), 1e-38f) << "col " << j;
  }
}

// --- Transformer int8 logit gate ---------------------------------------------

TEST(Int8TransformerTest, LogitsStayNearFp32Reference) {
  for (const char* preset : {"tiny-opt", "tiny-llama"}) {
    ModelConfig config;
    ASSERT_TRUE(ModelConfigByName(preset, &config));
    Transformer fp32(config, 7);
    Transformer int8(config, 7, QuantMode::kInt8);
    EXPECT_EQ(int8.weight_quant(), QuantMode::kInt8);
    KvPool pool_a(4, 8, config.num_layers, config.num_kv_heads, config.head_dim);
    KvPool pool_b(4, 8, config.num_layers, config.num_kv_heads, config.head_dim);
    const std::vector<BlockId> table = {0, 1, 2, 3};
    const std::vector<int32_t> tokens = {5, 9, 13, 2, 88, 17, 4, 30};
    ForwardBatch batch;
    const int64_t n = static_cast<int64_t>(tokens.size());
    for (int64_t i = 0; i < n; ++i) {
      batch.tokens.push_back(tokens[static_cast<size_t>(i)]);
      batch.positions.push_back(i);
      batch.kv_slots.push_back(
          {table[static_cast<size_t>(i / pool_a.block_size())],
           i % pool_a.block_size()});
    }
    batch.subs.push_back({0, n, n, &table});
    batch.logit_rows.push_back(n - 1);
    const Tensor ref = ForwardLogits(fp32, &pool_a, batch);
    const Tensor got = ForwardLogits(int8, &pool_b, batch);
    ASSERT_TRUE(ref.SameShape(got));
    float max_abs = 0.0f;
    for (int64_t i = 0; i < ref.numel(); ++i) {
      max_abs = std::max(max_abs, std::fabs(ref.data()[i]));
    }
    ASSERT_GT(max_abs, 0.0f);
    // Perplexity-proxy gate: per-matrix int8 weight error must not move any
    // logit by more than 5% of the logit scale.
    EXPECT_LE(MaxAbsDiff(ref, got), 0.05f * max_abs) << preset;
  }
}

// --- KvPool block quantization -----------------------------------------------

KvPool MakePool(int64_t blocks = 4) {
  return KvPool(blocks, /*block_size=*/4, /*num_layers=*/2, /*num_kv_heads=*/2,
                /*head_dim=*/4);
}

// Fills every slot of `block` with a deterministic varied pattern and
// returns the written values in layout order.
std::vector<float> FillBlock(KvPool* pool, BlockId block, float scale) {
  std::vector<float> written;
  const int64_t ts = pool->num_kv_heads() * pool->head_dim();
  std::vector<float> k(static_cast<size_t>(ts));
  std::vector<float> v(static_cast<size_t>(ts));
  for (int64_t layer = 0; layer < pool->num_layers(); ++layer) {
    for (int64_t slot = 0; slot < pool->block_size(); ++slot) {
      for (int64_t i = 0; i < ts; ++i) {
        k[static_cast<size_t>(i)] =
            scale * static_cast<float>((layer * 131 + slot * 17 + i * 3) % 23 - 11);
        v[static_cast<size_t>(i)] =
            scale * static_cast<float>((layer * 37 + slot * 5 + i * 7) % 19 - 9);
      }
      pool->WriteToken(block, layer, slot, k.data(), v.data());
    }
  }
  for (int64_t layer = 0; layer < pool->num_layers(); ++layer) {
    for (int kv = 0; kv < 2; ++kv) {
      for (int64_t slot = 0; slot < pool->block_size(); ++slot) {
        const float* p = pool->TokenData(block, layer, kv, slot);
        written.insert(written.end(), p, p + ts);
      }
    }
  }
  return written;
}

TEST(KvQuantTest, RoundTripWithinHalfScale) {
  KvPool gpu = MakePool();
  KvPool cpu = MakePool();
  KvPool back = MakePool();
  const std::vector<float> original = FillBlock(&gpu, 0, 0.25f);
  KvPool::QuantizeBlock(gpu, 0, cpu, 1);
  EXPECT_TRUE(cpu.BlockQuantized(1));
  EXPECT_FALSE(gpu.BlockQuantized(0));
  const float scale = cpu.BlockScale(1);
  EXPECT_GT(scale, 0.0f);
  KvPool::DequantizeBlock(cpu, 1, back, 2);
  EXPECT_FALSE(back.BlockQuantized(2));
  size_t idx = 0;
  const float tol = 0.5f * scale * (1.0f + 1e-5f);
  for (int64_t layer = 0; layer < back.num_layers(); ++layer) {
    for (int kv = 0; kv < 2; ++kv) {
      for (int64_t slot = 0; slot < back.block_size(); ++slot) {
        const float* p = back.TokenData(2, layer, kv, slot);
        for (int64_t i = 0; i < back.num_kv_heads() * back.head_dim(); ++i) {
          EXPECT_NEAR(p[i], original[idx], tol) << "idx " << idx;
          ++idx;
        }
      }
    }
  }
}

TEST(KvQuantTest, AllZeroBlockRoundTripsExactly) {
  KvPool gpu = MakePool();
  KvPool cpu = MakePool();
  KvPool back = MakePool();
  // Poison the destination first: dequantize must overwrite, not blend.
  FillBlock(&back, 1, 5.0f);
  KvPool::QuantizeBlock(gpu, 0, cpu, 0);
  EXPECT_TRUE(cpu.BlockQuantized(0));
  EXPECT_EQ(cpu.BlockScale(0), 0.0f);
  KvPool::DequantizeBlock(cpu, 0, back, 1);
  for (int64_t slot = 0; slot < back.block_size(); ++slot) {
    const float* p = back.TokenData(1, 0, 0, slot);
    for (int64_t i = 0; i < back.num_kv_heads() * back.head_dim(); ++i) {
      EXPECT_EQ(p[i], 0.0f);
    }
  }
}

TEST(KvQuantTest, DenormalAmaxFlushesToZeroOrStaysFinite) {
  KvPool gpu = MakePool();
  KvPool cpu = MakePool();
  KvPool back = MakePool();
  const int64_t ts = gpu.num_kv_heads() * gpu.head_dim();
  std::vector<float> k(static_cast<size_t>(ts), 1e-44f);  // deep denormal
  std::vector<float> v(static_cast<size_t>(ts), -1e-44f);
  gpu.WriteToken(0, 0, 0, k.data(), v.data());
  KvPool::QuantizeBlock(gpu, 0, cpu, 0);
  KvPool::DequantizeBlock(cpu, 0, back, 0);
  for (int64_t slot = 0; slot < back.block_size(); ++slot) {
    for (int kv = 0; kv < 2; ++kv) {
      const float* p = back.TokenData(0, 0, kv, slot);
      for (int64_t i = 0; i < ts; ++i) {
        EXPECT_TRUE(std::isfinite(p[i]));
        EXPECT_LE(std::fabs(p[i]), 1e-40f);
      }
    }
  }
}

TEST(KvQuantTest, AmaxEndpointsMapToFullRange) {
  KvPool gpu = MakePool();
  KvPool cpu = MakePool();
  KvPool back = MakePool();
  const int64_t ts = gpu.num_kv_heads() * gpu.head_dim();
  const float amax = 7.5f;
  std::vector<float> k(static_cast<size_t>(ts), 0.0f);
  std::vector<float> v(static_cast<size_t>(ts), 0.0f);
  k[0] = amax;
  v[0] = -amax;
  gpu.WriteToken(0, 1, 2, k.data(), v.data());
  KvPool::QuantizeBlock(gpu, 0, cpu, 0);
  EXPECT_NEAR(cpu.BlockScale(0), amax / 127.0f, amax * 1e-6f);
  KvPool::DequantizeBlock(cpu, 0, back, 0);
  EXPECT_NEAR(back.TokenData(0, 1, 0, 2)[0], amax, amax * 1e-5f);
  EXPECT_NEAR(back.TokenData(0, 1, 1, 2)[0], -amax, amax * 1e-5f);
}

TEST(KvQuantTest, DequantizeOfUnquantizedBlockIsPlainCopy) {
  KvPool a = MakePool();
  KvPool b = MakePool();
  const std::vector<float> original = FillBlock(&a, 3, 1.0f);
  KvPool::DequantizeBlock(a, 3, b, 0);
  EXPECT_FALSE(b.BlockQuantized(0));
  EXPECT_EQ(0, std::memcmp(a.TokenData(3, 0, 0, 0), b.TokenData(0, 0, 0, 0),
                           sizeof(float)));
  EXPECT_EQ(a.BlockChecksum(3), b.BlockChecksum(0));
}

TEST(KvQuantTest, ChecksumCoversQuantizedBytesAndScale) {
  KvPool gpu = MakePool();
  KvPool cpu = MakePool(6);
  FillBlock(&gpu, 0, 0.5f);
  KvPool::QuantizeBlock(gpu, 0, cpu, 0);
  const uint32_t sum = cpu.BlockChecksum(0);
  // Stable across a metadata-preserving copy (the flash demote/promote
  // path): same payload + same scale -> same checksum.
  KvPool::CopyBlock(cpu, 0, cpu, 1);
  EXPECT_TRUE(cpu.BlockQuantized(1));
  EXPECT_EQ(cpu.BlockScale(1), cpu.BlockScale(0));
  EXPECT_EQ(cpu.BlockChecksum(1), sum);
  // A payload bit flip lands inside the hashed int8 bytes.
  cpu.CorruptBlock(1);
  EXPECT_NE(cpu.BlockChecksum(1), sum);
  // Same payload with a different scale must not collide either.
  KvPool::CopyBlock(cpu, 0, cpu, 2);
  FillBlock(&gpu, 1, 2.0f);
  KvPool::QuantizeBlock(gpu, 1, cpu, 3);
  EXPECT_NE(cpu.BlockChecksum(3), sum);
}

// --- TwoTierKvCache with kv_quant --------------------------------------------

KvCacheConfig QuantNumericConfig(int64_t gpu_blocks = 8, int64_t cpu_blocks = 8) {
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = gpu_blocks;
  config.num_cpu_blocks = cpu_blocks;
  config.numeric = true;
  config.num_layers = 2;
  config.num_kv_heads = 2;
  config.head_dim = 4;
  config.kv_quant = true;
  return config;
}

TEST(KvQuantCacheTest, SwapOutQuantizesAndSwapInRestores) {
  TwoTierKvCache cache(QuantNumericConfig());
  std::vector<ContextState::SlotRef> slots;
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, &slots).ok());
  std::vector<float> k(8, 3.0f);
  std::vector<float> v(8, -4.0f);
  cache.gpu_pool()->WriteToken(slots[2].block, 1, slots[2].slot, k.data(),
                               v.data());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  const BlockId cpu_block = cache.Find(1)->chunk(0).cpu_block;
  EXPECT_TRUE(cache.cpu_pool()->BlockQuantized(cpu_block));
  EXPECT_EQ(cache.counters().quantized_blocks, 1);
  EXPECT_GT(cache.counters().quant_bytes_saved, 0);
  EXPECT_TRUE(cache.VerifyCpuChecksum(1, 0).ok());
  ASSERT_TRUE(cache.ReclaimGpu(1, 0).ok());
  ASSERT_TRUE(cache.SwapIn(1, 0).ok());
  const BlockId gpu_block = cache.Find(1)->chunk(0).gpu_block;
  EXPECT_FALSE(cache.gpu_pool()->BlockQuantized(gpu_block));
  // amax = 4, scale = 4/127: written values return within half a step.
  const float tol = 0.5f * 4.0f / 127.0f * 1.01f;
  EXPECT_NEAR(cache.gpu_pool()->TokenData(gpu_block, 1, 0, 2)[0], 3.0f, tol);
  EXPECT_NEAR(cache.gpu_pool()->TokenData(gpu_block, 1, 1, 2)[7], -4.0f, tol);
  cache.CheckInvariants();
}

TEST(KvQuantCacheTest, CorruptQuantizedCopyDegradesToRecompute) {
  TwoTierKvCache cache(QuantNumericConfig());
  std::vector<ContextState::SlotRef> slots;
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, &slots).ok());
  std::vector<float> k(8, 1.0f);
  std::vector<float> v(8, 2.0f);
  cache.gpu_pool()->WriteToken(slots[0].block, 0, slots[0].slot, k.data(),
                               v.data());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.ReclaimGpu(1, 0).ok());
  // Flip a bit of the int8 payload behind the cache's back: the checksum
  // over quantized bytes must catch it and the swap-in must refuse.
  cache.cpu_pool()->CorruptBlock(cache.Find(1)->chunk(0).cpu_block);
  EXPECT_EQ(cache.VerifyCpuChecksum(1, 0).code(), StatusCode::kDataLoss);
  EXPECT_EQ(cache.SwapIn(1, 0).code(), StatusCode::kDataLoss);
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kCpu);
  // Degradation path: drop the poisoned chunk and restore a fresh block for
  // recomputation — exactly what the engine's fault handling does.
  ASSERT_TRUE(cache.DropChunk(1, 0).ok());
  ASSERT_TRUE(cache.RestoreDropped(1, 0).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kGpu);
  cache.CheckInvariants();
}

TEST(KvQuantCacheTest, CompressedBytesScaleCpuCapacity) {
  // Capacity accounting in compressed bytes: the same byte budget holds
  // raw/quant times more blocks. With the fp16 substrate ratio this is ~2x
  // and must clear the 1.8x the paper-scale configs rely on.
  const ModelConfig model = Opt13BConfig();
  const int64_t block_size = 16;
  KvCacheConfig config = QuantNumericConfig(/*gpu_blocks=*/4, /*cpu_blocks=*/10);
  config.kv_raw_block_bytes = block_size * model.KvBytesPerTokenPerGpu();
  config.kv_quant_block_bytes =
      block_size * model.KvQuantBytesPerTokenPerGpu() +
      static_cast<int64_t>(sizeof(float));
  const double ratio = static_cast<double>(config.kv_raw_block_bytes) /
                       static_cast<double>(config.kv_quant_block_bytes);
  EXPECT_GE(ratio, 1.8);
  TwoTierKvCache cache(config);
  // GPU tier is never compressed; CPU tier stores quantized blocks.
  EXPECT_EQ(cache.gpu_pool()->num_blocks(), 4);
  EXPECT_EQ(cache.cpu_pool()->num_blocks(),
            10 * config.kv_raw_block_bytes / config.kv_quant_block_bytes);
  EXPECT_GE(cache.cpu_pool()->num_blocks(), 18);  // >= 1.8x the fp16 budget
}

TEST(KvQuantCacheTest, QuantOffConfigUnchanged) {
  KvCacheConfig config = QuantNumericConfig();
  config.kv_quant = false;
  config.kv_raw_block_bytes = 4096;
  config.kv_quant_block_bytes = 2052;
  TwoTierKvCache cache(config);
  EXPECT_EQ(cache.cpu_pool()->num_blocks(), 8);
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  EXPECT_FALSE(
      cache.cpu_pool()->BlockQuantized(cache.Find(1)->chunk(0).cpu_block));
  EXPECT_EQ(cache.counters().quantized_blocks, 0);
  EXPECT_EQ(cache.counters().quant_bytes_saved, 0);
}

}  // namespace
}  // namespace pensieve
