// Bit-for-bit determinism of the parallel compute layer across thread
// counts (the tentpole contract of the intra-op thread pool).
//
// Every parallel loop in src/kernels, src/tensor and src/model partitions
// only iteration spaces whose per-index floating-point reduction order is
// independent of chunk boundaries (one (query token, head) pair, one output
// row, one element). These tests run the same inputs at threads ∈ {1, 2, 8}
// and require byte-identical outputs — not approximately equal: identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/experiment.h"
#include "src/kernels/attention.h"
#include "src/kvcache/kv_pool.h"
#include "src/model/model_config.h"
#include "src/model/transformer.h"
#include "src/sim/hardware.h"
#include "src/tensor/ops.h"
#include "src/tensor/packed_matrix.h"
#include "src/workload/dataset.h"
#include "tests/numeric_test_util.h"

namespace pensieve {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

class ThreadDeterminismTest : public ::testing::Test {
 protected:
  // Every test restores the default pool so suites sharing the binary are
  // unaffected.
  void TearDown() override { ThreadPool::SetGlobalThreads(0); }
};

bool BytesEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Runs fn once per thread count and checks all outputs equal the first.
void ExpectIdenticalAcrossThreadCounts(
    const std::function<Tensor()>& fn, const char* label) {
  ThreadPool::SetGlobalThreads(kThreadCounts[0]);
  const Tensor reference = fn();
  for (size_t i = 1; i < std::size(kThreadCounts); ++i) {
    ThreadPool::SetGlobalThreads(kThreadCounts[i]);
    const Tensor got = fn();
    EXPECT_TRUE(BytesEqual(reference, got))
        << label << ": output at " << kThreadCounts[i]
        << " threads differs from single-threaded run";
  }
}

// Ragged multi-request attention workload over shuffled (non-contiguous)
// block tables, with GQA (4 query heads, 2 KV heads) and a head_dim that
// exercises the unrolled Dot's tail (10 = 2*4 + 2).
struct AttentionWorkload {
  static constexpr int64_t kNumHeads = 4;
  static constexpr int64_t kNumKvHeads = 2;
  static constexpr int64_t kHeadDim = 10;
  static constexpr int64_t kBlockSize = 8;

  AttentionWorkload()
      : pool(64, kBlockSize, /*num_layers=*/1, kNumKvHeads, kHeadDim) {
    const std::vector<std::pair<int64_t, int64_t>> shapes = {
        // (query_len, context_len): decode, short prefill, long ragged mixes.
        {1, 33}, {5, 5}, {7, 41}, {1, 17}, {12, 29}};
    tables.reserve(shapes.size());  // subs hold pointers into tables
    int64_t next_block = 0;
    int64_t query_rows = 0;
    for (const auto& [query_len, context_len] : shapes) {
      query_rows += query_len;
    }
    query = Tensor({query_rows, kNumHeads, kHeadDim});
    out = Tensor({query_rows, kNumHeads, kHeadDim});
    FillNormal(query, 91, 1.0f);
    int64_t row = 0;
    for (const auto& [query_len, context_len] : shapes) {
      const int64_t blocks = (context_len + kBlockSize - 1) / kBlockSize;
      tables.emplace_back();
      std::vector<BlockId>& table = tables.back();
      for (int64_t b = 0; b < blocks; ++b) {
        table.push_back(static_cast<BlockId>(next_block++));
      }
      // Reverse so the context is non-contiguous in pool order.
      std::reverse(table.begin(), table.end());
      for (int64_t pos = 0; pos < context_len; ++pos) {
        Tensor k({kNumKvHeads, kHeadDim});
        Tensor v({kNumKvHeads, kHeadDim});
        FillNormal(k, static_cast<uint64_t>(next_block * 1000 + pos * 2 + 1), 1.0f);
        FillNormal(v, static_cast<uint64_t>(next_block * 1000 + pos * 2 + 2), 1.0f);
        pool.WriteToken(table[static_cast<size_t>(pos / kBlockSize)], 0,
                        pos % kBlockSize, k.data(), v.data());
      }
      subs.push_back({row, query_len, context_len, &table});
      row += query_len;
    }
  }

  KvPool pool;
  Tensor query;
  Tensor out;
  std::vector<std::vector<BlockId>> tables;
  std::vector<AttentionSubRequest> subs;
};

TEST_F(ThreadDeterminismTest, MultiTokenPagedAttention) {
  AttentionWorkload w;
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        MultiTokenPagedAttention(w.pool, 0, w.query, w.subs, 0.3f, &w.out);
        return w.out;
      },
      "MultiTokenPagedAttention");
}

TEST_F(ThreadDeterminismTest, CopyOutPagedAttention) {
  AttentionWorkload w;
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        CopyOutPagedAttention(w.pool, 0, w.query, w.subs, 0.3f, &w.out);
        return w.out;
      },
      "CopyOutPagedAttention");
}

TEST_F(ThreadDeterminismTest, MultiRoundPagedAttention) {
  AttentionWorkload w;
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        MultiRoundPagedAttention(w.pool, 0, w.query, w.subs, 0.3f, &w.out);
        return w.out;
      },
      "MultiRoundPagedAttention");
}

TEST_F(ThreadDeterminismTest, NaiveMaskedAttention) {
  AttentionWorkload w;
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        NaiveMaskedAttention(w.pool, 0, w.query, w.subs, 0.3f, &w.out);
        return w.out;
      },
      "NaiveMaskedAttention");
}

TEST_F(ThreadDeterminismTest, ContiguousAttention) {
  const int64_t num_heads = 4, num_kv_heads = 2, head_dim = 10;
  Tensor query({9, num_heads, head_dim});
  Tensor out({9, num_heads, head_dim});
  FillNormal(query, 7, 1.0f);
  Tensor keys1({21, num_kv_heads, head_dim}), values1({21, num_kv_heads, head_dim});
  Tensor keys2({6, num_kv_heads, head_dim}), values2({6, num_kv_heads, head_dim});
  FillNormal(keys1, 8, 1.0f);
  FillNormal(values1, 9, 1.0f);
  FillNormal(keys2, 10, 1.0f);
  FillNormal(values2, 11, 1.0f);
  const std::vector<ContiguousAttentionRequest> reqs = {
      {0, 4, &keys1, &values1}, {4, 5, &keys2, &values2}};
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        ContiguousAttention(query, reqs, 0.3f, &out);
        return out;
      },
      "ContiguousAttention");
}

TEST_F(ThreadDeterminismTest, DenseOps) {
  Tensor a({37, 53});
  Tensor b({53, 29});
  Tensor bt({29, 53});
  Tensor gain({53}), bias({53});
  FillNormal(a, 1, 1.0f);
  FillNormal(b, 2, 1.0f);
  FillNormal(bt, 3, 1.0f);
  FillNormal(gain, 4, 1.0f);
  FillNormal(bias, 5, 1.0f);
  ExpectIdenticalAcrossThreadCounts([&] { return MatMul(a, b); }, "MatMul");
  ExpectIdenticalAcrossThreadCounts([&] { return MatMulTransposedB(a, bt); },
                                    "MatMulTransposedB");
  // m <= 8 takes MatMulTransposedB's column-partitioned decode path.
  Tensor a1({1, 53});
  FillNormal(a1, 12, 1.0f);
  ExpectIdenticalAcrossThreadCounts([&] { return MatMulTransposedB(a1, bt); },
                                    "MatMulTransposedB(m=1)");
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        Tensor out(a.shape());
        LayerNormInto(a, gain, bias, 1e-5f, &out);
        return out;
      },
      "LayerNormInto");
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        Tensor out(a.shape());
        RmsNormInto(a, gain, 1e-5f, &out);
        return out;
      },
      "RmsNormInto");
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        Tensor x = a;
        SoftmaxRowsInPlace(x);
        return x;
      },
      "SoftmaxRowsInPlace");
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        Tensor x = a;
        SiluInPlace(x);
        AddBiasInPlace(x, gain);
        return x;
      },
      "SiluInPlace+AddBiasInPlace");
  std::vector<int64_t> positions(37);
  std::iota(positions.begin(), positions.end(), 3);
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        Tensor x({37, 2, 10});
        FillNormal(x, 6, 1.0f);
        ApplyRotaryInPlace(x, positions, 10000.0f);
        return x;
      },
      "ApplyRotaryInPlace");
}

// The packed GEMM's two partitioning strategies — row-blocks for large m,
// output panels for the decode GEMV path — must both be bit-stable across
// thread counts, and bit-identical to each other for the same row. Shapes
// straddle the kKC = 512 cache block and leave remainder tiles on both axes.
TEST_F(ThreadDeterminismTest, PackedGemm) {
  Tensor w({130, 515});
  FillNormal(w, 21, 1.0f);
  const PackedMatrix packed(w);
  Tensor big({37, 515});
  FillNormal(big, 22, 1.0f);
  ExpectIdenticalAcrossThreadCounts([&] { return PackedProduct(big, packed); },
                                    "MatMulPackedInto(row path)");
  Tensor one({1, 515});
  FillNormal(one, 23, 1.0f);
  ExpectIdenticalAcrossThreadCounts([&] { return PackedProduct(one, packed); },
                                    "MatMulPackedInto(GEMV path)");
  // Cross-path: a single row computed by the GEMV path must equal the same
  // row inside a batch computed by the row path, at every thread count.
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    const Tensor batch = PackedProduct(big, packed);
    const Tensor row = PackedProduct(RowSlice(big, 7, 8), packed);
    EXPECT_EQ(0, std::memcmp(batch.data() + 7 * w.dim(0), row.data(),
                             static_cast<size_t>(w.dim(0)) * sizeof(float)))
        << "GEMV path diverges from row path at " << threads << " threads";
  }
}

// A ForwardInto that reuses its logits tensor and the model's arena (the
// allocation-free serving path) must be as thread-stable as a first pass,
// including on a second pass.
TEST_F(ThreadDeterminismTest, WorkspaceForwardInto) {
  ModelConfig config;
  config.name = "tiny";
  config.num_layers = 2;
  config.hidden_size = 24;
  config.num_heads = 4;
  config.num_kv_heads = 2;
  config.head_dim = 6;
  config.ffn_hidden = 48;
  config.vocab_size = 50;
  config.activation = Activation::kSilu;
  config.norm = NormKind::kRmsNorm;
  config.pos_embedding = PositionEmbedding::kRotary;
  config.gated_ffn = true;
  config.qkv_bias = false;
  Tensor logits;
  ExpectIdenticalAcrossThreadCounts(
      [&] {
        // Built per run: the weights are drawn concurrently, one task each.
        const Transformer model(config, /*seed=*/321);
        KvPool pool(8, /*block_size=*/4, config.num_layers, config.num_kv_heads,
                    config.head_dim);
        const std::vector<BlockId> table = {0, 1};
        ForwardBatch batch;
        for (int64_t t = 0; t < 5; ++t) {
          batch.tokens.push_back(static_cast<int32_t>(t + 1));
          batch.positions.push_back(t);
          batch.kv_slots.push_back({table[static_cast<size_t>(t / 4)], t % 4});
        }
        batch.subs.push_back({0, 5, 5, &table});
        batch.logit_rows = {4};
        for (int pass = 0; pass < 2; ++pass) {
          model.ForwardInto(&pool, batch, &logits);
        }
        return logits;
      },
      "Transformer::ForwardInto");
}

// End-to-end: a full transformer forward (mixed prefill + decode batch,
// rotary + RMSNorm + gated FFN to cover the Llama-style ops) must produce
// byte-identical logits and KV cache for every thread count.
TEST_F(ThreadDeterminismTest, TransformerForward) {
  ModelConfig config;
  config.name = "tiny";
  config.num_layers = 2;
  config.hidden_size = 24;
  config.num_heads = 4;
  config.num_kv_heads = 2;
  config.head_dim = 6;
  config.ffn_hidden = 48;
  config.vocab_size = 50;
  config.activation = Activation::kSilu;
  config.norm = NormKind::kRmsNorm;
  config.pos_embedding = PositionEmbedding::kRotary;
  config.gated_ffn = true;
  config.qkv_bias = false;
  auto run = [&] {
    // Built per run: the weights are drawn concurrently, one task each.
    const Transformer model(config, /*seed=*/123);
    KvPool pool(8, /*block_size=*/4, config.num_layers, config.num_kv_heads,
                config.head_dim);
    ForwardBatch batch;
    // Request A: 6-token prefill; request B: single decode token with a
    // 3-token history already in the cache.
    const std::vector<BlockId> table_a = {0, 1};
    const std::vector<BlockId> table_b = {2};
    for (int64_t t = 0; t < 6; ++t) {
      batch.tokens.push_back(static_cast<int32_t>(t + 1));
      batch.positions.push_back(t);
      batch.kv_slots.push_back({table_a[static_cast<size_t>(t / 4)], t % 4});
    }
    for (int64_t l = 0; l < config.num_layers; ++l) {
      for (int64_t pos = 0; pos < 3; ++pos) {
        Tensor k({config.num_kv_heads, config.head_dim});
        Tensor v({config.num_kv_heads, config.head_dim});
        FillNormal(k, static_cast<uint64_t>(l * 100 + pos * 2 + 40), 1.0f);
        FillNormal(v, static_cast<uint64_t>(l * 100 + pos * 2 + 41), 1.0f);
        pool.WriteToken(table_b[0], l, pos, k.data(), v.data());
      }
    }
    batch.tokens.push_back(7);
    batch.positions.push_back(3);
    batch.kv_slots.push_back({table_b[0], 3});
    batch.subs.push_back({0, 6, 6, &table_a});
    batch.subs.push_back({6, 1, 4, &table_b});
    batch.logit_rows = {5, 6};
    return ForwardLogits(model, &pool, batch);
  };
  ExpectIdenticalAcrossThreadCounts(run, "Transformer::ForwardInto (fresh logits)");
}

// RateSweep runs its points on the pool; the printed table must not depend
// on how many run at once.
TEST_F(ThreadDeterminismTest, RateSweepPrintsIdenticallyAtAnyThreadCount) {
  const GpuCostModel model(Opt13BConfig(), A100Spec(1));
  SweepOptions options;
  options.num_conversations = 24;
  options.target_arrival_span = 0.0;
  options.mean_think_time = 5.0;
  options.overrides.cache_scale = 0.2;
  const std::vector<double> rates = {0.5, 1.0, 2.0, 4.0, 8.0};
  std::vector<std::string> printed;
  for (int threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    const std::vector<SweepPoint> points =
        RateSweep(SystemKind::kPensieve, model, ShareGptProfile(), rates, options);
    testing::internal::CaptureStdout();
    PrintSweep("sweep", points);
    std::fflush(stdout);
    printed.push_back(testing::internal::GetCapturedStdout());
  }
  EXPECT_EQ(printed[0], printed[1]);
  EXPECT_NE(printed[0].find("8.000"), std::string::npos);
}

}  // namespace
}  // namespace pensieve
