// Tests for the reference transformer over the paged KV pool (src/model).

#include <gtest/gtest.h>

#include "src/kvcache/kv_pool.h"
#include "src/model/model_config.h"
#include "src/model/transformer.h"
#include "src/tensor/tensor.h"
#include "tests/numeric_test_util.h"

namespace pensieve {
namespace {

// --- ModelConfig (paper Table 1) ---------------------------------------------

TEST(ModelConfigTest, Table1Presets) {
  ModelConfig opt13 = Opt13BConfig();
  EXPECT_EQ(opt13.num_layers, 40);
  EXPECT_EQ(opt13.hidden_size, 5120);
  EXPECT_EQ(opt13.num_heads, 40);
  EXPECT_EQ(opt13.num_kv_heads, 40);
  EXPECT_EQ(opt13.head_dim, 128);
  EXPECT_EQ(opt13.num_gpus, 1);

  ModelConfig opt66 = Opt66BConfig();
  EXPECT_EQ(opt66.num_layers, 64);
  EXPECT_EQ(opt66.hidden_size, 9216);
  EXPECT_EQ(opt66.num_heads, 72);
  EXPECT_EQ(opt66.num_kv_heads, 72);
  EXPECT_EQ(opt66.num_gpus, 4);

  ModelConfig llama13 = Llama2_13BConfig();
  EXPECT_EQ(llama13.num_layers, 40);
  EXPECT_EQ(llama13.hidden_size, 5120);
  EXPECT_EQ(llama13.num_kv_heads, 10);  // paper's GQA modification
  EXPECT_EQ(llama13.GqaGroupSize(), 4);

  ModelConfig llama70 = Llama2_70BConfig();
  EXPECT_EQ(llama70.num_layers, 80);
  EXPECT_EQ(llama70.hidden_size, 8192);
  EXPECT_EQ(llama70.num_kv_heads, 8);
  EXPECT_EQ(llama70.GqaGroupSize(), 8);
  EXPECT_EQ(llama70.num_gpus, 4);
}

TEST(ModelConfigTest, KvBytesMatchesPaperExample) {
  // Paper §3.2: a 13B GPT-3-like model stores 2 * 40 * 5120 * 2 B = 0.78 MB
  // per KV token.
  EXPECT_EQ(Opt13BConfig().KvBytesPerToken(), 2LL * 40 * 5120 * 2);
}

TEST(ModelConfigTest, GqaReducesKvBytes) {
  // Llama 2-13B with GQA group 4 needs 4x less KV memory than OPT-13B
  // (same layers/hidden/head size).
  EXPECT_EQ(Opt13BConfig().KvBytesPerToken() / Llama2_13BConfig().KvBytesPerToken(), 4);
  // Llama 2-70B uses GQA group 8.
  ModelConfig llama70 = Llama2_70BConfig();
  EXPECT_EQ(llama70.KvBytesPerToken(),
            2 * llama70.num_layers * 8 * 128 * 2);
}

TEST(ModelConfigTest, KvCacheGrowthRatioOpt13ToOpt66) {
  // Paper §6.3: OPT-13B -> OPT-66B grows KV size per token by 2.88x
  // (# layer x # hidden doubles disproportionately to compute).
  const double ratio = static_cast<double>(Opt66BConfig().KvBytesPerToken()) /
                       static_cast<double>(Opt13BConfig().KvBytesPerToken());
  EXPECT_NEAR(ratio, 2.88, 0.01);
}

TEST(ModelConfigTest, LookupByName) {
  ModelConfig c;
  EXPECT_TRUE(ModelConfigByName("opt-66b", &c));
  EXPECT_EQ(c.name, "opt-66b");
  EXPECT_TRUE(ModelConfigByName("tiny-llama", &c));
  EXPECT_EQ(c.num_kv_heads, 2);
  EXPECT_FALSE(ModelConfigByName("gpt-5", &c));
}

TEST(ModelConfigTest, ParamCountsRoughlyMatchNames) {
  EXPECT_NEAR(static_cast<double>(Opt13BConfig().ApproxParamCount()), 13e9, 2e9);
  EXPECT_NEAR(static_cast<double>(Opt66BConfig().ApproxParamCount()), 66e9, 8e9);
  EXPECT_NEAR(static_cast<double>(Llama2_13BConfig().ApproxParamCount()), 13e9, 2e9);
  EXPECT_NEAR(static_cast<double>(Llama2_70BConfig().ApproxParamCount()), 70e9, 8e9);
}

// --- Transformer forward ------------------------------------------------------

class TransformerForwardTest : public ::testing::TestWithParam<const char*> {
 protected:
  ModelConfig Config() const {
    ModelConfig config;
    EXPECT_TRUE(ModelConfigByName(GetParam(), &config));
    return config;
  }
};

// Helper: run a full prefill of `tokens` in one batch and return the logits
// of the final token.
Tensor FullPrefillLogits(const Transformer& model, KvPool* pool,
                         const std::vector<int32_t>& tokens,
                         const std::vector<BlockId>& table) {
  ForwardBatch batch;
  const int64_t n = static_cast<int64_t>(tokens.size());
  for (int64_t i = 0; i < n; ++i) {
    batch.tokens.push_back(tokens[static_cast<size_t>(i)]);
    batch.positions.push_back(i);
    batch.kv_slots.push_back({table[static_cast<size_t>(i / pool->block_size())],
                              i % pool->block_size()});
  }
  batch.subs.push_back({0, n, n, &table});
  batch.logit_rows.push_back(n - 1);
  return ForwardLogits(model, pool, batch);
}

TEST_P(TransformerForwardTest, DeterministicAcrossInstances) {
  ModelConfig config = Config();
  Transformer a(config, 7);
  Transformer b(config, 7);
  KvPool pool_a(4, 8, config.num_layers, config.num_kv_heads, config.head_dim);
  KvPool pool_b(4, 8, config.num_layers, config.num_kv_heads, config.head_dim);
  std::vector<BlockId> table = {0, 1, 2, 3};
  std::vector<int32_t> tokens = {5, 9, 13, 2, 88, 17};
  Tensor la = FullPrefillLogits(a, &pool_a, tokens, table);
  Tensor lb = FullPrefillLogits(b, &pool_b, tokens, table);
  EXPECT_FLOAT_EQ(MaxAbsDiff(la, lb), 0.0f);
}

TEST_P(TransformerForwardTest, DifferentSeedsGiveDifferentModels) {
  ModelConfig config = Config();
  Transformer a(config, 7);
  Transformer b(config, 8);
  KvPool pool_a(2, 8, config.num_layers, config.num_kv_heads, config.head_dim);
  KvPool pool_b(2, 8, config.num_layers, config.num_kv_heads, config.head_dim);
  std::vector<BlockId> table = {0, 1};
  std::vector<int32_t> tokens = {1, 2, 3};
  Tensor la = FullPrefillLogits(a, &pool_a, tokens, table);
  Tensor lb = FullPrefillLogits(b, &pool_b, tokens, table);
  EXPECT_GT(MaxAbsDiff(la, lb), 1e-3f);
}

TEST_P(TransformerForwardTest, IncrementalDecodeMatchesFullPrefill) {
  // The KV-cache property: prefill of [t0..t5] then decoding must give the
  // same logits as a longer prefill — here we check that processing the
  // last token incrementally (against cached context) equals processing
  // everything at once.
  ModelConfig config = Config();
  Transformer model(config, 21);
  std::vector<int32_t> tokens = {3, 14, 15, 92, 65, 35, 89, 79, 32};
  const int64_t n = static_cast<int64_t>(tokens.size());
  const int64_t block_size = 4;
  std::vector<BlockId> table = {0, 1, 2};

  // (a) One-shot prefill.
  KvPool pool_full(3, block_size, config.num_layers, config.num_kv_heads,
                   config.head_dim);
  Tensor full = FullPrefillLogits(model, &pool_full, tokens, table);

  // (b) Prefill of n-1 tokens, then a single-token decode step.
  KvPool pool_inc(3, block_size, config.num_layers, config.num_kv_heads,
                  config.head_dim);
  {
    ForwardBatch prefill;
    for (int64_t i = 0; i < n - 1; ++i) {
      prefill.tokens.push_back(tokens[static_cast<size_t>(i)]);
      prefill.positions.push_back(i);
      prefill.kv_slots.push_back({table[static_cast<size_t>(i / block_size)],
                                  i % block_size});
    }
    prefill.subs.push_back({0, n - 1, n - 1, &table});
    prefill.logit_rows.push_back(n - 2);
    ForwardLogits(model, &pool_inc, prefill);
  }
  ForwardBatch decode;
  decode.tokens.push_back(tokens[static_cast<size_t>(n - 1)]);
  decode.positions.push_back(n - 1);
  decode.kv_slots.push_back({table[static_cast<size_t>((n - 1) / block_size)],
                             (n - 1) % block_size});
  decode.subs.push_back({0, 1, n, &table});
  decode.logit_rows.push_back(0);
  Tensor incremental = ForwardLogits(model, &pool_inc, decode);

  EXPECT_LT(MaxAbsDiff(full, incremental), 2e-3f);
  EXPECT_EQ(Transformer::Greedy(full, 0), Transformer::Greedy(incremental, 0));
}

TEST_P(TransformerForwardTest, UnifiedBatchMatchesSeparateExecution) {
  // Two requests in one unified batch (one prefilling, one decoding) must
  // produce the same logits as running them in separate batches.
  ModelConfig config = Config();
  Transformer model(config, 33);
  const int64_t block_size = 4;

  // Request A: prefill 5 tokens. Request B: decode its 4th token.
  std::vector<int32_t> a_tokens = {10, 20, 30, 40, 50};
  std::vector<int32_t> b_history = {7, 8, 9};
  const int32_t b_next = 11;

  auto run = [&](bool unified) {
    KvPool pool(6, block_size, config.num_layers, config.num_kv_heads,
                config.head_dim);
    std::vector<BlockId> table_a = {0, 1};
    std::vector<BlockId> table_b = {2, 3};
    // Pre-populate B's history.
    {
      ForwardBatch warm;
      for (int64_t i = 0; i < 3; ++i) {
        warm.tokens.push_back(b_history[static_cast<size_t>(i)]);
        warm.positions.push_back(i);
        warm.kv_slots.push_back({table_b[static_cast<size_t>(i / block_size)],
                                 i % block_size});
      }
      warm.subs.push_back({0, 3, 3, &table_b});
      warm.logit_rows.push_back(2);
      ForwardLogits(model, &pool, warm);
    }
    if (unified) {
      ForwardBatch batch;
      for (int64_t i = 0; i < 5; ++i) {
        batch.tokens.push_back(a_tokens[static_cast<size_t>(i)]);
        batch.positions.push_back(i);
        batch.kv_slots.push_back({table_a[static_cast<size_t>(i / block_size)],
                                  i % block_size});
      }
      batch.tokens.push_back(b_next);
      batch.positions.push_back(3);
      batch.kv_slots.push_back({table_b[0], 3});
      batch.subs.push_back({0, 5, 5, &table_a});
      batch.subs.push_back({5, 1, 4, &table_b});
      batch.logit_rows.push_back(4);  // A's last token
      batch.logit_rows.push_back(5);  // B's decode token
      return ForwardLogits(model, &pool, batch);
    }
    // Separate: A prefill, then B decode; stitch the logits together.
    ForwardBatch a;
    for (int64_t i = 0; i < 5; ++i) {
      a.tokens.push_back(a_tokens[static_cast<size_t>(i)]);
      a.positions.push_back(i);
      a.kv_slots.push_back({table_a[static_cast<size_t>(i / block_size)],
                            i % block_size});
    }
    a.subs.push_back({0, 5, 5, &table_a});
    a.logit_rows.push_back(4);
    Tensor la = ForwardLogits(model, &pool, a);

    ForwardBatch b;
    b.tokens.push_back(b_next);
    b.positions.push_back(3);
    b.kv_slots.push_back({table_b[0], 3});
    b.subs.push_back({0, 1, 4, &table_b});
    b.logit_rows.push_back(0);
    Tensor lb = ForwardLogits(model, &pool, b);

    Tensor stitched({2, la.dim(1)});
    for (int64_t j = 0; j < la.dim(1); ++j) {
      stitched.at({0, j}) = la.at({0, j});
      stitched.at({1, j}) = lb.at({0, j});
    }
    return stitched;
  };

  Tensor unified = run(true);
  Tensor separate = run(false);
  EXPECT_LT(MaxAbsDiff(unified, separate), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(Models, TransformerForwardTest,
                         ::testing::Values("tiny-opt", "tiny-llama"));

TEST(TransformerTest, GreedyPicksArgmax) {
  Tensor logits({2, 4}, {0.1f, 0.9f, 0.3f, 0.2f, 5.0f, 1.0f, 9.0f, 2.0f});
  EXPECT_EQ(Transformer::Greedy(logits, 0), 1);
  EXPECT_EQ(Transformer::Greedy(logits, 1), 2);
}

TEST(TransformerDeathTest, RejectsOutOfVocabToken) {
  ModelConfig config = TinyOptConfig();
  Transformer model(config, 3);
  KvPool pool(1, 8, config.num_layers, config.num_kv_heads, config.head_dim);
  std::vector<BlockId> table = {0};
  ForwardBatch batch;
  batch.tokens.push_back(static_cast<int32_t>(config.vocab_size));  // out of range
  batch.positions.push_back(0);
  batch.kv_slots.push_back({0, 0});
  batch.subs.push_back({0, 1, 1, &table});
  batch.logit_rows.push_back(0);
  EXPECT_DEATH(ForwardLogits(model, &pool, batch), "Check failed");
}

}  // namespace
}  // namespace pensieve
