// End-to-end numeric tests for the stateful serving API.
//
// The central property: Pensieve's stateful serving — with KV reuse, swaps
// and dropped-prefix recomputation — produces exactly the same tokens as
// stateless serving that reprocesses the full conversation from scratch at
// every turn. Greedy decode on the tiny presets tends to repeat the last
// prompt token whatever the context holds, so token equality alone cannot
// catch a wrong position or block table; the tests also require every KV
// row the server holds to match the reference bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "src/core/stateful_server.h"
#include "src/model/model_config.h"
#include "src/workload/dataset.h"

namespace pensieve {
namespace {

StatefulServerConfig TinyConfig(const ModelConfig& model, int64_t gpu_blocks = 64,
                                int64_t cpu_blocks = 128) {
  StatefulServerConfig config;
  config.model = model;
  config.block_size = 8;
  config.num_gpu_blocks = gpu_blocks;
  config.num_cpu_blocks = cpu_blocks;
  config.weight_seed = 99;
  return config;
}

std::vector<int32_t> MakePrompt(int64_t conv, int64_t start, int64_t len,
                                int32_t vocab) {
  std::vector<int32_t> prompt;
  prompt.reserve(static_cast<size_t>(len));
  for (int64_t i = 0; i < len; ++i) {
    prompt.push_back(SyntheticToken(conv, start + i, vocab));
  }
  return prompt;
}

// Bit patterns of every K and V row (all layers) of a conversation's
// attended context, shared prefix first, in position order. Every chunk must
// be GPU-resident.
std::vector<uint32_t> ContextKv(const StatefulLlmServer& server,
                                int64_t conversation_id, int64_t prefix_len = 0) {
  const KvPool& pool = *server.cache().gpu_pool();
  const std::vector<BlockId> table = server.GpuBlockTable(conversation_id);
  const int64_t num_tokens = prefix_len + server.cache().Find(conversation_id)->kv_len();
  const int64_t row = pool.num_kv_heads() * pool.head_dim();
  std::vector<uint32_t> bits;
  for (int64_t layer = 0; layer < pool.num_layers(); ++layer) {
    for (int kv = 0; kv < 2; ++kv) {
      for (int64_t pos = 0; pos < num_tokens; ++pos) {
        const float* data =
            pool.TokenData(table[static_cast<size_t>(pos / pool.block_size())], layer,
                           kv, pos % pool.block_size());
        const size_t old_size = bits.size();
        bits.resize(old_size + static_cast<size_t>(row));
        std::memcpy(bits.data() + old_size, data,
                    static_cast<size_t>(row) * sizeof(float));
      }
    }
  }
  return bits;
}

// Bitwise equality of two ContextKv dumps, naming the first differing word.
::testing::AssertionResult SameKv(const std::vector<uint32_t>& got,
                                  const std::vector<uint32_t>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "KV size " << got.size() << " != " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      float g = 0.0f;
      float w = 0.0f;
      std::memcpy(&g, &got[i], sizeof(g));
      std::memcpy(&w, &want[i], sizeof(w));
      return ::testing::AssertionFailure()
             << "KV word " << i << " of " << got.size() << ": " << g << " != " << w;
    }
  }
  return ::testing::AssertionSuccess();
}

// Outputs of a stateless reference, plus the KV it held after each turn.
struct Reference {
  std::vector<std::vector<int32_t>> outputs;
  std::vector<std::vector<uint32_t>> kv;
};

// Serves `turns` via a fresh stateless server per turn: each turn replays
// the full raw history as the prompt.
Reference StatelessReference(const ModelConfig& model,
                             const std::vector<std::vector<int32_t>>& prompts,
                             int64_t output_len) {
  Reference ref;
  std::vector<int32_t> history;
  for (const std::vector<int32_t>& prompt : prompts) {
    StatefulLlmServer fresh(TinyConfig(model, 256, 256));
    std::vector<int32_t> full_prompt = history;
    full_prompt.insert(full_prompt.end(), prompt.begin(), prompt.end());
    auto result = fresh.Chat(/*conversation_id=*/0, full_prompt, output_len);
    EXPECT_TRUE(result.ok()) << result.status();
    ref.outputs.push_back(result.value());
    ref.kv.push_back(ContextKv(fresh, 0));
    history = full_prompt;
    history.insert(history.end(), result.value().begin(), result.value().end());
  }
  return ref;
}

class EquivalenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  ModelConfig Model() const {
    ModelConfig model;
    EXPECT_TRUE(ModelConfigByName(GetParam(), &model));
    return model;
  }
};

TEST_P(EquivalenceTest, StatefulMatchesStatelessAcrossTurns) {
  const ModelConfig model = Model();
  const std::vector<std::vector<int32_t>> prompts = {
      MakePrompt(1, 0, 12, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(1, 100, 7, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(1, 200, 9, static_cast<int32_t>(model.vocab_size)),
  };
  const int64_t output_len = 6;
  const Reference ref = StatelessReference(model, prompts, output_len);

  StatefulLlmServer server(TinyConfig(model));
  for (size_t turn = 0; turn < prompts.size(); ++turn) {
    auto result = server.Chat(7, prompts[turn], output_len);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result.value(), ref.outputs[turn]) << "turn " << turn;
    EXPECT_TRUE(SameKv(ContextKv(server, 7), ref.kv[turn])) << "turn " << turn;
  }
}

TEST_P(EquivalenceTest, SwapToCpuBetweenTurnsPreservesOutputs) {
  const ModelConfig model = Model();
  const std::vector<std::vector<int32_t>> prompts = {
      MakePrompt(2, 0, 14, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(2, 50, 8, static_cast<int32_t>(model.vocab_size)),
  };
  const int64_t output_len = 5;
  const Reference ref = StatelessReference(model, prompts, output_len);

  StatefulLlmServer server(TinyConfig(model));
  auto t0 = server.Chat(3, prompts[0], output_len);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(t0.value(), ref.outputs[0]);
  EXPECT_TRUE(SameKv(ContextKv(server, 3), ref.kv[0]));
  // Force the whole conversation to the CPU tier; the next turn must swap
  // it back in and produce identical tokens.
  ASSERT_TRUE(server.SwapOutConversation(3).ok());
  EXPECT_EQ(server.cache().Find(3)->TokensOnGpu(), 0);
  auto t1 = server.Chat(3, prompts[1], output_len);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1.value(), ref.outputs[1]);
  EXPECT_TRUE(SameKv(ContextKv(server, 3), ref.kv[1]));
}

TEST_P(EquivalenceTest, DroppedPrefixRecomputationPreservesOutputs) {
  const ModelConfig model = Model();
  const std::vector<std::vector<int32_t>> prompts = {
      MakePrompt(4, 0, 20, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(4, 60, 6, static_cast<int32_t>(model.vocab_size)),
  };
  const int64_t output_len = 5;
  const Reference ref = StatelessReference(model, prompts, output_len);

  StatefulLlmServer server(TinyConfig(model));
  auto t0 = server.Chat(5, prompts[0], output_len);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(t0.value(), ref.outputs[0]);
  EXPECT_TRUE(SameKv(ContextKv(server, 5), ref.kv[0]));
  // Drop the first two chunks: turn 2 must recompute them from raw history
  // via the sub-request split and still match the stateless reference.
  ASSERT_TRUE(server.DropLeadingChunks(5, 2).ok());
  EXPECT_GT(server.cache().Find(5)->LeadingDroppedTokens(), 0);
  auto t1 = server.Chat(5, prompts[1], output_len);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1.value(), ref.outputs[1]);
  EXPECT_TRUE(SameKv(ContextKv(server, 5), ref.kv[1]));
}

TEST_P(EquivalenceTest, MixedSwapAndDropPreservesOutputs) {
  const ModelConfig model = Model();
  const std::vector<std::vector<int32_t>> prompts = {
      MakePrompt(6, 0, 24, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(6, 70, 5, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(6, 140, 7, static_cast<int32_t>(model.vocab_size)),
  };
  const int64_t output_len = 4;
  const Reference ref = StatelessReference(model, prompts, output_len);

  StatefulLlmServer server(TinyConfig(model));
  auto t0 = server.Chat(9, prompts[0], output_len);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(t0.value(), ref.outputs[0]);
  EXPECT_TRUE(SameKv(ContextKv(server, 9), ref.kv[0]));
  // Drop the first chunk, swap the rest to CPU.
  ASSERT_TRUE(server.DropLeadingChunks(9, 1).ok());
  ASSERT_TRUE(server.SwapOutConversation(9).ok());
  auto t1 = server.Chat(9, prompts[1], output_len);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1.value(), ref.outputs[1]);
  EXPECT_TRUE(SameKv(ContextKv(server, 9), ref.kv[1]));
  // And once more with only a swap.
  ASSERT_TRUE(server.SwapOutConversation(9).ok());
  auto t2 = server.Chat(9, prompts[2], output_len);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2.value(), ref.outputs[2]);
  EXPECT_TRUE(SameKv(ContextKv(server, 9), ref.kv[2]));
}

INSTANTIATE_TEST_SUITE_P(Models, EquivalenceTest,
                         ::testing::Values("tiny-opt", "tiny-llama"));

TEST(StatefulServerTest, HistoryTracksPromptsAndOutputs) {
  ModelConfig model = TinyOptConfig();
  StatefulLlmServer server(TinyConfig(model));
  auto prompt = MakePrompt(1, 0, 10, 128);
  auto result = server.Chat(1, prompt, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(server.History(1).size(), 14u);
  // KV covers everything except the pending final token.
  EXPECT_EQ(server.cache().Find(1)->kv_len(), 13);
}

TEST(StatefulServerTest, MultipleIndependentConversations) {
  ModelConfig model = TinyOptConfig();
  StatefulLlmServer server(TinyConfig(model));
  auto p1 = MakePrompt(1, 0, 10, 128);
  auto p2 = MakePrompt(2, 0, 10, 128);
  auto r1 = server.Chat(1, p1, 5);
  auto r2 = server.Chat(2, p2, 5);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Different prompts give different generations (overwhelmingly likely).
  EXPECT_NE(r1.value(), r2.value());
  // Conversation 1's second turn unaffected by conversation 2's existence.
  auto follow = server.Chat(1, MakePrompt(1, 50, 5, 128), 3);
  ASSERT_TRUE(follow.ok());
}

TEST(StatefulServerTest, EndConversationReleasesState) {
  ModelConfig model = TinyOptConfig();
  StatefulLlmServer server(TinyConfig(model));
  ASSERT_TRUE(server.Chat(1, MakePrompt(1, 0, 10, 128), 4).ok());
  EXPECT_GT(server.cache().gpu_allocator().num_allocated(), 0);
  server.EndConversation(1);
  EXPECT_EQ(server.cache().gpu_allocator().num_allocated(), 0);
  EXPECT_EQ(server.cache().Find(1), nullptr);
  EXPECT_TRUE(server.History(1).empty());
}

TEST(StatefulServerTest, RejectsBadArguments) {
  ModelConfig model = TinyOptConfig();
  StatefulLlmServer server(TinyConfig(model));
  EXPECT_EQ(server.Chat(1, {}, 4).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Chat(1, {3}, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.SwapOutConversation(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.DropLeadingChunks(42, 1).code(), StatusCode::kNotFound);
}

TEST(StatefulServerTest, EvictionUnderGpuPressureAcrossConversations) {
  // A GPU tier too small for all conversations forces the coordinator to
  // evict older conversations; everything must still serve correctly.
  ModelConfig model = TinyOptConfig();
  StatefulServerConfig config = TinyConfig(model, /*gpu_blocks=*/12,
                                           /*cpu_blocks=*/64);
  StatefulLlmServer server(config);
  for (int64_t conv = 1; conv <= 4; ++conv) {
    auto result = server.Chat(conv, MakePrompt(conv, 0, 16, 128), 6);
    ASSERT_TRUE(result.ok()) << "conv " << conv << ": " << result.status();
  }
  server.cache().CheckInvariants();
  // Revisit the first conversation (its chunks were likely evicted).
  auto result = server.Chat(1, MakePrompt(1, 99, 5, 128), 4);
  ASSERT_TRUE(result.ok()) << result.status();
  server.cache().CheckInvariants();
}

TEST(StatefulServerTest, DeterministicAcrossServerInstances) {
  ModelConfig model = TinyLlamaConfig();
  auto prompt = MakePrompt(8, 0, 12, 128);
  StatefulLlmServer a(TinyConfig(model));
  StatefulLlmServer b(TinyConfig(model));
  auto ra = a.Chat(1, prompt, 6);
  auto rb = b.Chat(1, prompt, 6);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value(), rb.value());
}


// --- Shared system prompts (paper footnote 3) --------------------------------

TEST(SharedPrefixTest, PrefixedConversationMatchesMonolithicComputation) {
  // Serving [system prompt ++ user prompt] via a shared prefix must produce
  // exactly the tokens of serving the concatenation monolithically.
  const ModelConfig model = TinyOptConfig();
  std::vector<int32_t> system_prompt = MakePrompt(50, 0, 19, 128);  // 2 chunks + 3
  std::vector<int32_t> user_prompt = MakePrompt(51, 0, 7, 128);

  StatefulLlmServer mono(TinyConfig(model));
  std::vector<int32_t> full = system_prompt;
  full.insert(full.end(), user_prompt.begin(), user_prompt.end());
  auto expected = mono.Chat(1, full, 6);
  ASSERT_TRUE(expected.ok());

  StatefulLlmServer shared(TinyConfig(model));
  auto prefix = shared.RegisterSharedPrefix(system_prompt);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  // block_size = 8: 19 tokens -> 16 shared, 3 re-processed per conversation.
  EXPECT_EQ(shared.SharedPrefixLen(*prefix), 16);
  ASSERT_TRUE(shared.StartConversationWithPrefix(2, *prefix).ok());
  auto got = shared.Chat(2, user_prompt, 6);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), expected.value());
  // Positions shift by the shared length and attention reads the prefix
  // blocks, for the re-processed prefix tail as much as for decode.
  EXPECT_TRUE(SameKv(ContextKv(shared, 2, 16), ContextKv(mono, 1)));
}

TEST(SharedPrefixTest, ManyConversationsShareOnePrefix) {
  const ModelConfig model = TinyLlamaConfig();  // RoPE positions must shift too
  std::vector<int32_t> system_prompt = MakePrompt(60, 0, 16, 128);
  StatefulLlmServer shared(TinyConfig(model));
  auto prefix = shared.RegisterSharedPrefix(system_prompt);
  ASSERT_TRUE(prefix.ok());
  const int64_t blocks_after_prefix = shared.cache().gpu_allocator().num_allocated();

  StatefulLlmServer mono(TinyConfig(model));
  for (int64_t conv = 1; conv <= 3; ++conv) {
    std::vector<int32_t> user = MakePrompt(70 + conv, 0, 5 + conv, 128);
    ASSERT_TRUE(shared.StartConversationWithPrefix(conv, *prefix).ok());
    auto got = shared.Chat(conv, user, 4);
    std::vector<int32_t> full = system_prompt;
    full.insert(full.end(), user.begin(), user.end());
    auto expected = mono.Chat(100 + conv, full, 4);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(got.value(), expected.value()) << "conversation " << conv;
    EXPECT_TRUE(SameKv(ContextKv(shared, conv, 16), ContextKv(mono, 100 + conv)))
        << "conversation " << conv;
  }
  // The shared prefix occupies its blocks exactly once, not per conversation.
  const int64_t prefix_blocks = blocks_after_prefix;
  EXPECT_EQ(prefix_blocks, 2);  // 16 tokens / block_size 8
}

TEST(SharedPrefixTest, PrefixSurvivesConversationEvictionAndMultiTurn) {
  const ModelConfig model = TinyOptConfig();
  StatefulServerConfig config = TinyConfig(model, /*gpu_blocks=*/24,
                                           /*cpu_blocks=*/32);
  StatefulLlmServer server(config);
  auto prefix = server.RegisterSharedPrefix(MakePrompt(80, 0, 16, 128));
  ASSERT_TRUE(prefix.ok());
  ASSERT_TRUE(server.StartConversationWithPrefix(1, *prefix).ok());
  auto t1 = server.Chat(1, MakePrompt(81, 0, 10, 128), 5);
  ASSERT_TRUE(t1.ok());
  const std::vector<uint32_t> kv1 = ContextKv(server, 1, 16);
  // Evict the conversation (the pinned prefix must stay GPU-resident).
  ASSERT_TRUE(server.SwapOutConversation(1).ok());
  ASSERT_TRUE(server.DropLeadingChunks(1, 1).ok());
  auto t2 = server.Chat(1, MakePrompt(82, 0, 6, 128), 5);
  ASSERT_TRUE(t2.ok()) << t2.status();
  server.cache().CheckInvariants();

  // Compare against a monolithic server with the same turn sequence; turn 2
  // recomputes the dropped chunk behind the shared prefix.
  StatefulLlmServer mono(TinyConfig(model, 256, 256));
  std::vector<int32_t> first = MakePrompt(80, 0, 16, 128);
  const std::vector<int32_t> user = MakePrompt(81, 0, 10, 128);
  first.insert(first.end(), user.begin(), user.end());
  auto r1 = mono.Chat(1, first, 5);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(t1.value(), r1.value());
  EXPECT_TRUE(SameKv(kv1, ContextKv(mono, 1)));
  auto r2 = mono.Chat(1, MakePrompt(82, 0, 6, 128), 5);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(t2.value(), r2.value());
  EXPECT_TRUE(SameKv(ContextKv(server, 1, 16), ContextKv(mono, 1)));
}

TEST(SharedPrefixTest, LifecycleGuards) {
  const ModelConfig model = TinyOptConfig();
  StatefulLlmServer server(TinyConfig(model));
  EXPECT_EQ(server.RegisterSharedPrefix({}).status().code(),
            StatusCode::kInvalidArgument);
  auto prefix = server.RegisterSharedPrefix(MakePrompt(90, 0, 8, 128));
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(server.StartConversationWithPrefix(1, 999).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(server.StartConversationWithPrefix(1, *prefix).ok());
  // Attaching twice, or to a conversation with history, is rejected.
  EXPECT_EQ(server.StartConversationWithPrefix(1, *prefix).code(),
            StatusCode::kFailedPrecondition);
  // Unregister is blocked while attached...
  EXPECT_EQ(server.UnregisterSharedPrefix(*prefix).code(),
            StatusCode::kFailedPrecondition);
  server.EndConversation(1);
  // ...and succeeds (freeing the pinned blocks) once detached.
  EXPECT_TRUE(server.UnregisterSharedPrefix(*prefix).ok());
  EXPECT_EQ(server.cache().gpu_allocator().num_allocated(), 0);
  EXPECT_EQ(server.UnregisterSharedPrefix(*prefix).code(), StatusCode::kNotFound);
}

TEST(SharedPrefixTest, SubChunkPrefixIsFullyRecomputed) {
  // A prefix shorter than one chunk shares nothing but still works.
  const ModelConfig model = TinyOptConfig();
  std::vector<int32_t> tiny_prefix = MakePrompt(95, 0, 5, 128);  // < block_size 8
  std::vector<int32_t> user = MakePrompt(96, 0, 6, 128);

  StatefulLlmServer shared(TinyConfig(model));
  auto prefix = shared.RegisterSharedPrefix(tiny_prefix);
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(shared.SharedPrefixLen(*prefix), 0);
  ASSERT_TRUE(shared.StartConversationWithPrefix(1, *prefix).ok());
  auto got = shared.Chat(1, user, 4);
  ASSERT_TRUE(got.ok());

  StatefulLlmServer mono(TinyConfig(model));
  std::vector<int32_t> full = tiny_prefix;
  full.insert(full.end(), user.begin(), user.end());
  auto expected = mono.Chat(1, full, 4);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(got.value(), expected.value());
  EXPECT_TRUE(SameKv(ContextKv(shared, 1), ContextKv(mono, 1)));
}

}  // namespace
}  // namespace pensieve
