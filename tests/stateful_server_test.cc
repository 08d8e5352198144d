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

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include "src/common/rng.h"
#include "src/core/stateful_server.h"
#include "src/kernels/attention.h"
#include "src/model/model_config.h"
#include "src/tensor/ops.h"
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
// attended context, in position order. Every chunk must be GPU-resident.
std::vector<uint32_t> ContextKv(const StatefulLlmServer& server,
                                int64_t conversation_id) {
  const KvPool& pool = *server.cache().gpu_pool();
  const std::vector<BlockId> table = server.cache().GpuBlockTable(conversation_id);
  const int64_t num_tokens = server.cache().Find(conversation_id)->kv_len();
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


// What one run of a seeded chat script produced, turn by turn.
struct ScriptRun {
  std::vector<std::vector<int32_t>> outputs;
  std::vector<std::vector<uint32_t>> kv;  // the conversation's KV after its turn
  int64_t swapped_in_tokens = 0;          // CPU-only history restored by a turn
  int64_t recomputed_tokens = 0;          // dropped history recomputed by a turn
};

// Builds a server under GPU and CPU pressure and runs a seeded script of
// turns over six conversations, so turns both swap in and recompute.
ScriptRun RunSeededScript(const ModelConfig& model) {
  StatefulLlmServer server(TinyConfig(model, /*gpu_blocks=*/16, /*cpu_blocks=*/12));
  const int32_t vocab = static_cast<int32_t>(model.vocab_size);
  Rng rng(2024);
  ScriptRun run;
  for (int64_t turn = 0; turn < 30; ++turn) {
    const int64_t conv = rng.UniformInt(0, 5);
    const int64_t len = rng.UniformInt(3, 20);
    if (const ContextState* c = server.cache().Find(conv)) {
      run.swapped_in_tokens += c->TokensCpuOnly();
      run.recomputed_tokens += c->TokensDropped();
    }
    auto result = server.Chat(conv, MakePrompt(conv, turn * 100, len, vocab), 4);
    EXPECT_TRUE(result.ok()) << "turn " << turn << ": " << result.status();
    if (!result.ok()) {
      break;
    }
    run.outputs.push_back(result.value());
    run.kv.push_back(ContextKv(server, conv));
  }
  return run;
}

// Eviction is priced from the analytical cost model, not from timed
// kernels, so a run does not depend on how fast the host happens to be.
// The second run builds its server and serves the script while another
// thread keeps the compute pool busy with attention kernels.
TEST(StatefulServerTest, ScriptRepeatsExactlyWhilePoolIsBusy) {
  const ModelConfig model = TinyLlamaConfig();
  const ScriptRun quiet = RunSeededScript(model);
  ASSERT_GT(quiet.swapped_in_tokens, 0);
  ASSERT_GT(quiet.recomputed_tokens, 0);

  std::atomic<bool> stop{false};
  std::thread busy([&] {
    constexpr int64_t kBlockSize = 8;
    constexpr int64_t kBlocks = 32;
    KvPool pool(kBlocks, kBlockSize, /*num_layers=*/1, model.num_kv_heads, model.head_dim);
    Tensor kv({model.num_kv_heads, model.head_dim});
    FillNormal(kv, 5, 1.0f);
    std::vector<BlockId> table;
    for (BlockId b = 0; b < kBlocks; ++b) {
      table.push_back(b);
      for (int64_t slot = 0; slot < kBlockSize; ++slot) {
        pool.WriteToken(b, 0, slot, kv.data(), kv.data());
      }
    }
    Tensor query({kBlockSize, model.num_heads, model.head_dim});
    FillNormal(query, 6, 1.0f);
    Tensor out({kBlockSize, model.num_heads, model.head_dim});
    const AttentionSubRequest sub{0, kBlockSize, kBlocks * kBlockSize, &table};
    while (!stop.load()) {
      MultiTokenPagedAttention(pool, 0, query, {sub}, 0.25f, &out);
      // The pool runs one caller at a time; pause so the server's calls
      // interleave with this thread's instead of starving behind them.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const ScriptRun loaded = RunSeededScript(model);
  stop.store(true);
  busy.join();

  EXPECT_EQ(loaded.outputs, quiet.outputs);
  ASSERT_EQ(loaded.kv.size(), quiet.kv.size());
  for (size_t i = 0; i < quiet.kv.size(); ++i) {
    EXPECT_TRUE(SameKv(loaded.kv[i], quiet.kv[i])) << "turn " << i;
  }
  EXPECT_EQ(loaded.swapped_in_tokens, quiet.swapped_in_tokens);
  EXPECT_EQ(loaded.recomputed_tokens, quiet.recomputed_tokens);
}


// --- Shared system prompts (paper footnote 3) --------------------------------
//
// A shared prefix is the head of each conversation's own history; its whole
// blocks are refcounted views of the blocks the first conversation computed
// and published. Every case compares the KV a reader attends to, row for
// row, with a monolithic server that computes [prefix ++ prompt] itself.

// Serves one [prefix ++ user] first turn monolithically on `mono`.
std::vector<int32_t> MonolithicTurn(StatefulLlmServer* mono, int64_t conversation_id,
                                    const std::vector<int32_t>& prefix,
                                    const std::vector<int32_t>& user,
                                    int64_t output_len) {
  std::vector<int32_t> full = prefix;
  full.insert(full.end(), user.begin(), user.end());
  auto result = mono->Chat(conversation_id, full, output_len);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? result.value() : std::vector<int32_t>{};
}

TEST(SharedPrefixTest, PrefixedConversationMatchesMonolithicComputation) {
  // Serving [system prompt ++ user prompt] via a shared prefix must produce
  // exactly the tokens of serving the concatenation monolithically, both for
  // the first conversation (which computes the prefix) and for one that
  // attaches the published blocks.
  const ModelConfig model = TinyOptConfig();
  std::vector<int32_t> system_prompt = MakePrompt(50, 0, 19, 128);  // 2 chunks + 3
  std::vector<int32_t> user_prompt = MakePrompt(51, 0, 7, 128);

  StatefulLlmServer mono(TinyConfig(model));
  const std::vector<int32_t> expected = MonolithicTurn(&mono, 1, system_prompt, user_prompt, 6);

  StatefulLlmServer shared(TinyConfig(model));
  auto prefix = shared.RegisterSharedPrefix(system_prompt);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  // block_size = 8: 19 tokens -> 16 shared, 3 computed per conversation.
  EXPECT_EQ(shared.SharedPrefixLen(*prefix), 16);
  EXPECT_EQ(shared.cache().gpu_allocator().num_allocated(), 0);  // nothing computed yet
  for (int64_t conv : {2, 3}) {
    ASSERT_TRUE(shared.StartConversationWithPrefix(conv, *prefix).ok());
    // The first conversation finds nothing published; the second attaches
    // the two whole blocks the first one computed.
    const ContextState* state = shared.cache().Find(conv);
    EXPECT_EQ(state == nullptr ? 0 : state->kv_len(), conv == 2 ? 0 : 16);
    auto got = shared.Chat(conv, user_prompt, 6);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.value(), expected) << "conversation " << conv;
    EXPECT_TRUE(SameKv(ContextKv(shared, conv), ContextKv(mono, 1))) << "conversation " << conv;
  }
  EXPECT_EQ(shared.cache().Find(3)->chunk(0).gpu_block, shared.cache().Find(2)->chunk(0).gpu_block);
}

TEST(SharedPrefixTest, ManyConversationsShareOnePrefix) {
  const ModelConfig model = TinyLlamaConfig();  // RoPE reads every position
  std::vector<int32_t> system_prompt = MakePrompt(60, 0, 16, 128);
  StatefulLlmServer shared(TinyConfig(model));
  auto prefix = shared.RegisterSharedPrefix(system_prompt);
  ASSERT_TRUE(prefix.ok());

  StatefulLlmServer mono(TinyConfig(model));
  int64_t chunks = 0;
  for (int64_t conv = 1; conv <= 3; ++conv) {
    std::vector<int32_t> user = MakePrompt(70 + conv, 0, 5 + conv, 128);
    ASSERT_TRUE(shared.StartConversationWithPrefix(conv, *prefix).ok());
    auto got = shared.Chat(conv, user, 4);
    const std::vector<int32_t> expected = MonolithicTurn(&mono, 100 + conv, system_prompt, user, 4);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), expected) << "conversation " << conv;
    EXPECT_TRUE(SameKv(ContextKv(shared, conv), ContextKv(mono, 100 + conv)))
        << "conversation " << conv;
    chunks += shared.cache().Find(conv)->num_chunks();
  }
  // The prefix's 2 blocks (16 tokens / block_size 8) are allocated once and
  // viewed by all three readers.
  const ContextState& publisher = *shared.cache().Find(1);
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(shared.cache().gpu_allocator().refcount(publisher.chunk(i).gpu_block), 3);
  }
  EXPECT_EQ(shared.cache().gpu_allocator().num_allocated(), chunks - 2 * 2);
  shared.cache().CheckInvariants();
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
  const std::vector<uint32_t> kv1 = ContextKv(server, 1);
  // Evict the conversation, prefix blocks included, and drop its first
  // chunk (a prefix block), which turn 2 recomputes from the raw history.
  ASSERT_TRUE(server.SwapOutConversation(1).ok());
  ASSERT_TRUE(server.DropLeadingChunks(1, 1).ok());
  auto t2 = server.Chat(1, MakePrompt(82, 0, 6, 128), 5);
  ASSERT_TRUE(t2.ok()) << t2.status();
  server.cache().CheckInvariants();

  // Compare against a monolithic server with the same turn sequence.
  StatefulLlmServer mono(TinyConfig(model, 256, 256));
  const std::vector<int32_t> r1 =
      MonolithicTurn(&mono, 1, MakePrompt(80, 0, 16, 128), MakePrompt(81, 0, 10, 128), 5);
  EXPECT_EQ(t1.value(), r1);
  EXPECT_TRUE(SameKv(kv1, ContextKv(mono, 1)));
  auto r2 = mono.Chat(1, MakePrompt(82, 0, 6, 128), 5);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(t2.value(), r2.value());
  EXPECT_TRUE(SameKv(ContextKv(server, 1), ContextKv(mono, 1)));
}

TEST(SharedPrefixTest, LifecycleGuards) {
  const ModelConfig model = TinyOptConfig();
  StatefulLlmServer server(TinyConfig(model));
  EXPECT_EQ(server.RegisterSharedPrefix({}).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<int32_t> system_prompt = MakePrompt(90, 0, 8, 128);
  auto prefix = server.RegisterSharedPrefix(system_prompt);
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(server.StartConversationWithPrefix(1, 999).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(server.StartConversationWithPrefix(1, *prefix).ok());
  // Attaching twice, or to a conversation with history, is rejected.
  EXPECT_EQ(server.StartConversationWithPrefix(1, *prefix).code(),
            StatusCode::kFailedPrecondition);
  // Unregistering forgets the id; the conversation started from it keeps
  // its history and still matches the monolithic computation.
  EXPECT_TRUE(server.UnregisterSharedPrefix(*prefix).ok());
  EXPECT_EQ(server.UnregisterSharedPrefix(*prefix).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.StartConversationWithPrefix(2, *prefix).code(),
            StatusCode::kNotFound);
  const std::vector<int32_t> user = MakePrompt(91, 0, 5, 128);
  auto got = server.Chat(1, user, 4);
  ASSERT_TRUE(got.ok()) << got.status();
  StatefulLlmServer mono(TinyConfig(model));
  EXPECT_EQ(got.value(), MonolithicTurn(&mono, 1, system_prompt, user, 4));
  EXPECT_TRUE(SameKv(ContextKv(server, 1), ContextKv(mono, 1)));
  server.EndConversation(1);
  EXPECT_EQ(server.cache().gpu_allocator().num_allocated(), 0);
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
  EXPECT_EQ(got.value(), MonolithicTurn(&mono, 1, tiny_prefix, user, 4));
  EXPECT_TRUE(SameKv(ContextKv(shared, 1), ContextKv(mono, 1)));
}

// A publisher and two readers of a 16-token (two-block) prefix, each after
// its first turn, mirrored on a monolithic server as conversations 101-103.
struct SharedReaders {
  static constexpr int64_t kOutput = 4;
  std::vector<int32_t> prefix = MakePrompt(200, 0, 16, 128);
  StatefulLlmServer shared;
  StatefulLlmServer mono;

  SharedReaders(const ModelConfig& model, bool kv_quant)
      : shared(QuantConfig(model, kv_quant)), mono(QuantConfig(model, kv_quant)) {
    auto id = shared.RegisterSharedPrefix(prefix);
    EXPECT_TRUE(id.ok());
    for (int64_t conv = 1; conv <= 3; ++conv) {
      EXPECT_TRUE(shared.StartConversationWithPrefix(conv, *id).ok());
      auto got = shared.Chat(conv, UserTurn(conv, 0), kOutput);
      EXPECT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got.value(), MonolithicTurn(&mono, 100 + conv, prefix, UserTurn(conv, 0), kOutput));
    }
  }

  static StatefulServerConfig QuantConfig(const ModelConfig& model, bool kv_quant) {
    StatefulServerConfig config = TinyConfig(model, /*gpu_blocks=*/24, /*cpu_blocks=*/32);
    config.kv_quant = kv_quant;
    return config;
  }
  static std::vector<int32_t> UserTurn(int64_t conv, int64_t turn) {
    return MakePrompt(210 + conv, 100 * turn, 6 + conv, 128);
  }

  // Runs turn `turn` of `conv` on both servers and compares tokens and KV.
  ::testing::AssertionResult NextTurnMatches(int64_t conv, int64_t turn) {
    auto got = shared.Chat(conv, UserTurn(conv, turn), kOutput);
    auto want = mono.Chat(100 + conv, UserTurn(conv, turn), kOutput);
    if (!got.ok() || !want.ok()) {
      return ::testing::AssertionFailure() << "turn failed: " << got.status() << " / "
                                           << want.status();
    }
    if (got.value() != want.value()) {
      return ::testing::AssertionFailure() << "tokens differ, conversation " << conv;
    }
    return SameKv(ContextKv(shared, conv), ContextKv(mono, 100 + conv));
  }

  BlockId PrefixBlock(int64_t conv, int64_t i) const {
    return shared.cache().Find(conv)->chunk(i).gpu_block;
  }
};

TEST(SharedPrefixTest, ReadersOutliveThePublisher) {
  SharedReaders s(TinyLlamaConfig(), /*kv_quant=*/false);
  const BlockId first = s.PrefixBlock(1, 0);
  ASSERT_EQ(s.PrefixBlock(2, 0), first);
  ASSERT_EQ(s.PrefixBlock(3, 0), first);
  s.shared.EndConversation(1);
  EXPECT_EQ(s.shared.cache().gpu_allocator().refcount(first), 2);
  // A fresh conversation takes the blocks the publisher freed; the readers'
  // prefix blocks must not be among them.
  ASSERT_TRUE(s.shared.Chat(9, MakePrompt(9, 0, 40, 128), 2).ok());
  EXPECT_TRUE(s.NextTurnMatches(2, 1));
  EXPECT_TRUE(s.NextTurnMatches(3, 1));
  s.shared.cache().CheckInvariants();
}

class SharedViewSwapTest : public ::testing::TestWithParam<bool> {};

TEST_P(SharedViewSwapTest, SwappedOutViewComesBackBitwise) {
  SharedReaders s(TinyOptConfig(), /*kv_quant=*/GetParam());
  const BlockId first = s.PrefixBlock(1, 0);
  // The reader's views go to the CPU tier; the publisher keeps the blocks.
  ASSERT_TRUE(s.shared.SwapOutConversation(2).ok());
  ASSERT_TRUE(s.mono.SwapOutConversation(102).ok());
  EXPECT_EQ(s.shared.cache().Find(2)->TokensOnGpu(), 0);
  EXPECT_EQ(s.shared.cache().gpu_allocator().refcount(first), 2);
  // Swapping back in lands the prefix in private blocks.
  EXPECT_TRUE(s.NextTurnMatches(2, 1));
  EXPECT_NE(s.PrefixBlock(2, 0), first);
  // The publisher and the other reader still read the untouched blocks.
  EXPECT_TRUE(s.NextTurnMatches(1, 1));
  EXPECT_TRUE(s.NextTurnMatches(3, 1));
  s.shared.cache().CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(KvQuant, SharedViewSwapTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Int8") : std::string("Fp32");
                         });

TEST(SharedPrefixTest, DroppedViewIsRecomputed) {
  SharedReaders s(TinyLlamaConfig(), /*kv_quant=*/false);
  const BlockId first = s.PrefixBlock(1, 0);
  // Dropping the reader's two views frees nothing: the others hold them.
  const int64_t allocated = s.shared.cache().gpu_allocator().num_allocated();
  ASSERT_TRUE(s.shared.DropLeadingChunks(2, 2).ok());
  EXPECT_EQ(s.shared.cache().Find(2)->LeadingDroppedTokens(), 16);
  EXPECT_EQ(s.shared.cache().gpu_allocator().num_allocated(), allocated);
  EXPECT_EQ(s.shared.cache().gpu_allocator().refcount(first), 2);
  // Turn 2 recomputes the prefix into private blocks from the raw history.
  EXPECT_TRUE(s.NextTurnMatches(2, 1));
  EXPECT_NE(s.PrefixBlock(2, 0), first);
  EXPECT_TRUE(s.NextTurnMatches(1, 1));
  s.shared.cache().CheckInvariants();
}

}  // namespace
}  // namespace pensieve
