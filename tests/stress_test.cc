// Randomized stress tests: long random operation sequences against the
// cache state machine, the serving engines, and the numeric server, with
// full invariant audits throughout. These are the tests that catch state
// machine corner cases no hand-written scenario covers.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/core/stateful_server.h"
#include "src/model/model_config.h"
#include "src/scheduler/cache_coordinator.h"
#include "src/serving/pensieve_engine.h"
#include "src/sim/hardware.h"
#include "src/workload/dataset.h"

namespace pensieve {
namespace {

// --- Random walk over the TwoTierKvCache state machine -----------------------

class CacheFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheFuzzTest, RandomOperationSequencePreservesInvariants) {
  Rng rng(GetParam());
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = 24;
  config.num_cpu_blocks = 24;
  TwoTierKvCache cache(config);
  constexpr int64_t kConversations = 6;

  for (int step = 0; step < 2000; ++step) {
    const int64_t conv = rng.UniformInt(0, kConversations - 1);
    const int op = static_cast<int>(rng.UniformInt(0, 6));
    ContextState* state = cache.Find(conv);
    const int64_t chunks = state != nullptr ? state->num_chunks() : 0;
    switch (op) {
      case 0: {  // append a few tokens (ignore exhaustion)
        const int64_t n = rng.UniformInt(1, 6);
        // Appending requires a GPU-resident (or absent) partial tail.
        if (state != nullptr && state->num_chunks() > 0) {
          const Chunk& tail = state->chunk(state->num_chunks() - 1);
          if (tail.num_tokens < config.block_size && !tail.OnGpu()) {
            break;
          }
          if (tail.Dropped()) {
            break;
          }
        }
        (void)cache.AppendTokenSlots(conv, n, nullptr);
        break;
      }
      case 1: {  // swap out a random GPU chunk
        if (chunks == 0) {
          break;
        }
        (void)cache.SwapOut(conv, rng.UniformInt(0, chunks - 1));
        break;
      }
      case 2: {  // reclaim a random clean chunk
        if (chunks == 0) {
          break;
        }
        (void)cache.ReclaimGpu(conv, rng.UniformInt(0, chunks - 1));
        break;
      }
      case 3: {  // swap a random chunk back in
        if (chunks == 0) {
          break;
        }
        (void)cache.SwapIn(conv, rng.UniformInt(0, chunks - 1));
        break;
      }
      case 4: {  // drop the frontier chunk
        if (state == nullptr || chunks == 0) {
          break;
        }
        const int64_t frontier = state->LeadingDroppedChunks();
        if (frontier < chunks) {
          (void)cache.DropChunk(conv, frontier);
        }
        break;
      }
      case 5: {  // restore the last dropped chunk (back-to-front order
                 // preserves the dropped-prefix invariant at every point)
        if (state == nullptr) {
          break;
        }
        const int64_t frontier = state->LeadingDroppedChunks();
        if (frontier > 0) {
          (void)cache.RestoreDropped(conv, frontier - 1);
        }
        break;
      }
      case 6: {  // occasionally release the whole conversation
        if (rng.Bernoulli(0.05)) {
          cache.Release(conv);
        }
        break;
      }
    }
    if (step % 50 == 0) {
      cache.CheckInvariants();
    }
  }
  cache.CheckInvariants();
  // Releasing everything must return all blocks.
  for (int64_t conv = 0; conv < kConversations; ++conv) {
    cache.Release(conv);
  }
  EXPECT_EQ(cache.gpu_allocator().num_allocated(), 0);
  EXPECT_EQ(cache.cpu_allocator().num_allocated(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 17u, 99u, 12345u));

// --- Random walk through coordinator-driven eviction --------------------------

class CoordinatorFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoordinatorFuzzTest, EvictionUnderRandomLoadKeepsInvariants) {
  Rng rng(GetParam());
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = 16;
  config.num_cpu_blocks = 12;
  TwoTierKvCache cache(config);
  GpuCostModel cost_model(Opt13BConfig(), A100Spec(1));
  ChunkCostEstimator estimator =
      ChunkCostEstimator::ProfileFromCostModel(cost_model, 4, 1024);
  RetentionValuePolicy policy(estimator);
  CacheCoordinator::Options options;
  options.use_cpu_cache = true;
  options.swap_out_target = 0.25;
  CacheCoordinator coordinator(&cache, &policy, options);

  double now = 0.0;
  for (int step = 0; step < 1000; ++step) {
    now += rng.Exponential(1.0);
    const int64_t conv = rng.UniformInt(0, 9);
    const int64_t n = rng.UniformInt(1, 8);
    ContextState& state = cache.GetOrCreate(conv);
    // Bring the conversation fully GPU-resident first (as the engine would).
    for (int64_t i = 0; i < state.num_chunks(); ++i) {
      if (state.chunk(i).location == ChunkLocation::kCpu) {
        if (cache.gpu_allocator().num_free() == 0) {
          coordinator.EnsureFreeGpuBlocks(1, now);
        }
        (void)cache.SwapIn(conv, i);
      } else if (state.chunk(i).Dropped()) {
        if (cache.gpu_allocator().num_free() == 0) {
          coordinator.EnsureFreeGpuBlocks(1, now);
        }
        (void)cache.RestoreDropped(conv, i);
      }
    }
    state.Pin();
    const int64_t needed = state.NumNewChunksForAppend(n);
    if (coordinator.EnsureFreeGpuBlocks(needed, now).ok &&
        state.TokensOnGpu() == state.kv_len()) {
      ASSERT_TRUE(cache.AppendTokenSlots(conv, n, nullptr).ok());
    }
    state.Unpin();
    state.set_last_active(now);
    coordinator.AheadOfTimeEvict(now);
    if (step % 25 == 0) {
      cache.CheckInvariants();
    }
  }
  cache.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoordinatorFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// --- Serving-engine stress under assorted memory regimes ----------------------

struct EngineStressCase {
  uint64_t seed;
  int64_t gpu_blocks;
  int64_t cpu_blocks;
  bool use_cpu_cache;
  bool unified;
};

class EngineStressTest : public ::testing::TestWithParam<EngineStressCase> {};

TEST_P(EngineStressTest, RandomWorkloadDrainsCompletely) {
  const EngineStressCase& c = GetParam();
  GpuCostModel cost_model(Opt13BConfig(), A100Spec(1));
  PensieveEngineOptions options;
  options.block_size = 32;
  options.num_gpu_blocks = c.gpu_blocks;
  options.num_cpu_blocks = c.cpu_blocks;
  options.use_cpu_cache = c.use_cpu_cache;
  options.unified_scheduling = c.unified;
  PensieveEngine engine(cost_model, options);

  Rng rng(c.seed);
  // Multi-turn conversations with random lengths, delivered in bursts. A
  // conversation whose context would outgrow the GPU tier is retired and
  // replaced by a fresh one — no serving system can hold a context larger
  // than its cache.
  const int64_t context_cap = c.gpu_blocks * options.block_size * 7 / 10;
  struct Conv {
    int64_t id = 0;
    int64_t history = 0;
    int32_t turn = 0;
  };
  std::vector<Conv> convs(8);
  int64_t next_conv_id = 0;
  for (Conv& conv : convs) {
    conv.id = next_conv_id++;
  }
  int64_t request_id = 0;
  double now = 0.0;
  int64_t delivered = 0;
  int64_t finished = 0;
  for (int round = 0; round < 30; ++round) {
    const int burst = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<bool> used(convs.size(), false);
    for (int b = 0; b < burst; ++b) {
      const int64_t ci = rng.UniformInt(0, static_cast<int64_t>(convs.size()) - 1);
      if (used[static_cast<size_t>(ci)]) {
        continue;  // a conversation's turns are causally ordered
      }
      used[static_cast<size_t>(ci)] = true;
      Conv& conv = convs[static_cast<size_t>(ci)];
      const int64_t prompt_len = rng.UniformInt(1, 120);
      const int64_t output_len = rng.UniformInt(1, 60);
      if (conv.history + prompt_len + output_len > context_cap) {
        conv = Conv{next_conv_id++, 0, 0};  // retire; start fresh
      }
      Request req;
      req.request_id = request_id++;
      req.conversation_id = conv.id;
      req.turn_index = conv.turn++;
      req.new_prompt_len = prompt_len;
      req.history_len = conv.history;
      req.target_output_len = output_len;
      req.arrival_time = now;
      conv.history += prompt_len + output_len;
      engine.Enqueue(req, now);
      ++delivered;
      // Causality within a conversation: drain before this conversation's
      // next turn can be enqueued. Simplest: fully drain each burst.
    }
    int64_t guard = 0;
    while (engine.HasWork()) {
      StepResult r = engine.Step(now);
      ASSERT_FALSE(r.idle) << "stuck with pending work (round " << round << ")";
      now += r.duration;
      finished += static_cast<int64_t>(r.finished.size());
      ASSERT_LT(++guard, 200000);
    }
    engine.cache().CheckInvariants();
    now += rng.Exponential(30.0);
  }
  EXPECT_EQ(finished, delivered);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, EngineStressTest,
    ::testing::Values(EngineStressCase{1, 64, 256, true, true},
                      EngineStressCase{2, 16, 64, true, true},    // tight GPU
                      EngineStressCase{3, 16, 8, true, true},     // tight CPU too
                      EngineStressCase{4, 16, 0, false, true},    // GPU-only
                      EngineStressCase{5, 16, 64, true, false},   // split phase
                      EngineStressCase{6, 12, 16, true, true}),
    [](const ::testing::TestParamInfo<EngineStressCase>& info) {
      return "case" + std::to_string(info.index);
    });

// --- Numeric server under randomized eviction schedules -----------------------

TEST(NumericStressTest, RandomEvictionScheduleNeverChangesOutputs) {
  // Two servers serve the same 6-turn conversation; one suffers a random
  // swap/drop schedule between turns. Outputs must match turn for turn.
  const ModelConfig model = TinyOptConfig();
  StatefulServerConfig roomy;
  roomy.model = model;
  roomy.block_size = 8;
  roomy.num_gpu_blocks = 256;
  roomy.num_cpu_blocks = 256;
  StatefulServerConfig tight = roomy;
  tight.num_gpu_blocks = 64;
  tight.num_cpu_blocks = 64;

  StatefulLlmServer reference(roomy);
  StatefulLlmServer tortured(tight);
  Rng rng(77);
  for (int turn = 0; turn < 6; ++turn) {
    const int64_t len = rng.UniformInt(3, 18);
    std::vector<int32_t> prompt;
    for (int64_t i = 0; i < len; ++i) {
      prompt.push_back(SyntheticToken(turn, i, 128));
    }
    auto expected = reference.Chat(1, prompt, 5);
    auto got = tortured.Chat(1, prompt, 5);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value(), expected.value()) << "turn " << turn;
    // Random torture between turns.
    if (rng.Bernoulli(0.7)) {
      ASSERT_TRUE(tortured.SwapOutConversation(1).ok());
    }
    if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE(tortured.DropLeadingChunks(1, rng.UniformInt(1, 3)).ok());
    }
    tortured.cache().CheckInvariants();
  }
}

}  // namespace
}  // namespace pensieve
