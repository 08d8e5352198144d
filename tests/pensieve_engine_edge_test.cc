// Edge-case tests for the Pensieve engine: forgotten conversations, token
// budgets, restore-stall ablations, and swap-in priority.

#include <gtest/gtest.h>

#include "src/model/model_config.h"
#include "src/serving/pensieve_engine.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

GpuCostModel Opt13BModel() {
  return GpuCostModel(Opt13BConfig(), A100Spec(1));
}

Request MakeRequest(int64_t id, int64_t conv, int32_t turn, int64_t prompt,
                    int64_t history, int64_t output, double arrival = 0.0) {
  Request r;
  r.request_id = id;
  r.conversation_id = conv;
  r.turn_index = turn;
  r.new_prompt_len = prompt;
  r.history_len = history;
  r.target_output_len = output;
  r.arrival_time = arrival;
  return r;
}

PensieveEngineOptions SmallOptions(int64_t gpu_blocks = 64, int64_t cpu_blocks = 256) {
  PensieveEngineOptions o;
  o.block_size = 32;
  o.num_gpu_blocks = gpu_blocks;
  o.num_cpu_blocks = cpu_blocks;
  return o;
}

std::vector<RequestOutcome> Drain(Engine* engine, double start = 0.0) {
  std::vector<RequestOutcome> outcomes;
  double now = start;
  for (int64_t i = 0; i < 100000 && engine->HasWork(); ++i) {
    StepResult r = engine->Step(now);
    EXPECT_FALSE(r.idle);
    if (r.idle) {
      break;
    }
    now += r.duration;
    for (auto& o : r.finished) {
      outcomes.push_back(std::move(o));
    }
  }
  return outcomes;
}

TEST(PensieveEngineEdgeTest, ForgottenConversationRecomputesFullHistory) {
  GpuCostModel model = Opt13BModel();
  // GPU-only with a tiny cache: conversation 0's state will be fully
  // dropped (and its bookkeeping forgotten) under pressure from
  // conversation 1.
  PensieveEngineOptions options = SmallOptions(/*gpu_blocks=*/8, /*cpu_blocks=*/0);
  options.use_cpu_cache = false;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 0, 60, 0, 5), 0.0);
  Drain(&engine);
  // Conversation 1 needs (almost) the whole GPU: conversation 0 is evicted
  // entirely and forgotten.
  engine.Enqueue(MakeRequest(1, 1, 0, 200, 0, 20, 5.0), 5.0);
  Drain(&engine, 5.0);
  EXPECT_EQ(engine.cache().Find(0), nullptr) << "conversation 0 should be forgotten";
  // Conversation 0's second turn: its entire 65-token raw history re-enters
  // as input and is recomputed.
  engine.Enqueue(MakeRequest(2, 0, 1, 10, 65, 5, 10.0), 10.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine, 10.0);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].reused_gpu_tokens, 0);
  EXPECT_EQ(outcomes[0].recomputed_tokens, 64);  // 65 minus the pending token
  engine.cache().CheckInvariants();
}

TEST(PensieveEngineEdgeTest, TokenBudgetLimitsAdmissionsPerStep) {
  GpuCostModel model = Opt13BModel();
  PensieveEngineOptions options = SmallOptions(256, 256);
  options.max_batch_tokens = 100;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 0, 80, 0, 3), 0.0);
  engine.Enqueue(MakeRequest(1, 1, 0, 80, 0, 3, 0.1), 0.1);
  engine.Step(0.1);
  // The second prefill (80 tokens) would blow the 100-token budget.
  EXPECT_EQ(engine.num_running(), 1);
  EXPECT_EQ(engine.num_waiting(), 1);
  // Next step: request 0 is decoding (1 token), so request 1 fits.
  engine.Step(0.2);
  EXPECT_EQ(engine.num_running(), 2);
}

TEST(PensieveEngineEdgeTest, OversizedPromptAdmittedAloneDespiteBudget) {
  GpuCostModel model = Opt13BModel();
  PensieveEngineOptions options = SmallOptions(256, 256);
  options.max_batch_tokens = 100;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 0, 500, 0, 3), 0.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  EXPECT_EQ(outcomes.size(), 1u);
}

TEST(PensieveEngineEdgeTest, BlockingRestoreSlowerThanPipelined) {
  GpuCostModel model = Opt13BModel();
  auto run = [&](bool pipelined) {
    PensieveEngineOptions options = SmallOptions(/*gpu_blocks=*/8, /*cpu_blocks=*/64);
    options.pipelined_restore = pipelined;
    PensieveEngine engine(model, options);
    // Build up a cached conversation, push it to CPU via pressure, return.
    engine.Enqueue(MakeRequest(0, 0, 0, 200, 0, 10), 0.0);
    Drain(&engine);
    engine.Enqueue(MakeRequest(1, 1, 0, 200, 0, 10, 10.0), 10.0);
    Drain(&engine, 10.0);
    engine.Enqueue(MakeRequest(2, 0, 1, 30, 210, 5, 20.0), 20.0);
    Drain(&engine, 20.0);
    return engine.stats().restore_stall_seconds;
  };
  const double pipelined_stall = run(true);
  const double blocking_stall = run(false);
  EXPECT_LE(pipelined_stall, blocking_stall);
}

TEST(PensieveEngineEdgeTest, SuspensionBeforePrefillRedropsRestoredChunks) {
  GpuCostModel model = Opt13BModel();
  // Tight GPU, no CPU: conversation 0's history is dropped, then at its
  // second turn the restored chunks compete with a running request and may
  // force suspension. The engine must not leave garbage "resident" chunks.
  PensieveEngineOptions options = SmallOptions(/*gpu_blocks=*/6, /*cpu_blocks=*/0);
  options.use_cpu_cache = false;
  options.decode_reserve = 0.0;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 0, 100, 0, 60, 0.0), 0.0);
  engine.Enqueue(MakeRequest(1, 1, 0, 60, 0, 60, 0.1), 0.1);
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  EXPECT_EQ(outcomes.size(), 2u);
  engine.cache().CheckInvariants();
}

TEST(PensieveEngineEdgeTest, SwapInPriorityReducesRestoreStall) {
  GpuCostModel model = Opt13BModel();
  auto run = [&](bool prioritize) {
    PensieveEngineOptions options = SmallOptions(/*gpu_blocks=*/10, /*cpu_blocks=*/64);
    options.prioritize_swap_in = prioritize;
    options.swap_out_threshold = 0.5;  // heavy eviction traffic
    PensieveEngine engine(model, options);
    double now = 0.0;
    int64_t id = 0;
    // Alternate two conversations so each return swaps the other out.
    for (int turn = 0; turn < 4; ++turn) {
      for (int64_t conv = 0; conv < 2; ++conv) {
        const int64_t history = turn == 0 ? 0 : turn * (150 + 10);
        engine.Enqueue(MakeRequest(id++, conv, turn, 150, history, 10, now), now);
        for (int64_t i = 0; i < 100000 && engine.HasWork(); ++i) {
          StepResult r = engine.Step(now);
          if (r.idle) {
            break;
          }
          now += r.duration;
        }
      }
    }
    return engine.stats().restore_stall_seconds;
  };
  // The §5 waiting mechanism must never make restores slower.
  EXPECT_LE(run(true), run(false) + 1e-9);
}

TEST(PensieveEngineEdgeTest, StatsAccumulateAcrossManyTurns) {
  GpuCostModel model = Opt13BModel();
  PensieveEngine engine(model, SmallOptions());
  double now = 0.0;
  int64_t history = 0;
  for (int32_t turn = 0; turn < 5; ++turn) {
    engine.Enqueue(MakeRequest(turn, 0, turn, 20, history, 10, now), now);
    std::vector<RequestOutcome> outcomes = Drain(&engine, now);
    ASSERT_EQ(outcomes.size(), 1u);
    now = outcomes[0].finish_time + 30.0;
    history += 30;
  }
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.generated_tokens, 50);
  // Turns 1-4 each reused history-1 tokens from the GPU.
  EXPECT_EQ(stats.reused_gpu_tokens, 29 + 59 + 89 + 119);
  EXPECT_EQ(stats.recomputed_history_tokens, 0);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 1.0);
}

TEST(PensieveEngineEdgeTest, SuspensionRedropsOnlyTheRestoredPrefix) {
  GpuCostModel model = Opt13BModel();
  // Six GPU blocks, one CPU block, no ahead-of-time swap-out and no decode
  // reserve. Conversation 2's long prompt waits while 0 and 1 run, and
  // conversation 0's second turn queues behind it. The step after 1
  // finishes admits 2, whose blocks push conversation 0 out (three chunks
  // dropped, the fourth to the CPU), then admits 0's turn, which restores
  // the three for recompute; the batch outgrows the GPU and 0's turn, the
  // latest arrival, is suspended in that same step.
  PensieveEngineOptions options = SmallOptions(/*gpu_blocks=*/6, /*cpu_blocks=*/1);
  options.swap_out_threshold = 0.0;
  options.decode_reserve = 0.0;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 0, 71, 0, 34, 2.5), 2.5);
  double now = 2.5;
  bool others_queued = false;
  for (int i = 0; i < 1000 && engine.stats().suspensions == 0; ++i) {
    if (!others_queued && now >= 3.0) {
      engine.Enqueue(MakeRequest(1, 1, 0, 14, 0, 12, now), now);
      engine.Enqueue(MakeRequest(2, 2, 0, 145, 0, 20, now), now);
      others_queued = true;
    }
    const StepResult r = engine.Step(now);
    ASSERT_FALSE(r.idle);
    now += r.duration;
    for (const RequestOutcome& o : r.finished) {
      if (o.request.request_id == 0) {
        engine.Enqueue(MakeRequest(3, 0, 1, 30, 105, 36, now), now);
      }
    }
  }
  ASSERT_EQ(engine.stats().suspensions, 1);
  // Only the restored chunks were re-dropped: the chunk behind them went
  // back to the CPU rather than being dropped with them.
  const ContextState* conv = engine.cache().Find(0);
  ASSERT_NE(conv, nullptr);
  ASSERT_EQ(conv->num_chunks(), 4);
  EXPECT_EQ(conv->LeadingDroppedChunks(), 3);
  EXPECT_EQ(conv->chunk(3).location, ChunkLocation::kCpu);
  engine.cache().CheckInvariants();

  const std::vector<RequestOutcome> outcomes = Drain(&engine, now);
  EXPECT_EQ(outcomes.size(), 2u);  // conversation 2's turn and the suspended one
  engine.cache().CheckInvariants();
}

TEST(PensieveEngineEdgeTest, RejectedReattachRedropsOnlyTheRescuedRun) {
  GpuCostModel model = Opt13BModel();
  // GPU-only, six blocks, a 64-token step budget. Conversation 0 publishes
  // a three-block template; conversation 1 attaches it and keeps running
  // while the cache fills, so the eviction that follows drops conversation
  // 0's three shared views (score 0) and then conversation 2's lone chunk,
  // and conversation 0's private fourth chunk stays on the GPU.
  PensieveEngineOptions options = SmallOptions(/*gpu_blocks=*/6, /*cpu_blocks=*/0);
  options.use_cpu_cache = false;
  options.decode_reserve = 0.0;
  options.max_batch_tokens = 64;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 2, 0, 20, 0, 1), 0.0);
  Drain(&engine);
  Request publisher = MakeRequest(1, 0, 0, 100, 0, 2, 1.0);
  publisher.template_id = 9;
  publisher.template_prefix_len = 96;
  engine.Enqueue(publisher, 1.0);
  Drain(&engine, 1.0);
  Request reader = MakeRequest(2, 1, 0, 100, 0, 60, 2.0);
  reader.template_id = 9;
  reader.template_prefix_len = 96;
  engine.Enqueue(reader, 2.0);
  double now = 2.0;
  const ContextState* conv = nullptr;
  for (int i = 0; i < 10; ++i) {
    now += engine.Step(now).duration;
    conv = engine.cache().Find(0);
    ASSERT_NE(conv, nullptr);
    if (conv->LeadingDroppedChunks() > 0) {
      break;
    }
  }
  ASSERT_EQ(conv->LeadingDroppedChunks(), 3);
  ASSERT_EQ(conv->num_chunks(), 4);
  ASSERT_EQ(conv->chunk(3).location, ChunkLocation::kGpu);
  ASSERT_EQ(engine.cache().Find(2), nullptr);  // dropped whole and forgotten

  // Conversation 0's next turn re-attaches its dropped run as views over
  // conversation 1's blocks, then misses the step budget behind the running
  // decode: the undo re-drops exactly the three rescued chunks.
  Request next = MakeRequest(3, 0, 1, 63, 102, 2, now);
  next.template_id = 9;
  next.template_prefix_len = 96;
  engine.Enqueue(next, now);
  now += engine.Step(now).duration;
  EXPECT_EQ(engine.num_waiting(), 1);
  EXPECT_EQ(conv->LeadingDroppedChunks(), 3);
  EXPECT_EQ(conv->chunk(3).location, ChunkLocation::kGpu);
  EXPECT_EQ(engine.stats().dedup_hit_requests, 1);  // the reader's; the undo took its own back
  engine.cache().CheckInvariants();

  const std::vector<RequestOutcome> outcomes = Drain(&engine, now);
  EXPECT_EQ(outcomes.size(), 2u);
  engine.cache().CheckInvariants();
  engine.cache().VerifyNoLeaks();
}

}  // namespace
}  // namespace pensieve
