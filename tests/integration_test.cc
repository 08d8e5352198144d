// Cross-system integration tests: small-scale versions of the paper's
// headline comparisons, asserting the *shape* of the results (who wins).

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/model/model_config.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

ServingSummary RunSystem(SystemKind kind, const GpuCostModel& model, double rate,
                         int64_t conversations = 60, uint64_t seed = 5) {
  TraceOptions trace_options;
  trace_options.num_conversations = conversations;
  trace_options.conversation_rate = rate;
  trace_options.mean_think_time = 20.0;
  trace_options.seed = seed;
  WorkloadTrace trace(ShareGptProfile(), trace_options);
  auto engine = MakeEngine(kind, model);
  return RunServingExperiment(engine.get(), trace);
}

TEST(IntegrationTest, PensieveAvoidsRecomputationVllmDoesNot) {
  GpuCostModel model(Opt13BConfig(), A100Spec(1));
  ServingSummary pensieve = RunSystem(SystemKind::kPensieve, model, 0.5);
  ServingSummary vllm = RunSystem(SystemKind::kVllm, model, 0.5);
  EXPECT_EQ(pensieve.completed_requests, vllm.completed_requests);
  // Pensieve reuses nearly all history; vLLM recomputes all of it.
  EXPECT_LT(pensieve.engine_stats.recomputed_history_tokens,
            vllm.engine_stats.recomputed_history_tokens / 10);
  EXPECT_GT(pensieve.engine_stats.CacheHitRate(), 0.9);
  // Fewer prefill tokens => less GPU busy time.
  EXPECT_LT(pensieve.engine_stats.prefill_tokens, vllm.engine_stats.prefill_tokens);
}

TEST(IntegrationTest, PensieveLatencyBeatsVllmUnderLoad) {
  GpuCostModel model(Opt13BConfig(), A100Spec(1));
  const double rate = 0.6;
  ServingSummary pensieve = RunSystem(SystemKind::kPensieve, model, rate);
  ServingSummary vllm = RunSystem(SystemKind::kVllm, model, rate);
  EXPECT_LT(pensieve.p90_normalized_latency, vllm.p90_normalized_latency);
}

TEST(IntegrationTest, TensorRtBeatsVllmButNotPensieve) {
  // Paper Figure 10: TRT-LLM consistently outperforms vLLM (dense-operator
  // fusion) but Pensieve overtakes both by avoiding recomputation.
  GpuCostModel model(Opt13BConfig(), A100Spec(1));
  const double rate = 0.6;
  ServingSummary trt = RunSystem(SystemKind::kTensorRtLlm, model, rate);
  ServingSummary vllm = RunSystem(SystemKind::kVllm, model, rate);
  ServingSummary pensieve = RunSystem(SystemKind::kPensieve, model, rate);
  EXPECT_LT(trt.p90_normalized_latency, vllm.p90_normalized_latency);
  EXPECT_LT(pensieve.p90_normalized_latency, trt.p90_normalized_latency);
}

TEST(IntegrationTest, GpuOnlyVariantFallsBetweenPensieveAndVllm) {
  GpuCostModel model(Opt13BConfig(), A100Spec(1));
  const double rate = 0.6;
  ServingSummary full = RunSystem(SystemKind::kPensieve, model, rate);
  ServingSummary gpu_only = RunSystem(SystemKind::kPensieveGpuOnly, model, rate);
  // The GPU-only cache still reuses some history but recomputes more than
  // the two-tier cache.
  EXPECT_GE(gpu_only.engine_stats.recomputed_history_tokens,
            full.engine_stats.recomputed_history_tokens);
}

TEST(IntegrationTest, GqaModelRaisesPensieveAdvantage) {
  // Paper: Llama 2-13B (GQA group 4) stores 4x more KV tokens, so Pensieve
  // keeps a higher hit rate under the same memory budget than with OPT-13B
  // when the cache is under pressure.
  HardwareSpec hw = A100Spec(1);
  // Shrink the cache to create pressure at this small scale (but keep it
  // larger than the 16K maximum conversation so every request fits).
  EngineOverrides overrides;
  overrides.cache_scale = 0.4;
  SweepOptions sweep;
  sweep.target_arrival_span = 0;  // fixed-size regime validated for direction
  sweep.num_conversations = 120;
  sweep.mean_think_time = 20.0;
  sweep.overrides = overrides;

  GpuCostModel opt(Opt13BConfig(), hw);
  GpuCostModel llama(Llama2_13BConfig(), hw);
  auto opt_points = RateSweep(SystemKind::kPensieve, opt, ShareGptProfile(), {0.5},
                              sweep);
  auto llama_points = RateSweep(SystemKind::kPensieve, llama, ShareGptProfile(),
                                {0.5}, sweep);
  EXPECT_GE(llama_points[0].summary.engine_stats.CacheHitRate(),
            opt_points[0].summary.engine_stats.CacheHitRate());
}

TEST(IntegrationTest, RetentionPolicyRecomputesNoMoreThanLru) {
  // Paper Figure 14 / §6.6: the retention-value policy beats classic
  // (conversation-granularity) LRU under cache pressure. The effect is
  // modest in the paper (up to 14.6% fewer recomputed tokens, only beyond
  // ~3 req/s on a 48K-conversation trace) and smaller still at this test's
  // scale, so the assertion averages several seeds and allows 2% slack;
  // bench_fig14_eviction reports the full comparison.
  GpuCostModel model(Opt13BConfig(), A100Spec(1));
  auto run = [&](EvictionPolicyKind policy) {
    double recompute_seconds = 0.0;
    for (uint64_t seed : {42ULL, 7ULL, 101ULL, 2024ULL, 555ULL}) {
      EngineOverrides overrides;
      overrides.cache_scale = 0.3;  // heavy pressure at small scale
      overrides.policy = policy;
      SweepOptions sweep;
      sweep.target_arrival_span = 0;
      sweep.num_conversations = 200;
      sweep.mean_think_time = 60.0;
      sweep.seed = seed;
      sweep.overrides = overrides;
      auto points =
          RateSweep(SystemKind::kPensieve, model, ShareGptProfile(), {1.0}, sweep);
      recompute_seconds += points[0].summary.engine_stats.recompute_seconds;
    }
    return recompute_seconds;
  };
  const double retention = run(EvictionPolicyKind::kRetentionValue);
  const double conversation_lru = run(EvictionPolicyKind::kConversationLru);
  EXPECT_LE(retention, conversation_lru * 1.02);
}

TEST(IntegrationTest, LongerThinkTimeLowersHitRate) {
  // Paper Figure 15: longer user think times cause more cache turnover.
  GpuCostModel model(Opt13BConfig(), A100Spec(1));
  EngineOverrides overrides;
  overrides.cache_scale = 0.4;
  SweepOptions fast;
  fast.target_arrival_span = 0;  // fixed-size regime validated for direction
  fast.num_conversations = 120;
  fast.mean_think_time = 5.0;
  fast.overrides = overrides;
  SweepOptions slow = fast;
  slow.mean_think_time = 200.0;

  auto short_think =
      RateSweep(SystemKind::kPensieve, model, ShareGptProfile(), {0.5}, fast);
  auto long_think =
      RateSweep(SystemKind::kPensieve, model, ShareGptProfile(), {0.5}, slow);
  EXPECT_GE(short_think[0].summary.engine_stats.CacheHitRate(),
            long_think[0].summary.engine_stats.CacheHitRate());
}

TEST(IntegrationTest, UnifiedSchedulingNoWorseThanSplit) {
  // Paper Figure 13.
  GpuCostModel model(Llama2_13BConfig(), A100Spec(1));
  EngineOverrides unified;
  EngineOverrides split;
  split.unified_scheduling = false;
  SweepOptions sweep_unified;
  sweep_unified.target_arrival_span = 0;  // fixed-size regime validated for direction
  sweep_unified.num_conversations = 60;
  sweep_unified.mean_think_time = 20.0;
  sweep_unified.overrides = unified;
  SweepOptions sweep_split = sweep_unified;
  sweep_split.overrides = split;

  auto u = RateSweep(SystemKind::kPensieve, model, ShareGptProfile(), {0.8},
                     sweep_unified);
  auto s = RateSweep(SystemKind::kPensieve, model, ShareGptProfile(), {0.8},
                     sweep_split);
  EXPECT_LE(u[0].summary.p90_normalized_latency,
            s[0].summary.p90_normalized_latency * 1.05);
}

TEST(IntegrationTest, CacheInvariantsHoldAfterFullExperiment) {
  GpuCostModel model(Opt13BConfig(), A100Spec(1));
  TraceOptions trace_options;
  trace_options.num_conversations = 40;
  trace_options.conversation_rate = 1.0;
  trace_options.mean_think_time = 10.0;
  WorkloadTrace trace(UltraChatProfile(), trace_options);
  PensieveEngineOptions options;
  options.num_gpu_blocks =
      GpuKvCacheTokens(model.model(), model.hardware()) * 2 / 5 / 32;
  options.num_cpu_blocks = options.num_gpu_blocks * 2;
  PensieveEngine engine(model, options);
  ServingSummary summary = RunServingExperiment(&engine, trace);
  EXPECT_EQ(summary.completed_requests, trace.TotalRequests());
  engine.cache().CheckInvariants();
}

}  // namespace
}  // namespace pensieve
