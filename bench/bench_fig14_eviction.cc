// Figure 14 / §6.6: effect of the eviction policy — Pensieve's
// retention-value policy (V = Cost/T, chunk granularity) versus classic LRU
// (conversation granularity, as in CachedAttention) and the chunk-level LRU
// and cost-only ablations, OPT-13B on ShareGPT.
//
// The cache is scaled down so that eviction pressure appears at this
// experiment scale (the paper reaches pressure at ~3 req/s with its full
// 48K-conversation trace). Reported per point: recomputed-token counts,
// recompute GPU-seconds, and CPU-cache hit rates — the quantities §6.6
// analyzes (paper: up to 4.4pp higher CPU hit rate, up to 14.6% fewer
// recomputed tokens than LRU).
//
// A second section sweeps the eviction chunk size (32 in the paper).

#include "bench/bench_serving_common.h"
#include "src/common/flags.h"
#include "src/model/model_config.h"
#include "src/serving/pensieve_engine.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

void PolicyComparison() {
  const GpuCostModel cost_model(Opt13BConfig(), A100Spec(1));
  const std::vector<double> rates = {0.5, 1.0, 2.0, 3.0};
  std::printf("==== Figure 14: eviction policies, opt-13b / sharegpt "
              "(cache scaled to 30%% for pressure) ====\n");
  const struct {
    EvictionPolicyKind kind;
    const char* label;
  } kPolicies[] = {
      {EvictionPolicyKind::kRetentionValue, "retention-value (Pensieve)"},
      {EvictionPolicyKind::kConversationLru, "classic LRU (conversation granularity)"},
      {EvictionPolicyKind::kLru, "LRU (chunk granularity)"},
      {EvictionPolicyKind::kCostOnly, "cost-only (no recency)"},
  };
  for (const auto& policy : kPolicies) {
    SweepOptions options;
    options.num_conversations = BenchConversations(200);
    options.mean_think_time = 60.0;
    options.overrides.cache_scale = 0.3;
    options.overrides.policy = policy.kind;
    std::vector<SweepPoint> points =
        RateSweep(SystemKind::kPensieve, cost_model, ShareGptProfile(), rates,
                  options);
    std::printf("## %s\n", policy.label);
    std::printf("%-10s %-14s %-14s %-16s %-12s %-18s\n", "conv_rate",
                "tput(req/s)", "p90_lat(ms)", "recomp_tokens", "cpu_hit",
                "recompute_gpu(s)");
    for (const SweepPoint& p : points) {
      const EngineStats& s = p.summary.engine_stats;
      std::printf("%-10.2f %-14.3f %-14.1f %-16ld %-12.3f %-18.3f\n",
                  p.conversation_rate, p.summary.throughput_rps,
                  p.summary.p90_normalized_latency * 1e3,
                  static_cast<long>(s.recomputed_history_tokens),
                  s.CpuCacheHitRate(), s.recompute_seconds);
    }
    std::printf("\n");
  }
}

void ChunkSizeAblation() {
  const GpuCostModel cost_model(Opt13BConfig(), A100Spec(1));
  std::printf("==== Ablation: eviction chunk size (paper picks 32) ====\n");
  std::printf("%-12s %-14s %-14s %-16s %-12s\n", "chunk_size", "tput(req/s)",
              "p90_lat(ms)", "recomp_tokens", "cpu_hit");
  for (int64_t chunk : {8L, 16L, 32L, 64L, 128L}) {
    TraceOptions trace_options;
    trace_options.num_conversations = BenchConversations(200);
    trace_options.conversation_rate = 2.0;
    trace_options.mean_think_time = 60.0;
    WorkloadTrace trace(ShareGptProfile(), trace_options);
    PensieveEngineOptions options;
    options.block_size = chunk;
    const int64_t gpu_tokens = static_cast<int64_t>(
        0.3 * static_cast<double>(GpuKvCacheTokens(cost_model.model(),
                                                   cost_model.hardware())));
    const int64_t cpu_tokens = static_cast<int64_t>(
        0.3 * static_cast<double>(CpuKvCacheTokens(cost_model.model(),
                                                   cost_model.hardware())));
    options.num_gpu_blocks = gpu_tokens / chunk;
    options.num_cpu_blocks = cpu_tokens / chunk;
    PensieveEngine engine(cost_model, options);
    ServingSummary summary = RunServingExperiment(&engine, trace);
    std::printf("%-12ld %-14.3f %-14.1f %-16ld %-12.3f\n", chunk,
                summary.throughput_rps, summary.p90_normalized_latency * 1e3,
                static_cast<long>(summary.engine_stats.recomputed_history_tokens),
                summary.engine_stats.CpuCacheHitRate());
  }
  std::printf("\n");
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) {
  pensieve::FlagParser flags;
  pensieve::ParseFlagsOrExit(&flags, argc, argv,
                             "bench_fig14_eviction: Figure 14, eviction policies");
  pensieve::PolicyComparison();
  pensieve::ChunkSizeAblation();
  return 0;
}
