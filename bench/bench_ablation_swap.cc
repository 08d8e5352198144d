// Ablations of the swapping design decisions (DESIGN.md §4):
//  1. Ahead-of-time swap-out threshold (paper uses 25% free).
//  2. Pipelined layer-by-layer restore (paper §4.3.3) vs blocking restore.
//  3. Decode reservation (paper §4.3.5 keeps 10% of GPU slots).

#include <cstdio>

#include "bench/bench_serving_common.h"
#include "src/common/flags.h"
#include "src/model/model_config.h"
#include "src/serving/pensieve_engine.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

ServingSummary RunWith(const GpuCostModel& cost_model, double rate,
                       double swap_threshold, bool pipelined, double reserve,
                       bool smoke) {
  TraceOptions trace_options;
  trace_options.num_conversations = BenchConversations(smoke ? 12 : 200);
  trace_options.conversation_rate = rate;
  trace_options.mean_think_time = 60.0;
  WorkloadTrace trace(ShareGptProfile(), trace_options);

  PensieveEngineOptions options;
  const int64_t gpu_tokens = static_cast<int64_t>(
      0.25 * static_cast<double>(
                 GpuKvCacheTokens(cost_model.model(), cost_model.hardware())));
  const int64_t cpu_tokens = static_cast<int64_t>(
      0.25 * static_cast<double>(
                 CpuKvCacheTokens(cost_model.model(), cost_model.hardware())));
  options.num_gpu_blocks = gpu_tokens / options.block_size;
  options.num_cpu_blocks = cpu_tokens / options.block_size;
  options.swap_out_threshold = swap_threshold;
  options.pipelined_restore = pipelined;
  options.decode_reserve = reserve;
  PensieveEngine engine(cost_model, options);
  return RunServingExperiment(&engine, trace);
}

void RunAblations(bool smoke) {
  const GpuCostModel cost_model(Opt13BConfig(), A100Spec(1));
  const double rate = 2.0;

  std::printf("==== Ablation 1: ahead-of-time swap-out threshold (paper: 0.25) "
              "====\n");
  std::printf("%-12s %-14s %-14s %-22s %-20s\n", "threshold", "tput(req/s)",
              "p90_lat(ms)", "forced_swap_tokens", "aot_swap_tokens");
  const std::vector<double> thresholds =
      smoke ? std::vector<double>{0.0, 0.25}
            : std::vector<double>{0.0, 0.1, 0.25, 0.5};
  for (double threshold : thresholds) {
    ServingSummary s = RunWith(cost_model, rate, threshold, true, 0.10, smoke);
    std::printf("%-12.2f %-14.3f %-14.1f %-22ld %-20ld\n", threshold,
                s.throughput_rps, s.p90_normalized_latency * 1e3,
                static_cast<long>(s.engine_stats.forced_swap_out_tokens),
                static_cast<long>(s.engine_stats.aot_swap_out_tokens));
  }

  std::printf("\n==== Ablation 2: pipelined layer-by-layer restore (paper "
              "§4.3.3) ====\n");
  std::printf("%-12s %-14s %-14s %-22s\n", "pipelined", "tput(req/s)",
              "p90_lat(ms)", "restore_stall(s)");
  double stall_pipelined = 0.0;
  double stall_blocking = 0.0;
  for (bool pipelined : {true, false}) {
    ServingSummary s = RunWith(cost_model, rate, 0.25, pipelined, 0.10, smoke);
    std::printf("%-12s %-14.3f %-14.1f %-22.3f\n", pipelined ? "yes" : "no",
                s.throughput_rps, s.p90_normalized_latency * 1e3,
                s.engine_stats.restore_stall_seconds);
    (pipelined ? stall_pipelined : stall_blocking) =
        s.engine_stats.restore_stall_seconds;
  }
  // --smoke self-check: layer-pipelined restore can only hide stall.
  if (smoke && stall_pipelined > stall_blocking) {
    std::fprintf(stderr,
                 "FAIL: pipelined restore stalled longer than blocking "
                 "(%.3f s > %.3f s)\n", stall_pipelined, stall_blocking);
    std::exit(1);
  }

  std::printf("\n==== Ablation 3: decode reservation (paper §4.3.5: 0.10) ====\n");
  std::printf("%-12s %-14s %-14s %-14s\n", "reserve", "tput(req/s)",
              "p90_lat(ms)", "suspensions");
  const std::vector<double> reserves =
      smoke ? std::vector<double>{0.0, 0.10}
            : std::vector<double>{0.0, 0.05, 0.10, 0.25};
  for (double reserve : reserves) {
    ServingSummary s = RunWith(cost_model, rate, 0.25, true, reserve, smoke);
    std::printf("%-12.2f %-14.3f %-14.1f %-14ld\n", reserve, s.throughput_rps,
                s.p90_normalized_latency * 1e3,
                static_cast<long>(s.engine_stats.suspensions));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) {
  pensieve::FlagParser flags;
  flags.AddBool("smoke", false, "CI-sized run with the pipelined-restore self-check");
  pensieve::ParseFlagsOrExit(&flags, argc, argv,
                             "bench_ablation_swap: swapping-design ablations");
  const bool smoke = flags.GetBool("smoke");
  pensieve::RunAblations(smoke);
  return 0;
}
