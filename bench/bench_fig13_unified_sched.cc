// Figure 13: effect of unified scheduling — Pensieve with prefill and
// generation unified into one batch step versus the split-phase variant,
// Llama 2-13B on ShareGPT.
//
// Expected shape (paper §6.5): unified scheduling achieves better latency
// and throughput because prefills no longer run as separate small-batch
// kernel invocations that stall the decoding requests.

#include "bench/bench_serving_common.h"
#include "src/common/flags.h"
#include "src/model/model_config.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

void RunFigure13() {
  const std::vector<double> rates = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0};
  const GpuCostModel cost_model(Llama2_13BConfig(), A100Spec(1));
  SweepOptions options;
  options.num_conversations = BenchConversations();
  options.mean_think_time = 60.0;

  std::printf("==== Figure 13: unified vs split scheduling, llama2-13b / "
              "sharegpt ====\n");
  options.overrides.unified_scheduling = true;
  options.overrides.name_suffix = "-unified";
  PrintSweep("pensieve (unified scheduling)",
             RateSweep(SystemKind::kPensieve, cost_model, ShareGptProfile(), rates,
                       options));
  options.overrides.unified_scheduling = false;
  options.overrides.name_suffix = "-split";
  PrintSweep("pensieve (split prefill/decode)",
             RateSweep(SystemKind::kPensieve, cost_model, ShareGptProfile(), rates,
                       options));
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) {
  pensieve::FlagParser flags;
  pensieve::ParseFlagsOrExit(&flags, argc, argv,
                             "bench_fig13_unified_sched: Figure 13, unified scheduling");
  pensieve::RunFigure13();
  return 0;
}
