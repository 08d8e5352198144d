// Figure 15: impact of user think time — Pensieve serving Llama 2-13B on
// ShareGPT with mean think times of 60/120/300/600 s, plus vLLM at 600 s as
// the comparison point.
//
// Expected shape (paper §6.7): longer think times push KV-tokens out of the
// cache before the conversation returns, shrinking (but not eliminating)
// Pensieve's advantage over vLLM.

#include "bench/bench_serving_common.h"
#include "src/common/flags.h"
#include "src/model/model_config.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

void RunFigure15() {
  const GpuCostModel cost_model(Llama2_13BConfig(), A100Spec(1));
  const std::vector<double> rates = {0.5, 1.0, 2.0};
  std::printf("==== Figure 15: user think time, llama2-13b / sharegpt "
              "(cache scaled to 20%% so think time matters at this scale) ====\n");
  for (double think : {60.0, 120.0, 300.0, 600.0}) {
    SweepOptions options;
    options.num_conversations = BenchConversations(200);
    options.mean_think_time = think;
    // The steady-state window spans the arrival process; it must be long
    // enough that follow-up turns (one think time later) land inside it.
    options.target_arrival_span = 600.0 + 2.0 * think;
    options.overrides.cache_scale = 0.2;
    char title[64];
    std::snprintf(title, sizeof(title), "pensieve, think=%.0fs", think);
    PrintSweep(title, RateSweep(SystemKind::kPensieve, cost_model,
                                ShareGptProfile(), rates, options));
  }
  SweepOptions options;
  options.num_conversations = BenchConversations(200);
  options.mean_think_time = 600.0;
  options.target_arrival_span = 600.0 + 2.0 * 600.0;
  options.overrides.cache_scale = 0.2;
  PrintSweep("vllm, think=600s (comparison point)",
             RateSweep(SystemKind::kVllm, cost_model, ShareGptProfile(), rates,
                       options));
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) {
  pensieve::FlagParser flags;
  pensieve::ParseFlagsOrExit(&flags, argc, argv,
                             "bench_fig15_think_time: Figure 15, user think time");
  pensieve::RunFigure15();
  return 0;
}
