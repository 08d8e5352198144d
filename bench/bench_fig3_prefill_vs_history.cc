// Figure 3: execution time for a batch of 32 requests performing prompt
// prefill (200 new tokens) with growing conversation history, versus the
// 200-step generation phase.
//
// The paper's motivating measurement: as the history grows, the cost of
// re-processing it (stateless prefill) quickly overtakes the entire
// generation phase, while a stateful prefill that reuses cached history
// stays flat.

#include <cstdio>
#include <vector>

#include "bench_serving_common.h"
#include "src/common/flags.h"
#include "src/model/model_config.h"
#include "src/sim/cost_model.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

void RunFigure3() {
  const GpuCostModel model(Opt13BConfig(), A100Spec(1));
  constexpr int64_t kBatch = 32;
  constexpr int64_t kPrompt = 200;
  constexpr int64_t kGenSteps = 200;

  // Generation phase: 200 decode steps over the full batch. The context
  // grows by one per step; use the average context for each history size.
  auto generation_time = [&](int64_t history) {
    double total = 0.0;
    for (int64_t step = 0; step < kGenSteps; ++step) {
      std::vector<GpuCostModel::BatchItem> items(
          kBatch, {1, history + kPrompt + step + 1});
      total += model.StepTime(items);
    }
    return total;
  };

  std::printf("# Figure 3: prefill vs generation cost, OPT-13B, batch=32, "
              "prompt=200, 200 generation steps\n");
  std::printf("%-10s %-26s %-26s %-22s\n", "history", "prefill_recompute(s)",
              "prefill_cached_history(s)", "generation_200_steps(s)");
  for (int64_t history : {0L, 512L, 1024L, 2048L, 4096L, 8192L, 12288L, 16384L}) {
    // Stateless: the history is re-processed together with the prompt.
    std::vector<GpuCostModel::BatchItem> stateless(
        kBatch, {history + kPrompt, history + kPrompt});
    // Stateful: only the 200 new prompt tokens are processed; they attend
    // to the cached history.
    std::vector<GpuCostModel::BatchItem> stateful(kBatch,
                                                  {kPrompt, history + kPrompt});
    std::printf("%-10ld %-26.3f %-26.3f %-22.3f\n", history,
                model.StepTime(stateless), model.StepTime(stateful),
                generation_time(history));
  }
  std::printf("\nShape check: stateless prefill grows ~linearly with history and "
              "overtakes the generation phase;\nstateful prefill (cached history) "
              "stays nearly flat.\n");
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) {
  pensieve::FlagParser flags;
  pensieve::ParseFlagsOrExit(&flags, argc, argv,
                             "bench_fig3_prefill_vs_history: Figure 3, prefill time vs "
                             "history");
  pensieve::RunFigure3();
  return 0;
}
