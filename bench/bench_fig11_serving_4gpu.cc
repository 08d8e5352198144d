// Figure 11: end-to-end serving performance on 4 GPUs (tensor parallelism)
// for OPT-66B and Llama 2-70B on ShareGPT.
//
// Expected shape (paper §6.3): larger models amplify Pensieve's advantage —
// compute grows faster than KV size (OPT-13B -> OPT-66B: >5x compute,
// 2.88x KV bytes/token), so avoiding recomputation buys relatively more;
// Llama 2-70B (GQA group 8) benefits most, including the GPU-cache-only
// variant.

#include "bench/bench_serving_common.h"
#include "src/common/flags.h"
#include "src/model/model_config.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

void RunFigure11() {
  const std::vector<double> rates = {0.2, 0.4, 0.8, 1.6, 2.4, 3.2};
  const std::vector<SystemKind> systems = {
      SystemKind::kPensieve, SystemKind::kPensieveGpuOnly, SystemKind::kVllm,
      SystemKind::kTensorRtLlm};
  SweepOptions options;
  options.num_conversations = BenchConversations();
  options.mean_think_time = 60.0;

  const HardwareSpec hw = A100Spec(4);
  for (const ModelConfig& model : {Opt66BConfig(), Llama2_70BConfig()}) {
    const GpuCostModel cost_model(model, hw);
    RunSystemsSweep("Figure 11: " + model.name + " / sharegpt (4 GPUs, think=60s)",
                    cost_model, ShareGptProfile(), systems, rates, options);
  }
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) {
  pensieve::FlagParser flags;
  pensieve::ParseFlagsOrExit(&flags, argc, argv,
                             "bench_fig11_serving_4gpu: Figure 11, serving on 4 GPUs");
  pensieve::RunFigure11();
  return 0;
}
