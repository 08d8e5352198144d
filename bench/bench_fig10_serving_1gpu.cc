// Figure 10: end-to-end serving performance on 1 GPU.
//
// Normalized p90 latency vs throughput for OPT-13B and Llama 2-13B on the
// ShareGPT and UltraChat workloads, comparing Pensieve, Pensieve (GPU
// cache), vLLM and TensorRT-LLM. Each system gets 40 GB of GPU KV cache
// (paper §6.1); user think time is 60 s.
//
// Expected shape (paper §6.2): TRT-LLM > vLLM throughout (dense-operator
// fusion); Pensieve beats both once conversations return (its prefills skip
// the cached history); the gap is larger on ShareGPT (more turns per
// conversation) and larger for Llama 2-13B (GQA stores 4x more KV tokens).

#include "bench/bench_serving_common.h"
#include "src/common/flags.h"
#include "src/model/model_config.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

void RunFigure10() {
  const std::vector<double> rates = {0.25, 0.5, 1.0, 1.5, 2.0, 3.0};
  const std::vector<SystemKind> systems = {
      SystemKind::kPensieve, SystemKind::kPensieveGpuOnly, SystemKind::kVllm,
      SystemKind::kTensorRtLlm};
  SweepOptions options;
  options.num_conversations = BenchConversations();
  options.mean_think_time = 60.0;

  const HardwareSpec hw = A100Spec(1);
  for (const ModelConfig& model : {Opt13BConfig(), Llama2_13BConfig()}) {
    const GpuCostModel cost_model(model, hw);
    for (const DatasetProfile& profile : {ShareGptProfile(), UltraChatProfile()}) {
      RunSystemsSweep("Figure 10: " + model.name + " / " + profile.name +
                          " (1 GPU, think=60s)",
                      cost_model, profile, systems, rates, options);
    }
  }
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) {
  pensieve::FlagParser flags;
  pensieve::ParseFlagsOrExit(&flags, argc, argv,
                             "bench_fig10_serving_1gpu: Figure 10, serving on 1 GPU");
  pensieve::RunFigure10();
  return 0;
}
