// Per-layer replays for the numeric path. Each replays public library calls
// at the shapes the numeric chat pass runs (the model's projection shapes,
// its prompt and context lengths, its KV block geometry) and reports time per
// call.
// FLOPs and bytes are computed from tensor sizes, not measured by counters.

#ifndef PERFBENCH_DRIVER_LAYER_REPLAY_H_
#define PERFBENCH_DRIVER_LAYER_REPLAY_H_

#include <cstdint>

#include "perfbench/driver/report.h"
#include "perfbench/driver/spans.h"
#include "src/model/model_config.h"

namespace perfbench {

struct ReplayShapes {
  int64_t prefill_tokens = 0;   // prompt length of a long turn
  int64_t decode_context = 0;   // context length of a typical decode step
  int64_t block_size = 16;
};

// Adds model.*, tensor.*, kernels.*, host.triad_gbps and the numeric
// kvcache.swap_*_us_per_block metrics to `result`. Every workload's traced
// run calls it, so each traced result carries the same per-layer set.
void AddNumericLayerReplays(const pensieve::ModelConfig& model, const ReplayShapes& shapes,
                            SpanRecorder* spans, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LAYER_REPLAY_H_
