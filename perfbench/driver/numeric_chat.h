// The numeric chat pass: multi-turn chat on the real numeric path
// (StatefulLlmServer -> Transformer::ForwardInto -> packed GEMM and paged
// attention), closed loop with one client, run at the end of every simulated
// workload run. Its wall-clock figures swung by up to a quarter between runs,
// too much to gate on, so it feeds output checks and per-layer metrics only.

#ifndef PERFBENCH_DRIVER_NUMERIC_CHAT_H_
#define PERFBENCH_DRIVER_NUMERIC_CHAT_H_

#include <cstdint>
#include <memory>

#include "perfbench/driver/layer_replay.h"
#include "perfbench/driver/report.h"
#include "perfbench/driver/spans.h"
#include "src/model/model_config.h"

namespace perfbench {

// Llama-style model (GQA, RoPE, SwiGLU) at the server's hidden-size cap of
// 512: two layers, about 23 MB of fp32 projection weights plus a 4 MB
// embedding, far larger than a core's L2. A deeper model streams more weight
// bytes per step than a shared L3 reliably keeps, and its turn times then
// follow the other tenants' cache use.
pensieve::ModelConfig NumericChatModel();

// The shapes the numeric pass's turns run at: the median long prompt and the
// median context, at the server's block size.
ReplayShapes NumericChatShapes();

// Wall seconds of the kernel-timed eviction-cost profile the numeric pass's
// server builds when it is constructed: the same
// ChunkCostEstimator::ProfileFromKernels call, with the server's arguments.
double TimeEvictionProfile(SpanRecorder* spans);

// The numeric pass. Construction is set-up: the seeded turns, and a server
// whose GPU tier holds about a third of the live working set (model
// construction, weight packing, ProfileFromKernels, system-prompt
// registration). Run() plays the turns once, checks every turn's tokens
// against a pressure-free replay (each turn is one attempted operation) and
// notes the pass's swapped-in and recomputed token counts. With `spans` set (a
// traced run) it records the calls and adds the core.*, kvcache.numeric_* and
// numeric-path replay metrics.
class NumericChat {
 public:
  NumericChat(uint64_t seed, SpanRecorder* spans);
  ~NumericChat();
  NumericChat(const NumericChat&) = delete;
  NumericChat& operator=(const NumericChat&) = delete;

  void Run(SpanRecorder* spans, RunResult* result);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_NUMERIC_CHAT_H_
