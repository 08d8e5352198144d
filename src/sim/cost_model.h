// Analytical GPU execution-cost model.
//
// Produces the step latency of a unified batch on the simulated A100s using
// a roofline formulation: every step pays max(math time, memory time) for
// its non-attention (dense) work plus per-request attention terms whose cost
// grows linearly with context length (the property the eviction policy
// exploits, paper Figure 4).

#ifndef PENSIEVE_SRC_SIM_COST_MODEL_H_
#define PENSIEVE_SRC_SIM_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/model/model_config.h"
#include "src/sim/hardware.h"
#include "src/tensor/packed_matrix.h"

namespace pensieve {

class GpuCostModel {
 public:
  // weight_quant models int8 weight storage: the per-step weight-read floor
  // (the memory-bound decode bound) streams one byte per parameter instead
  // of bytes_per_value. FLOP counts are unchanged — accumulation stays
  // wide — so only the bandwidth term moves, matching the CPU substrate's
  // prepacked int8 microkernels.
  GpuCostModel(const ModelConfig& model, const HardwareSpec& hw,
               QuantMode weight_quant = QuantMode::kFp32);

  const ModelConfig& model() const { return model_; }
  const HardwareSpec& hardware() const { return hw_; }
  QuantMode weight_quant() const { return weight_quant_; }

  // One request's contribution to a batch step: it processes `query_len`
  // input tokens attending to a total context of `context_len` tokens
  // (context includes the query tokens themselves).
  struct BatchItem {
    int64_t query_len = 0;
    int64_t context_len = 0;
  };

  // Latency of one unified batch step (seconds).
  double StepTime(const std::vector<BatchItem>& items) const;

  // Dense (non-attention) time to process `num_tokens` input tokens as a
  // whole step: projections + FFN, with small-batch GEMM underutilization.
  double LinearTime(int64_t num_tokens) const;

  // Marginal dense cost of `num_tokens` extra tokens riding inside an
  // already-large batch (full GEMM utilization). Used for per-chunk
  // recomputation costing: dropped-prefix recompute executes merged into
  // the unified batch, not as its own kernel.
  double MarginalLinearTime(int64_t num_tokens) const;

  // Attention time for one request: `query_len` tokens attending causally
  // within a context of `context_len` (roofline of score/aggregate math vs
  // KV-cache traffic).
  double AttentionTime(int64_t query_len, int64_t context_len) const;

  // Time to read the model weights once (memory-bound floor of any step).
  double WeightReadTime() const;

  // KV bytes per token per GPU (fp16), for swap sizing.
  int64_t KvBytesPerToken() const { return model_.KvBytesPerTokenPerGpu(); }

  // --- Eviction-policy profiling hooks (paper §4.3.1) --------------------
  // Cost of recomputing a chunk of `chunk_size` tokens whose last token has
  // context `context_len`: Cost_attention(chunk, l) + Cost_other(chunk).
  double ChunkRecomputeCost(int64_t chunk_size, int64_t context_len) const;

 private:
  ModelConfig model_;
  HardwareSpec hw_;
  QuantMode weight_quant_ = QuantMode::kFp32;
  double effective_flops_;   // across all tensor-parallel GPUs
  double effective_hbm_;     // across all tensor-parallel GPUs
  double weight_bytes_;
};

// Models the stall added to a step when `transfer_s` seconds of swap-in
// traffic must land before the corresponding layers can attend. With
// pipelined layer-by-layer restore (paper §4.3.3) transfers overlap earlier
// layers' compute; without it the step blocks for the whole transfer.
double RestoreStall(double compute_s, double transfer_s, int64_t num_layers,
                    bool pipelined);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SIM_COST_MODEL_H_
