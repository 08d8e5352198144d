#include "src/sim/cost_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace pensieve {

GpuCostModel::GpuCostModel(const ModelConfig& model, const HardwareSpec& hw,
                           QuantMode weight_quant)
    : model_(model), hw_(hw), weight_quant_(weight_quant) {
  PENSIEVE_CHECK_EQ(model.num_gpus, hw.num_gpus);
  effective_flops_ = hw.gpu_flops * hw.num_gpus * (hw.num_gpus > 1 ? hw.tp_efficiency : 1.0);
  effective_hbm_ = hw.hbm_bandwidth * hw.num_gpus * (hw.num_gpus > 1 ? hw.tp_efficiency : 1.0);
  const double weight_bytes_per_value =
      weight_quant == QuantMode::kInt8 ? 1.0
                                       : static_cast<double>(model.bytes_per_value);
  weight_bytes_ = static_cast<double>(model.ApproxParamCount()) * weight_bytes_per_value;
}

double GpuCostModel::WeightReadTime() const { return weight_bytes_ / effective_hbm_; }

double GpuCostModel::LinearTime(int64_t num_tokens) const {
  if (num_tokens <= 0) {
    return 0.0;
  }
  const double flops = model_.NonAttentionFlopsPerToken() * static_cast<double>(num_tokens);
  // Small batches underutilize the GEMM units: utilization ramps as
  // T / (T + T_half), reaching ~half efficiency at T_half tokens.
  const double tokens = static_cast<double>(num_tokens);
  const double utilization =
      tokens / (tokens + hw_.gemm_utilization_half_tokens);
  const double math_time = flops / (effective_flops_ * utilization);
  // Activation traffic is negligible next to weight traffic; the weight
  // read is accounted once per step in StepTime, not per token here.
  return math_time;
}

double GpuCostModel::MarginalLinearTime(int64_t num_tokens) const {
  if (num_tokens <= 0) {
    return 0.0;
  }
  const double flops =
      model_.NonAttentionFlopsPerToken() * static_cast<double>(num_tokens);
  return flops / effective_flops_;
}

double GpuCostModel::AttentionTime(int64_t query_len, int64_t context_len) const {
  if (query_len <= 0) {
    return 0.0;
  }
  PENSIEVE_CHECK_GE(context_len, query_len);
  // Average causal context per query token: the i-th of `query_len` tokens
  // sees (context_len - query_len + i + 1) KV entries.
  const double avg_ctx =
      static_cast<double>(context_len) - static_cast<double>(query_len - 1) / 2.0;
  const double flops =
      model_.AttentionFlopsPerToken(1) * avg_ctx * static_cast<double>(query_len);
  const double math_time = flops / effective_flops_;
  // KV traffic: the kernel streams the context's K and V once per block
  // tile; queries within a tile share the load, so traffic ~ context size.
  const double kv_bytes =
      static_cast<double>(model_.KvBytesPerToken()) * static_cast<double>(context_len);
  const double mem_time = kv_bytes / effective_hbm_;
  return std::max(math_time, mem_time);
}

double GpuCostModel::StepTime(const std::vector<BatchItem>& items) const {
  int64_t total_tokens = 0;
  double attention_time = 0.0;
  for (const BatchItem& item : items) {
    total_tokens += item.query_len;
    attention_time += AttentionTime(item.query_len, item.context_len);
  }
  if (total_tokens == 0) {
    return 0.0;
  }
  const double dense_math = LinearTime(total_tokens);
  // Dense work is bounded below by reading the weights once per step.
  const double dense_time = std::max(dense_math, WeightReadTime());
  const double overhead =
      hw_.step_overhead + hw_.layer_overhead * static_cast<double>(model_.num_layers);
  return dense_time + attention_time + overhead;
}

double GpuCostModel::ChunkRecomputeCost(int64_t chunk_size, int64_t context_len) const {
  const double attn = AttentionTime(chunk_size, context_len);
  // Recomputation rides inside a unified batch, so its dense cost is the
  // marginal (fully-utilized) one.
  const double other = MarginalLinearTime(chunk_size) +
                       hw_.layer_overhead * static_cast<double>(model_.num_layers);
  return attn + other;
}

double RestoreStall(double compute_s, double transfer_s, int64_t num_layers,
                    bool pipelined) {
  if (transfer_s <= 0.0) {
    return 0.0;
  }
  if (!pipelined) {
    return transfer_s;
  }
  PENSIEVE_CHECK_GT(num_layers, 0);
  // Layer l's KV must land before layer l's attention runs. With uniform
  // per-layer transfer and compute, the binding constraint is the last
  // layer: its data lands at `transfer_s`, its compute would start at
  // compute_s * (L-1) / L. The first layer additionally waits for its own
  // slice (transfer_s / L).
  const double last_layer_wait =
      transfer_s - compute_s * static_cast<double>(num_layers - 1) /
                       static_cast<double>(num_layers);
  const double first_layer_wait = transfer_s / static_cast<double>(num_layers);
  return std::max(first_layer_wait, std::max(0.0, last_layer_wait));
}

}  // namespace pensieve
