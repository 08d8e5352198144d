#include "src/eviction/cost_estimator.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/common/logging.h"
#include "src/kernels/attention.h"
#include "src/kvcache/kv_pool.h"
#include "src/tensor/ops.h"

namespace pensieve {

ChunkCostEstimator ChunkCostEstimator::ProfileFromCostModel(const GpuCostModel& cost_model,
                                                            int64_t chunk_size,
                                                            int64_t max_context) {
  PENSIEVE_CHECK_GT(chunk_size, 0);
  InterpTable table;
  double prev = 0.0;
  for (int64_t ctx = chunk_size; ctx <= max_context; ctx *= 2) {
    const double cost = cost_model.ChunkRecomputeCost(chunk_size, ctx);
    PENSIEVE_CHECK_GE(cost, prev) << "chunk recompute cost dips at context " << ctx;
    table.AddPoint(static_cast<double>(ctx), cost);
    prev = cost;
  }
  PENSIEVE_CHECK(!table.empty());
  return ChunkCostEstimator(chunk_size, std::move(table), max_context);
}

ChunkCostEstimator ChunkCostEstimator::ProfileFromKernels(const ModelConfig& config,
                                                          int64_t chunk_size,
                                                          int64_t max_context) {
  PENSIEVE_CHECK_GT(chunk_size, 0);
  PENSIEVE_CHECK_LE(config.hidden_size, 512) << "kernel profiling is for tiny configs";
  const int64_t num_blocks = (max_context + chunk_size - 1) / chunk_size + 1;
  KvPool pool(num_blocks, chunk_size, /*num_layers=*/1, config.num_kv_heads,
              config.head_dim);
  // Populate the pool with arbitrary data; contents do not affect timing.
  Tensor kv({config.num_kv_heads, config.head_dim});
  FillNormal(kv, /*seed=*/7, 1.0f);
  for (BlockId b = 0; b < num_blocks; ++b) {
    for (int64_t slot = 0; slot < chunk_size; ++slot) {
      pool.WriteToken(b, 0, slot, kv.data(), kv.data());
    }
  }
  std::vector<BlockId> block_table;
  for (BlockId b = 0; b < num_blocks; ++b) {
    block_table.push_back(b);
  }
  Tensor query({chunk_size, config.num_heads, config.head_dim});
  FillNormal(query, /*seed=*/11, 1.0f);
  Tensor out({chunk_size, config.num_heads, config.head_dim});

  std::vector<std::pair<int64_t, double>> points;
  for (int64_t ctx = chunk_size; ctx <= max_context; ctx *= 2) {
    AttentionSubRequest sub;
    sub.query_start = 0;
    sub.query_len = chunk_size;
    sub.context_len = ctx;
    sub.block_table = &block_table;
    // The fastest of the timed repetitions: a preempted one only ever reads
    // slow, so a mean would let one descheduled sample flatten the curve.
    constexpr int kReps = 3;
    double seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      MultiTokenPagedAttention(pool, /*layer=*/0, query, {sub}, /*scale=*/0.125f, &out);
      const auto end = std::chrono::steady_clock::now();
      seconds = std::min(seconds, std::chrono::duration<double>(end - start).count());
    }
    points.emplace_back(ctx, seconds);
  }
  return FromMeasurements(chunk_size, points);
}

ChunkCostEstimator ChunkCostEstimator::FromMeasurements(
    int64_t chunk_size, const std::vector<std::pair<int64_t, double>>& points) {
  PENSIEVE_CHECK_GT(chunk_size, 0);
  PENSIEVE_CHECK(!points.empty());
  InterpTable table;
  double running_max = 0.0;
  for (const auto& [ctx, seconds] : points) {
    running_max = std::max(running_max, seconds);
    table.AddPoint(static_cast<double>(ctx), running_max);
  }
  return ChunkCostEstimator(chunk_size, std::move(table), points.back().first);
}

ChunkCostEstimator::ChunkCostEstimator(int64_t chunk_size, InterpTable table,
                                       int64_t max_context)
    : chunk_size_(chunk_size), table_(std::move(table)) {
  for (int64_t ctx = 0; ctx <= max_context; ctx += chunk_size_) {
    whole_chunk_costs_.push_back(table_.Eval(static_cast<double>(ctx)));
  }
}

double ChunkCostEstimator::Cost(int64_t context_len) const {
  if (context_len % chunk_size_ == 0 &&
      context_len / chunk_size_ < static_cast<int64_t>(whole_chunk_costs_.size())) {
    return whole_chunk_costs_[static_cast<size_t>(context_len / chunk_size_)];
  }
  return table_.Eval(static_cast<double>(context_len));
}

RestoreAction PlanChunkRestore(const ChunkCostEstimator& estimator,
                               RestoreSource source, int64_t chunk_tokens,
                               int64_t context_len, int64_t kv_bytes_per_token,
                               const RestoreLinkSpeeds& speeds) {
  PENSIEVE_CHECK_GT(speeds.pcie_bandwidth, 0.0);
  const double bytes =
      static_cast<double>(chunk_tokens) * static_cast<double>(kv_bytes_per_token);
  double restore_s = bytes / speeds.pcie_bandwidth;
  if (source == RestoreSource::kSsd) {
    PENSIEVE_CHECK_GT(speeds.ssd_read_bandwidth, 0.0);
    restore_s += speeds.ssd_access_latency + bytes / speeds.ssd_read_bandwidth;
  }
  const double recompute_s = estimator.Cost(context_len);
  return recompute_s < restore_s ? RestoreAction::kRecompute
                                 : RestoreAction::kRestore;
}

}  // namespace pensieve
