// Chunk-recomputation cost estimation (paper §4.3.1).
//
// The retention value of a chunk is V = Cost(s, l) / T. Cost is profiled
// offline at power-of-two context sizes and interpolated elsewhere, exactly
// as the paper does. Two profiling sources are provided: the analytical GPU
// cost model (simulated serving) and wall-clock measurement of the real CPU
// kernels (numeric mode / tests).

#ifndef PENSIEVE_SRC_EVICTION_COST_ESTIMATOR_H_
#define PENSIEVE_SRC_EVICTION_COST_ESTIMATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/interp.h"
#include "src/model/model_config.h"
#include "src/sim/cost_model.h"

namespace pensieve {

class ChunkCostEstimator {
 public:
  // Profiles Cost(chunk_size, l) for l in {chunk_size, 2*chunk_size, ...,
  // max_context} restricted to powers of two (times chunk_size), using the
  // analytical model.
  static ChunkCostEstimator ProfileFromCostModel(const GpuCostModel& cost_model,
                                                 int64_t chunk_size, int64_t max_context);

  // Profiles by timing the real multi-token paged attention kernel on a
  // scratch pool built from `config` (must be a tiny config).
  static ChunkCostEstimator ProfileFromKernels(const ModelConfig& config,
                                               int64_t chunk_size, int64_t max_context);

  // Builds the table from wall-clock measurements (context length, seconds)
  // in increasing context order. Timing noise can make a longer context
  // measure faster, so each point is clamped to the running maximum.
  static ChunkCostEstimator FromMeasurements(
      int64_t chunk_size, const std::vector<std::pair<int64_t, double>>& points);

  // Interpolated recomputation cost of a chunk whose last token has context
  // length `context_len` (seconds). Non-decreasing in context_len by
  // construction: both profiles yield non-decreasing knots, and linear
  // interpolation between them cannot dip. The coordinator's victim index
  // relies on this (DESIGN.md §15).
  double Cost(int64_t context_len) const;

  int64_t chunk_size() const { return chunk_size_; }

 private:
  ChunkCostEstimator(int64_t chunk_size, InterpTable table, int64_t max_context);

  int64_t chunk_size_;
  InterpTable table_;
  // Cost at each whole-chunk context length up to max_context, evaluated
  // once: eviction scores full chunks millions of times per run.
  std::vector<double> whole_chunk_costs_;
};

// --- Three-way restore decision (flash tier) -------------------------------
// With the SSD behind the CPU tier, bringing a chunk back to the GPU is a
// three-way choice: restore from CPU (one PCIe hop), restore from SSD (flash
// read + PCIe hop), or recompute from raw tokens. Recomputation cost grows
// with context length while restore cost is flat per byte, so for short
// contexts recompute wins — especially against the slower SSD path.

enum class RestoreSource { kCpu, kSsd };
enum class RestoreAction { kRestore, kRecompute };

// Link speeds feeding the decision (taken from HardwareSpec).
struct RestoreLinkSpeeds {
  double pcie_bandwidth = 0.0;      // bytes/s, host -> device
  double ssd_read_bandwidth = 0.0;  // bytes/s, flash -> host
  double ssd_access_latency = 0.0;  // seconds per flash read op
};

// Picks the cheaper of restoring `chunk_tokens` from `source` (transfer time
// over the links involved) and recomputing them (estimator.Cost at the
// chunk's context length).
RestoreAction PlanChunkRestore(const ChunkCostEstimator& estimator,
                               RestoreSource source, int64_t chunk_tokens,
                               int64_t context_len, int64_t kv_bytes_per_token,
                               const RestoreLinkSpeeds& speeds);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_EVICTION_COST_ESTIMATOR_H_
