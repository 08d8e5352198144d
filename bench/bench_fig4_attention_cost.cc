// Figure 4: execution time of the attention operation for a chunk of 32
// tokens with different context sizes, normalized by the execution time of
// the non-attention operations of a transformer layer (well, of the whole
// model — the normalization constant cancels either way).
//
// Two instruments:
//  1. The A100 cost model (what the serving simulation uses).
//  2. Wall-clock measurement of the real CPU multi-token paged attention
//     kernel against the real dense (non-attention) operators of the tiny
//     model — demonstrating the same linear-in-context shape on real code.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_serving_common.h"
#include "src/common/flags.h"
#include "src/eviction/cost_estimator.h"
#include "src/kernels/attention.h"
#include "src/model/model_config.h"
#include "src/sim/cost_model.h"
#include "src/sim/hardware.h"
#include "src/tensor/ops.h"

namespace pensieve {
namespace {

void ModelBasedTable() {
  const GpuCostModel model(Opt13BConfig(), A100Spec(1));
  constexpr int64_t kChunk = 32;
  const double other = model.MarginalLinearTime(kChunk);
  std::printf("# Figure 4 (cost model, OPT-13B): attention time of a 32-token "
              "chunk / non-attention time\n");
  std::printf("%-10s %-18s %-12s\n", "context", "attention(ms)", "ratio");
  for (int64_t ctx = 32; ctx <= 16384; ctx *= 2) {
    const double attn = model.AttentionTime(kChunk, ctx);
    std::printf("%-10ld %-18.3f %-12.3f\n", ctx, attn * 1e3, attn / other);
  }
}

void MeasuredCpuTable() {
  const ModelConfig config = TinyOptConfig();
  constexpr int64_t kChunk = 32;
  constexpr int64_t kMaxCtx = 4096;
  const int64_t num_blocks = kMaxCtx / kChunk;
  KvPool pool(num_blocks, kChunk, /*num_layers=*/1, config.num_kv_heads,
              config.head_dim);
  std::vector<BlockId> table;
  for (BlockId b = 0; b < num_blocks; ++b) {
    table.push_back(b);
  }
  Tensor kv({config.num_kv_heads, config.head_dim});
  FillNormal(kv, 5, 1.0f);
  for (BlockId b = 0; b < num_blocks; ++b) {
    for (int64_t s = 0; s < kChunk; ++s) {
      pool.WriteToken(b, 0, s, kv.data(), kv.data());
    }
  }
  Tensor query({kChunk, config.num_heads, config.head_dim});
  FillNormal(query, 6, 1.0f);
  Tensor out({kChunk, config.num_heads, config.head_dim});

  // Non-attention reference: the dense projections + FFN of one layer for a
  // 32-token chunk.
  Tensor x({kChunk, config.hidden_size});
  FillNormal(x, 7, 1.0f);
  Tensor wqkv({(config.num_heads + 2 * config.num_kv_heads) * config.head_dim,
               config.hidden_size});
  Tensor w_up({config.ffn_hidden, config.hidden_size});
  Tensor w_down({config.hidden_size, config.ffn_hidden});
  FillNormal(wqkv, 8, 0.1f);
  FillNormal(w_up, 9, 0.1f);
  FillNormal(w_down, 10, 0.1f);
  const auto other_start = std::chrono::steady_clock::now();
  constexpr int kOtherReps = 50;
  for (int rep = 0; rep < kOtherReps; ++rep) {
    Tensor qkv = MatMulTransposedB(x, wqkv);
    Tensor up = MatMulTransposedB(x, w_up);
    ReluInPlace(up);
    Tensor down = MatMulTransposedB(up, w_down);
    (void)qkv;
    (void)down;
  }
  const double other_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - other_start)
                             .count() /
                         kOtherReps;

  std::printf("\n# Figure 4 (measured, real CPU kernel, tiny-opt layer): "
              "normalized attention cost of a 32-token chunk\n");
  std::printf("%-10s %-18s %-12s\n", "context", "attention(us)", "ratio");
  for (int64_t ctx = kChunk; ctx <= kMaxCtx; ctx *= 2) {
    AttentionSubRequest sub{0, kChunk, ctx, &table};
    constexpr int kReps = 20;
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      MultiTokenPagedAttention(pool, 0, query, {sub}, 0.25f, &out);
    }
    const double attn_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() /
        kReps;
    std::printf("%-10ld %-18.1f %-12.3f\n", ctx, attn_s * 1e6, attn_s / other_s);
  }
  std::printf("\nShape check: the normalized cost grows linearly with context "
              "size (paper Figure 4),\nwhich is why leading chunks are cheaper "
              "to recompute than trailing ones.\n");
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) {
  pensieve::FlagParser flags;
  pensieve::ParseFlagsOrExit(&flags, argc, argv,
                             "bench_fig4_attention_cost: Figure 4, attention cost vs "
                             "context size");
  pensieve::ModelBasedTable();
  pensieve::MeasuredCpuTable();
  return 0;
}
