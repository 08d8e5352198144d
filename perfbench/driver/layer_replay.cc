#include "perfbench/driver/layer_replay.h"

#include <cmath>
#include <random>
#include <vector>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/kernels/attention.h"
#include "src/kvcache/kv_pool.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/model/transformer.h"
#include "src/tensor/packed_matrix.h"
#include "src/tensor/tensor.h"

namespace perfbench {

namespace {

using pensieve::BlockId;
using pensieve::Tensor;

// Median wall seconds of `reps` calls of fn (after one warm-up call).
template <typename F>
double MedianSeconds(int reps, const F& fn) {
  fn();
  pensieve::SampleStats s;
  for (int i = 0; i < reps; ++i) {
    const auto start = SteadyClock::now();
    fn();
    s.Add(SecondsSince(start));
  }
  return s.Percentile(0.5);
}

Tensor RandomTensor(pensieve::Shape shape, uint64_t seed) {
  Tensor t(shape);
  std::mt19937 rng(static_cast<uint32_t>(seed));
  std::uniform_real_distribution<float> dist(-0.05f, 0.05f);
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = dist(rng);
  }
  return t;
}

// STREAM triad a = b + s*c over the global pool; bytes = 3 arrays x N x 4
// (two reads, one write).
double TriadGbps() {
  constexpr int64_t kN = 1 << 22;  // 16 MB per array
  std::vector<float> a(kN, 0.0f), b(kN, 1.0f), c(kN, 2.0f);
  const float s = 3.0f;
  pensieve::ThreadPool& pool = pensieve::ThreadPool::Global();
  const double seconds = MedianSeconds(10, [&] {
    pool.ParallelFor(0, kN, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        a[i] = b[i] + s * c[i];
      }
    }, 1 << 14);
  });
  return 3.0 * kN * sizeof(float) / seconds / 1e9;
}

std::vector<BlockId> Table(int64_t blocks) {
  std::vector<BlockId> table;
  for (int64_t b = 0; b < blocks; ++b) {
    table.push_back(static_cast<BlockId>(b));
  }
  return table;
}

// Fills a batch that writes tokens [first, first + n) of one sequence whose
// KV occupies blocks 0.. in order, attending to everything before it.
pensieve::ForwardBatch SequenceBatch(int64_t first, int64_t n, int64_t block_size,
                                     int32_t vocab, const std::vector<BlockId>* table) {
  pensieve::ForwardBatch batch;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t pos = first + i;
    batch.tokens.push_back(static_cast<int32_t>((pos * 7919) % vocab));
    batch.positions.push_back(pos);
    batch.kv_slots.push_back({static_cast<BlockId>(pos / block_size), pos % block_size});
  }
  batch.subs.push_back({0, n, first + n, table});
  batch.logit_rows.push_back(n - 1);
  return batch;
}

}  // namespace

void AddNumericLayerReplays(const pensieve::ModelConfig& model, const ReplayShapes& shapes,
                            SpanRecorder* spans, RunResult* result) {
  const int64_t bs = shapes.block_size;
  const int64_t max_tokens = std::max(shapes.prefill_tokens, shapes.decode_context) + bs;
  const int64_t blocks = (max_tokens + bs - 1) / bs;
  const std::vector<BlockId> table = Table(blocks);
  const int32_t vocab = static_cast<int32_t>(model.vocab_size);

  // --- host: memory-bandwidth ceiling ---
  double triad_gbps = 0.0;
  {
    ScopedSpan span(spans, "host.Triad");
    triad_gbps = TriadGbps();
  }
  result->Add("host.triad_gbps", triad_gbps, "GB/s");

  // --- model: whole forward pass ---
  {
    pensieve::Transformer transformer(model, 4321);
    pensieve::KvPool pool(blocks, bs, model.num_layers, model.num_kv_heads, model.head_dim);
    Tensor logits;
    const pensieve::ForwardBatch prefill =
        SequenceBatch(0, shapes.prefill_tokens, bs, vocab, &table);
    double prefill_s = 0.0;
    {
      ScopedSpan span(spans, "model.ForwardInto(prefill)");
      prefill_s = MedianSeconds(5, [&] { transformer.ForwardInto(&pool, prefill, &logits); });
    }
    // Fill the context, then time one decode step at its end.
    transformer.ForwardInto(
        &pool, SequenceBatch(0, shapes.decode_context - 1, bs, vocab, &table), &logits);
    const pensieve::ForwardBatch decode =
        SequenceBatch(shapes.decode_context - 1, 1, bs, vocab, &table);
    double decode_s = 0.0;
    {
      ScopedSpan span(spans, "model.ForwardInto(decode)");
      decode_s = MedianSeconds(30, [&] { transformer.ForwardInto(&pool, decode, &logits); });
    }
    result->Add("model.prefill_ms", prefill_s * 1e3, "ms");
    result->Add("model.decode_ms", decode_s * 1e3, "ms");
    result->Add("model.prefill_tok_per_s", shapes.prefill_tokens / prefill_s, "tok/s");
    result->Add("model.decode_tok_per_s", 1.0 / decode_s, "tok/s");

    // --- kernels: paged attention on the KV the forward passes wrote ---
    const float scale = 1.0f / std::sqrt(static_cast<float>(model.head_dim));
    const int64_t m = shapes.prefill_tokens;
    const Tensor q_prefill = RandomTensor({m, model.num_heads, model.head_dim}, 11);
    Tensor out_prefill({m, model.num_heads, model.head_dim});
    const std::vector<pensieve::AttentionSubRequest> prefill_subs = {{0, m, m, &table}};
    double attn_prefill_s = 0.0;
    {
      ScopedSpan span(spans, "kernels.MultiTokenPagedAttention");
      attn_prefill_s = MedianSeconds(10, [&] {
        pensieve::MultiTokenPagedAttention(pool, 0, q_prefill, prefill_subs, scale,
                                           &out_prefill);
      });
    }
    const int64_t ctx = shapes.decode_context;
    const Tensor q_decode = RandomTensor({1, model.num_heads, model.head_dim}, 12);
    Tensor out_decode({1, model.num_heads, model.head_dim});
    const std::vector<pensieve::AttentionSubRequest> decode_subs = {{0, 1, ctx, &table}};
    double attn_decode_s = 0.0;
    {
      ScopedSpan span(spans, "kernels.SingleTokenPagedAttention");
      attn_decode_s = MedianSeconds(50, [&] {
        pensieve::SingleTokenPagedAttention(pool, 0, q_decode, decode_subs, scale,
                                            &out_decode);
      });
    }
    // One layer's K and V for the whole context, read once.
    const double kv_bytes = 2.0 * ctx * model.num_kv_heads * model.head_dim * sizeof(float);
    result->Add("kernels.attn_prefill_us", attn_prefill_s * 1e6, "us");
    result->Add("kernels.attn_decode_us", attn_decode_s * 1e6, "us");
    result->Add("kernels.attn_decode_gbps", kv_bytes / attn_decode_s / 1e9, "GB/s");
  }

  // --- tensor: packed GEMM/GEMV on one layer's projection shapes ---
  {
    const int64_t h = model.hidden_size;
    const int64_t qkv = (model.num_heads + 2 * model.num_kv_heads) * model.head_dim;
    const std::vector<std::pair<int64_t, int64_t>> shapes_nk = {
        {qkv, h}, {h, model.num_heads * model.head_dim}, {model.ffn_hidden, h},
        {model.ffn_hidden, h}, {h, model.ffn_hidden}};
    double gemm_flops = 0.0, gemm_s = 0.0, gemv_bytes = 0.0, gemv_s = 0.0;
    uint64_t seed = 100;
    for (const auto& [n, k] : shapes_nk) {
      const pensieve::PackedMatrix w(RandomTensor({n, k}, seed++));
      const int64_t m = shapes.prefill_tokens;
      const Tensor a = RandomTensor({m, k}, seed++);
      Tensor c({m, n});
      {
        ScopedSpan span(spans, "tensor.MatMulPackedInto(gemm)");
        gemm_s += MedianSeconds(10, [&] { pensieve::MatMulPackedInto(a, w, &c); });
      }
      gemm_flops += 2.0 * m * n * k;
      const Tensor x = RandomTensor({1, k}, seed++);
      Tensor y({1, n});
      {
        ScopedSpan span(spans, "tensor.MatMulPackedInto(gemv)");
        gemv_s += MedianSeconds(50, [&] { pensieve::MatMulPackedInto(x, w, &y); });
      }
      gemv_bytes += static_cast<double>(w.PackedBytes()) + (k + n) * sizeof(float);
    }
    const double gemv_gbps = gemv_bytes / gemv_s / 1e9;
    result->Add("tensor.gemm_gflops", gemm_flops / gemm_s / 1e9, "GFLOP/s");
    result->Add("tensor.gemv_gbps", gemv_bytes / gemv_s / 1e9, "GB/s");
    result->Add("tensor.gemv_roofline_share", gemv_gbps / triad_gbps, "ratio");
  }

  // --- kvcache: numeric tier transfers at the server's block geometry ---
  {
    constexpr int64_t kChunks = 32;
    constexpr int kRounds = 5;
    pensieve::KvCacheConfig kv;
    kv.block_size = bs;
    kv.num_gpu_blocks = kChunks;
    kv.num_cpu_blocks = kChunks;
    kv.numeric = true;
    kv.num_layers = model.num_layers;
    kv.num_kv_heads = model.num_kv_heads;
    kv.head_dim = model.head_dim;
    pensieve::TwoTierKvCache cache(kv);
    std::vector<pensieve::ContextState::SlotRef> slots;
    PENSIEVE_CHECK_OK(cache.AppendTokenSlots(1, kChunks * bs, &slots));
    pensieve::SampleStats out_us, in_us;
    ScopedSpan span(spans, "kvcache.SwapOut/SwapIn");
    for (int round = 0; round < kRounds; ++round) {
      for (int64_t i = 0; i < kChunks; ++i) {
        const auto t0 = SteadyClock::now();
        PENSIEVE_CHECK_OK(cache.SwapOut(1, i));
        out_us.Add(SecondsSince(t0) * 1e6);
        PENSIEVE_CHECK_OK(cache.ReclaimGpu(1, i));
      }
      for (int64_t i = 0; i < kChunks; ++i) {
        const auto t0 = SteadyClock::now();
        PENSIEVE_CHECK_OK(cache.SwapIn(1, i));
        in_us.Add(SecondsSince(t0) * 1e6);
        PENSIEVE_CHECK_OK(cache.DropCpuCopy(1, i));
      }
    }
    cache.Release(1);
    result->Add("kvcache.swap_out_us_per_block", out_us.Percentile(0.5), "us");
    result->Add("kvcache.swap_in_us_per_block", in_us.Percentile(0.5), "us");
  }
}

}  // namespace perfbench
