#include "src/model/transformer.h"

#include <cmath>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/tensor/ops.h"

namespace pensieve {

namespace {
constexpr float kNormEps = 1e-5f;
constexpr float kRotaryBase = 10000.0f;
}  // namespace

Transformer::Transformer(const ModelConfig& config, uint64_t seed,
                         QuantMode weight_quant)
    : config_(config), weight_quant_(weight_quant) {
  const int64_t h = config.hidden_size;
  const float w_std = 1.0f / std::sqrt(static_cast<float>(h));
  uint64_t s = seed;
  auto next_seed = [&s]() { return ++s; };

  embedding_ = Tensor({config.vocab_size, h});
  FillNormal(embedding_, next_seed(), 1.0f);
  if (config.pos_embedding == PositionEmbedding::kLearned) {
    pos_embedding_ = Tensor({config.max_context, h});
    FillNormal(pos_embedding_, next_seed(), 0.1f);
  }
  final_norm_gain_ = Tensor::Full({h}, 1.0f);
  final_norm_bias_ = Tensor::Zeros({h});

  // Draws a [rows, cols] projection and keeps only its packed form: Forward
  // multiplies only against packed panels, so the fp32 draw is dropped once
  // packed. weight_quant selects the payload type for every projection
  // including the tied LM head.
  const auto packed_projection = [&](int64_t rows, int64_t cols, float stddev) {
    Tensor raw({rows, cols});
    FillNormal(raw, next_seed(), stddev);
    return PackedMatrix(raw, weight_quant);
  };
  const int64_t qkv_out = (config.num_heads + 2 * config.num_kv_heads) * config.head_dim;
  layers_.reserve(static_cast<size_t>(config.num_layers));
  for (int64_t l = 0; l < config.num_layers; ++l) {
    LayerWeights w;
    w.attn_norm_gain = Tensor::Full({h}, 1.0f);
    w.attn_norm_bias = Tensor::Zeros({h});
    w.wqkv_packed = packed_projection(qkv_out, h, w_std);
    w.bqkv = Tensor::Zeros({qkv_out});
    if (config.qkv_bias) {
      FillNormal(w.bqkv, next_seed(), 0.01f);
    }
    w.wo_packed = packed_projection(h, config.num_heads * config.head_dim, w_std);
    w.bo = Tensor::Zeros({h});
    w.ffn_norm_gain = Tensor::Full({h}, 1.0f);
    w.ffn_norm_bias = Tensor::Zeros({h});
    w.w_up_packed = packed_projection(config.ffn_hidden, h, w_std);
    w.b_up = Tensor::Zeros({config.ffn_hidden});
    if (config.gated_ffn) {
      w.w_gate_packed = packed_projection(config.ffn_hidden, h, w_std);
    }
    w.w_down_packed = packed_projection(
        h, config.ffn_hidden, 1.0f / std::sqrt(static_cast<float>(config.ffn_hidden)));
    w.b_down = Tensor::Zeros({h});
    layers_.push_back(std::move(w));
  }
  lm_head_packed_ = PackedMatrix(embedding_, weight_quant);
}

void Transformer::NormalizeInto(const Tensor& x, const Tensor& gain,
                                const Tensor& bias, Tensor* out) const {
  if (config_.norm == NormKind::kRmsNorm) {
    RmsNormInto(x, gain, kNormEps, out);
  } else {
    LayerNormInto(x, gain, bias, kNormEps, out);
  }
}

void Transformer::ForwardInto(KvPool* pool, const ForwardBatch& batch,
                              Tensor* logits) const {
  PENSIEVE_CHECK(pool != nullptr);
  PENSIEVE_CHECK(logits != nullptr);
  const int64_t num_tokens = static_cast<int64_t>(batch.tokens.size());
  PENSIEVE_CHECK_GT(num_tokens, 0);
  PENSIEVE_CHECK_EQ(batch.positions.size(), batch.tokens.size());
  PENSIEVE_CHECK_EQ(batch.kv_slots.size(), batch.tokens.size());
  const int64_t h = config_.hidden_size;
  const int64_t head_dim = config_.head_dim;
  const int64_t num_heads = config_.num_heads;
  const int64_t num_kv_heads = config_.num_kv_heads;
  const int64_t q_width = num_heads * head_dim;
  const int64_t kv_width = num_kv_heads * head_dim;
  const int64_t qkv_width = q_width + 2 * kv_width;
  const int64_t num_logit_rows = static_cast<int64_t>(batch.logit_rows.size());
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  // Validate everything serially up front (CHECK failures must not fire on a
  // pool worker, and nothing below may allocate on the steady-state path).
  for (int64_t t = 0; t < num_tokens; ++t) {
    const int32_t tok = batch.tokens[static_cast<size_t>(t)];
    PENSIEVE_CHECK_GE(tok, 0);
    PENSIEVE_CHECK_LT(tok, config_.vocab_size);
    if (config_.pos_embedding == PositionEmbedding::kLearned) {
      PENSIEVE_CHECK_LT(batch.positions[static_cast<size_t>(t)], config_.max_context);
    }
  }
  for (int64_t row : batch.logit_rows) {
    PENSIEVE_CHECK_GE(row, 0);
    PENSIEVE_CHECK_LT(row, num_tokens);
  }

  // All intermediates are borrowed from the arena, hoisted out of the layer
  // loop and reused across layers. After the first pass at a given batch
  // size the arena never grows, so the pass is allocation-free.
  workspace_.Reset();
  Tensor x = workspace_.Alloc({num_tokens, h});
  Tensor normed = workspace_.Alloc({num_tokens, h});  // attn + ffn pre-norms
  Tensor qkv = workspace_.Alloc({num_tokens, qkv_width});
  Tensor q = workspace_.Alloc({num_tokens, num_heads, head_dim});
  Tensor k = workspace_.Alloc({num_tokens, num_kv_heads, head_dim});
  Tensor v = workspace_.Alloc({num_tokens, num_kv_heads, head_dim});
  Tensor attn_out = workspace_.Alloc({num_tokens, num_heads, head_dim});
  Tensor proj = workspace_.Alloc({num_tokens, h});  // attn proj + ffn down
  Tensor up = workspace_.Alloc({num_tokens, config_.ffn_hidden});
  Tensor gate;
  if (config_.gated_ffn) {
    gate = workspace_.Alloc({num_tokens, config_.ffn_hidden});
  }
  Tensor selected = workspace_.Alloc({num_logit_rows, h});
  Tensor selected_normed = workspace_.Alloc({num_logit_rows, h});

  // Token (+ learned position) embeddings: gather rows in parallel.
  ParallelFor(
      0, num_tokens,
      [&](int64_t token_begin, int64_t token_end) {
        for (int64_t t = token_begin; t < token_end; ++t) {
          const int32_t tok = batch.tokens[static_cast<size_t>(t)];
          const float* src = embedding_.data() + static_cast<int64_t>(tok) * h;
          std::copy(src, src + h, x.data() + t * h);
          if (config_.pos_embedding == PositionEmbedding::kLearned) {
            const int64_t pos = batch.positions[static_cast<size_t>(t)];
            const float* pe = pos_embedding_.data() + pos * h;
            float* row = x.data() + t * h;
            for (int64_t j = 0; j < h; ++j) {
              row[j] += pe[j];
            }
          }
        }
      },
      GrainForItemCost(h));

  for (int64_t l = 0; l < config_.num_layers; ++l) {
    const LayerWeights& w = layers_[static_cast<size_t>(l)];
    // --- Attention block (pre-norm residual) ---
    NormalizeInto(x, w.attn_norm_gain, w.attn_norm_bias, &normed);
    MatMulPackedInto(normed, w.wqkv_packed, &qkv);
    if (config_.qkv_bias) {
      AddBiasInPlace(qkv, w.bqkv);
    }
    // Split into Q [T, H, D] and K/V [T, KVH, D].
    ParallelFor(
        0, num_tokens,
        [&](int64_t token_begin, int64_t token_end) {
          for (int64_t t = token_begin; t < token_end; ++t) {
            const float* row = qkv.data() + t * qkv_width;
            std::copy(row, row + q_width, q.data() + t * q_width);
            std::copy(row + q_width, row + q_width + kv_width, k.data() + t * kv_width);
            std::copy(row + q_width + kv_width, row + qkv_width, v.data() + t * kv_width);
          }
        },
        GrainForItemCost(qkv_width));
    if (config_.pos_embedding == PositionEmbedding::kRotary) {
      ApplyRotaryInPlace(q, batch.positions, kRotaryBase);
      ApplyRotaryInPlace(k, batch.positions, kRotaryBase);
    }
    // Write K/V to the paged cache, then attend (paper Fig 8, steps c-d).
    for (int64_t t = 0; t < num_tokens; ++t) {
      const ForwardBatch::KvSlot& slot = batch.kv_slots[static_cast<size_t>(t)];
      pool->WriteToken(slot.block, l, slot.slot, k.data() + t * kv_width,
                       v.data() + t * kv_width);
    }
    // Rows not addressed by any sub-request must still read as zeros (the
    // arena hands back dirty memory; the owned-tensor version was zeroed).
    std::memset(attn_out.data(), 0,
                static_cast<size_t>(attn_out.numel()) * sizeof(float));
    MultiTokenPagedAttention(*pool, l, q, batch.subs, scale, &attn_out,
                             &workspace_);
    Tensor attn_flat = attn_out.Reshaped({num_tokens, q_width});  // free alias
    MatMulPackedInto(attn_flat, w.wo_packed, &proj);
    AddBiasInPlace(proj, w.bo);
    AddInPlace(x, proj);

    // --- FFN block (pre-norm residual) ---
    NormalizeInto(x, w.ffn_norm_gain, w.ffn_norm_bias, &normed);
    MatMulPackedInto(normed, w.w_up_packed, &up);
    AddBiasInPlace(up, w.b_up);
    if (config_.gated_ffn) {
      MatMulPackedInto(normed, w.w_gate_packed, &gate);
      switch (config_.activation) {
        case Activation::kSilu:
          SiluInPlace(gate);
          break;
        case Activation::kGelu:
          GeluInPlace(gate);
          break;
        case Activation::kRelu:
          ReluInPlace(gate);
          break;
      }
      MulInPlace(up, gate);
    } else {
      switch (config_.activation) {
        case Activation::kSilu:
          SiluInPlace(up);
          break;
        case Activation::kGelu:
          GeluInPlace(up);
          break;
        case Activation::kRelu:
          ReluInPlace(up);
          break;
      }
    }
    MatMulPackedInto(up, w.w_down_packed, &proj);
    AddBiasInPlace(proj, w.b_down);
    AddInPlace(x, proj);
  }

  // Final norm + tied LM head on the requested rows only.
  for (size_t i = 0; i < batch.logit_rows.size(); ++i) {
    const int64_t row = batch.logit_rows[i];
    std::copy(x.data() + row * h, x.data() + (row + 1) * h,
              selected.data() + static_cast<int64_t>(i) * h);
  }
  NormalizeInto(selected, final_norm_gain_, final_norm_bias_, &selected_normed);
  const Shape logits_shape{num_logit_rows, config_.vocab_size};
  if (logits->shape() != logits_shape) {
    *logits = Tensor(logits_shape);
  }
  MatMulPackedInto(selected_normed, lm_head_packed_, logits);
}

Tensor Transformer::Forward(KvPool* pool, const ForwardBatch& batch) const {
  Tensor logits;
  ForwardInto(pool, batch, &logits);
  return logits;
}

int32_t Transformer::Greedy(const Tensor& logits, int64_t row) {
  PENSIEVE_CHECK_EQ(logits.rank(), 2u);
  PENSIEVE_CHECK_LT(row, logits.dim(0));
  const int64_t vocab = logits.dim(1);
  const float* p = logits.data() + row * vocab;
  int64_t best = 0;
  for (int64_t i = 1; i < vocab; ++i) {
    if (p[i] > p[best]) {
      best = i;
    }
  }
  return static_cast<int32_t>(best);
}

}  // namespace pensieve
