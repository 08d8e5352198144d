// Reference transformer executing over the paged KV pool (numeric mode).
//
// This plays the role PyTorch's C++ frontend plays in the paper's
// implementation: it runs the non-attention operators (projections, norms,
// FFN, embeddings) and calls into Pensieve's multi-token paged attention
// kernel for the attention step, writing K/V to the cache first (paper
// Figure 8 steps b-d). Weights are randomly initialized — serving-system
// behaviour is independent of weight values — and deterministic in the seed,
// so stateful and stateless execution can be compared token for token.
//
// Performance structure. Every projection matrix is repacked once at
// construction into the panel layout the cache-blocked GEMM consumes
// (src/tensor/packed_matrix.h). All intermediate activations live in a
// per-model Workspace arena (src/tensor/workspace.h) that is rewound — not
// freed — at the top of each pass, so a warmed-up ForwardInto performs zero
// heap allocations; tests/workspace_test.cc pins that with an
// operator-new counting hook.

#ifndef PENSIEVE_SRC_MODEL_TRANSFORMER_H_
#define PENSIEVE_SRC_MODEL_TRANSFORMER_H_

#include <cstdint>
#include <vector>

#include "src/kernels/attention.h"
#include "src/kvcache/kv_pool.h"
#include "src/model/model_config.h"
#include "src/tensor/packed_matrix.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"

namespace pensieve {

// One unified batch (prefill and generation tokens mixed, paper §4.2):
// tokens from all requests are concatenated; attention sub-requests address
// rows of that concatenation.
struct ForwardBatch {
  // Input token ids, all requests concatenated.
  std::vector<int32_t> tokens;
  // Absolute position of each token in its conversation context.
  std::vector<int64_t> positions;
  // Where each token's K/V is written in the GPU pool (same order).
  struct KvSlot {
    BlockId block;
    int64_t slot;
  };
  std::vector<KvSlot> kv_slots;
  // Attention work items; query_start indexes rows of `tokens`. Block tables
  // referenced here must outlive the ForwardInto call.
  std::vector<AttentionSubRequest> subs;
  // Rows whose logits the caller wants (one per generating request).
  std::vector<int64_t> logit_rows;
};

class Transformer {
 public:
  // weight_quant selects the packed-weight payload for every projection
  // (QuantMode::kInt8 = per-column symmetric int8, fp32 accumulation); the
  // raw fp32 tensors and every non-GEMM operator are unaffected.
  Transformer(const ModelConfig& config, uint64_t seed,
              QuantMode weight_quant = QuantMode::kFp32);

  const ModelConfig& config() const { return config_; }
  QuantMode weight_quant() const { return weight_quant_; }

  // Runs the batch, updating the pool, and writes logits
  // [logit_rows.size(), vocab_size] into *logits. If *logits already has
  // that shape its buffer is reused (the steady-state decode path: no
  // allocation at all); otherwise it is replaced with a freshly allocated
  // tensor. Intermediate activations come from the internal workspace, so
  // the call is NOT reentrant: one ForwardInto at a time per model
  // instance.
  void ForwardInto(KvPool* pool, const ForwardBatch& batch, Tensor* logits) const;

  // Argmax over one logits row.
  static int32_t Greedy(const Tensor& logits, int64_t row);

  // Test hook: the activation arena, for asserting reuse across passes.
  const Workspace& workspace() const { return workspace_; }

 private:
  struct LayerWeights {
    Tensor attn_norm_gain;
    Tensor attn_norm_bias;
    Tensor bqkv;
    Tensor bo;
    Tensor ffn_norm_gain;
    Tensor ffn_norm_bias;
    Tensor b_up;    // [ffn_hidden]
    Tensor b_down;  // [hidden]
    // The projection matrices, panel-packed once in the constructor; the
    // forward pass only ever multiplies against these.
    PackedMatrix wqkv_packed;    // [(num_heads + 2 * num_kv_heads) * head_dim, hidden]
    PackedMatrix wo_packed;      // [hidden, num_heads * head_dim]
    PackedMatrix w_up_packed;    // [ffn_hidden, hidden]
    PackedMatrix w_gate_packed;  // gated FFN only
    PackedMatrix w_down_packed;  // [hidden, ffn_hidden]
  };

  void NormalizeInto(const Tensor& x, const Tensor& gain, const Tensor& bias,
                     Tensor* out) const;

  ModelConfig config_;
  QuantMode weight_quant_ = QuantMode::kFp32;
  Tensor embedding_;      // [vocab, hidden]; tied LM head
  Tensor pos_embedding_;  // [max_context, hidden] for learned positions
  Tensor final_norm_gain_;
  Tensor final_norm_bias_;
  std::vector<LayerWeights> layers_;
  PackedMatrix lm_head_packed_;  // packed embedding_ (tied LM head)
  // Activation arena, rewound per pass. Mutable: arena reuse is invisible in
  // the numeric results, so ForwardInto stays logically const.
  mutable Workspace workspace_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_MODEL_TRANSFORMER_H_
