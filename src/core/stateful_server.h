// Pensieve's public stateful serving API, running real numerics.
//
// StatefulLlmServer is the embeddable form of Pensieve: a caller holds a
// conversation id and submits turns; the server keeps the conversation's KV
// state in the two-tier cache between turns and only processes new prompt
// tokens (plus any dropped prefix it must recompute). Every mechanism the
// simulated serving engine uses — paged pools, chunk swap, drop/restore,
// multi-token attention with sub-request splitting — executes for real here
// over the CPU tensor substrate, which is how the test suite proves that
// stateful serving is output-equivalent to stateless recomputation.

#ifndef PENSIEVE_SRC_CORE_STATEFUL_SERVER_H_
#define PENSIEVE_SRC_CORE_STATEFUL_SERVER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/eviction/policy.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/model/model_config.h"
#include "src/model/transformer.h"
#include "src/scheduler/cache_coordinator.h"

namespace pensieve {

struct StatefulServerConfig {
  ModelConfig model;  // must be a tiny preset for numeric execution
  int64_t block_size = 16;
  int64_t num_gpu_blocks = 128;
  int64_t num_cpu_blocks = 512;
  uint64_t weight_seed = 1234;
  EvictionPolicyKind policy = EvictionPolicyKind::kRetentionValue;
  // Weight storage for the numeric transformer: int8 runs the prepacked
  // int8 microkernels (per-column symmetric scales, fp32 accumulation).
  QuantMode weight_quant = QuantMode::kFp32;
  // Int8-quantize KV blocks demoted to the CPU tier (GPU KV stays fp32).
  bool kv_quant = false;
};

class StatefulLlmServer {
 public:
  explicit StatefulLlmServer(const StatefulServerConfig& config);

  // Processes one conversation turn: the new prompt is appended to the
  // conversation context and `max_new_tokens` tokens are generated greedily.
  // History KV is reused from the cache; dropped prefixes are transparently
  // recomputed from the raw history.
  StatusOr<std::vector<int32_t>> Chat(int64_t conversation_id,
                                      const std::vector<int32_t>& prompt,
                                      int64_t max_new_tokens);

  // Releases all cached state for a conversation.
  void EndConversation(int64_t conversation_id);

  // --- Shared system prompts (paper footnote 3) --------------------------
  // A chatbot deployment usually prepends one system prompt to every
  // conversation, and its KV is shared the way the serving engine shares
  // template prefixes (DESIGN.md §11): the prompt is the head of each
  // conversation's own history, and its whole blocks are refcounted views of
  // blocks published in the cache's prefix trie. The first conversation to
  // use a prefix computes it with its first turn and publishes it; later
  // ones attach the published blocks instead of computing them. A view is
  // evicted, swapped or dropped like any other chunk of its conversation.
  //
  // Registers a prefix: stores its tokens and their per-block content-hash
  // chain. Computes nothing. Returns a prefix id.
  StatusOr<int64_t> RegisterSharedPrefix(const std::vector<int32_t>& tokens);
  // Forgets a prefix id. Conversations started from it keep their views.
  Status UnregisterSharedPrefix(int64_t prefix_id);
  // Starts a conversation whose history begins with the prefix, attaching
  // whatever whole blocks of it are published. Must be called before the
  // conversation's first Chat, which computes the rest of the prefix.
  Status StartConversationWithPrefix(int64_t conversation_id, int64_t prefix_id);
  // Tokens of the prefix that can be shared: its whole blocks (a trailing
  // partial block is computed by every conversation).
  int64_t SharedPrefixLen(int64_t prefix_id) const;

  // --- Cache-pressure knobs (tests / demos) ------------------------------
  // Moves every GPU-resident chunk of the conversation to the CPU tier.
  Status SwapOutConversation(int64_t conversation_id);
  // Drops the first `num_chunks` chunks entirely (forcing recomputation on
  // the next turn).
  Status DropLeadingChunks(int64_t conversation_id, int64_t num_chunks);

  const TwoTierKvCache& cache() const { return cache_; }
  const Transformer& model() const { return *model_; }
  // Raw token history (prompts + responses) of a conversation.
  const std::vector<int32_t>& History(int64_t conversation_id) const;

 private:
  // Advances the clock used for eviction recency.
  double Tick() { return logical_time_ += 1.0; }

  struct SharedPrefix {
    std::vector<int32_t> tokens;
    std::vector<uint64_t> chain;  // one content hash per whole block
  };

  StatefulServerConfig config_;
  std::unique_ptr<Transformer> model_;
  TwoTierKvCache cache_;
  ChunkCostEstimator cost_estimator_;
  std::unique_ptr<EvictionPolicy> policy_;
  CacheCoordinator coordinator_;
  // Persistent raw-token store (paper Figure 7): the source of truth used
  // to recompute dropped context.
  std::unordered_map<int64_t, std::vector<int32_t>> history_;
  std::unordered_map<int64_t, SharedPrefix> shared_prefixes_;
  // Conversations whose prefix was not fully published when they started:
  // the chain their first turn publishes once its prefill has run.
  std::unordered_map<int64_t, std::vector<uint64_t>> unpublished_chain_;
  int64_t next_prefix_id_ = 0;
  double logical_time_ = 0.0;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_CORE_STATEFUL_SERVER_H_
