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
  // conversation. Its KV state can be computed once, pinned in the cache,
  // and shared read-only by all conversations: Pensieve's paged attention
  // simply prepends the shared blocks to each conversation's block table.
  //
  // Registers a shared prefix and computes its KV once. Only whole chunks
  // are shared; a trailing partial chunk's tokens are re-processed as part
  // of each conversation's first prompt (keeping block tables aligned).
  // Returns a prefix id.
  StatusOr<int64_t> RegisterSharedPrefix(const std::vector<int32_t>& tokens);
  // Releases a shared prefix (conversations started from it must be ended
  // first; enforced by a pin count).
  Status UnregisterSharedPrefix(int64_t prefix_id);
  // Starts a conversation whose context begins with the shared prefix. Must
  // be called before the conversation's first Chat.
  Status StartConversationWithPrefix(int64_t conversation_id, int64_t prefix_id);
  // Tokens of the prefix that are served from the shared cache.
  int64_t SharedPrefixLen(int64_t prefix_id) const;

  // --- Cache-pressure knobs (tests / demos) ------------------------------
  // Moves every GPU-resident chunk of the conversation to the CPU tier.
  Status SwapOutConversation(int64_t conversation_id);
  // Drops the first `num_chunks` chunks entirely (forcing recomputation on
  // the next turn).
  Status DropLeadingChunks(int64_t conversation_id, int64_t num_chunks);

  const TwoTierKvCache& cache() const { return cache_; }
  const Transformer& model() const { return *model_; }
  // GPU block table a conversation's attention reads: its shared prefix's
  // blocks (if any), then its own. Every chunk must be GPU-resident.
  std::vector<BlockId> GpuBlockTable(int64_t conversation_id) const;
  // Raw token history (prompts + responses) of a conversation.
  const std::vector<int32_t>& History(int64_t conversation_id) const;

 private:
  // Advances the clock used for eviction recency.
  double Tick() { return logical_time_ += 1.0; }

  struct SharedPrefix {
    int64_t cache_key = 0;           // reserved conversation key in the cache
    std::vector<int32_t> tokens;     // full prefix (raw)
    int64_t shared_len = 0;          // whole-chunk portion served from cache
    int32_t attached_conversations = 0;
  };
  // Cache key reserved for a prefix (disjoint from user conversation ids,
  // which must be non-negative).
  static int64_t PrefixCacheKey(int64_t prefix_id) { return -(prefix_id + 1); }

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
  // conversation id -> prefix id, for conversations started from a prefix.
  std::unordered_map<int64_t, int64_t> conversation_prefix_;
  int64_t next_prefix_id_ = 0;
  double logical_time_ = 0.0;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_CORE_STATEFUL_SERVER_H_
