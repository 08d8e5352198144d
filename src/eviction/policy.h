// Cache eviction policies (paper §4.3.1 and the Figure 14 ablation).
//
// A policy assigns each candidate chunk a score; the cache coordinator
// evicts/drops candidates in ascending score order. Pensieve's policy is the
// retention value V = Cost(s, l) / T: cheap-to-recompute chunks and chunks
// of long-inactive conversations go first. The ablation baselines are
// classic conversation-LRU and a cost-only policy.

#ifndef PENSIEVE_SRC_EVICTION_POLICY_H_
#define PENSIEVE_SRC_EVICTION_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/eviction/cost_estimator.h"
#include "src/kvcache/block.h"

namespace pensieve {

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  // Lower score = evicted earlier. `now` is the current virtual time.
  // Within one conversation, unshared chunks must score non-decreasing in
  // chunk index: the coordinator's victim index merges conversations by
  // their first eligible chunk (DESIGN.md §15).
  virtual double Score(const ChunkCandidate& candidate, double now) const = 0;
  // A lower bound on Score of every unshared candidate of a conversation
  // last active at `last_active`, non-decreasing in `last_active`. The
  // victim index enters conversations in last_active order and stops while
  // the next one's floor exceeds the best score it holds (DESIGN.md §15).
  virtual double ScoreFloor(double last_active, double now) const = 0;
  virtual const char* name() const = 0;
};

// Pensieve's policy: V = Cost(s, l) / T.
class RetentionValuePolicy final : public EvictionPolicy {
 public:
  explicit RetentionValuePolicy(ChunkCostEstimator estimator)
      : estimator_(std::move(estimator)), min_cost_(estimator_.Cost(1)) {}
  double Score(const ChunkCandidate& candidate, double now) const override;
  // Cost(1)/T: every chunk's context holds at least one token, Cost is
  // non-decreasing in it, and T shrinks as last_active grows.
  double ScoreFloor(double last_active, double now) const override;
  const char* name() const override { return "retention-value"; }

 private:
  ChunkCostEstimator estimator_;
  double min_cost_;
};

// Conversation-granularity LRU: least recently active conversation first;
// leading chunks first within a conversation (required by the drop-prefix
// mechanism anyway).
class LruPolicy final : public EvictionPolicy {
 public:
  double Score(const ChunkCandidate& candidate, double now) const override;
  double ScoreFloor(double last_active, double now) const override { return last_active; }
  const char* name() const override { return "lru"; }
};

// Ablation: pure recomputation cost, ignoring recency.
class CostOnlyPolicy final : public EvictionPolicy {
 public:
  explicit CostOnlyPolicy(ChunkCostEstimator estimator)
      : estimator_(std::move(estimator)), min_cost_(estimator_.Cost(1)) {}
  double Score(const ChunkCandidate& candidate, double now) const override;
  // A constant, so a pass enters every conversation before its first pop.
  double ScoreFloor(double last_active, double now) const override { return min_cost_; }
  const char* name() const override { return "cost-only"; }

 private:
  ChunkCostEstimator estimator_;
  double min_cost_;
};

// kRetentionValue — Pensieve's V = Cost/T, chunk granularity.
// kLru            — LRU scoring, chunk granularity (ablation isolating the
//                   scoring function from the granularity).
// kConversationLru— classic LRU evicting entire conversations at once (the
//                   paper's Figure 14 baseline; CachedAttention-style
//                   granularity per Table 3).
// kCostOnly       — pure recompute cost, ignoring recency (ablation).
enum class EvictionPolicyKind { kRetentionValue, kLru, kConversationLru, kCostOnly };

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                   const ChunkCostEstimator& estimator);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_EVICTION_POLICY_H_
