#include "src/eviction/policy.h"

#include <algorithm>

namespace pensieve {

namespace {
// Guards against division by ~zero for a conversation active "just now".
constexpr double kMinInactiveSeconds = 1e-3;
}  // namespace

double RetentionValuePolicy::Score(const ChunkCandidate& candidate, double now) const {
  const double inactive = std::max(kMinInactiveSeconds, now - candidate.last_active);
  if (candidate.shared) {
    // Other live readers keep the physical block warm; restoring this view
    // costs a refcount bump, not a recompute.
    return 0.0;
  }
  return estimator_.Cost(candidate.context_len) / inactive;
}

double RetentionValuePolicy::ScoreFloor(double last_active, double now) const {
  // The same denominator as Score, so IEEE division keeps the bound. An
  // extrapolated negative Cost(1) would fall as T shrinks; its value at the
  // smallest T bounds it instead.
  if (min_cost_ < 0.0) {
    return min_cost_ / kMinInactiveSeconds;
  }
  return min_cost_ / std::max(kMinInactiveSeconds, now - last_active);
}

double LruPolicy::Score(const ChunkCandidate& candidate, double now) const {
  // Older last_active => smaller score => evicted first. Chunk index breaks
  // ties toward the leading end so the drop-prefix invariant is satisfiable.
  return candidate.last_active +
         1e-9 * static_cast<double>(candidate.chunk_index);
}

double CostOnlyPolicy::Score(const ChunkCandidate& candidate, double now) const {
  if (candidate.shared) {
    return 0.0;  // restore already paid for by another reader
  }
  return estimator_.Cost(candidate.context_len);
}

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                   const ChunkCostEstimator& estimator) {
  switch (kind) {
    case EvictionPolicyKind::kRetentionValue:
      return std::make_unique<RetentionValuePolicy>(estimator);
    case EvictionPolicyKind::kLru:
    case EvictionPolicyKind::kConversationLru:
      return std::make_unique<LruPolicy>();
    case EvictionPolicyKind::kCostOnly:
      return std::make_unique<CostOnlyPolicy>(estimator);
  }
  return nullptr;
}

}  // namespace pensieve
