#include "src/cluster/router.h"

#include <algorithm>

#include "src/common/logging.h"

namespace pensieve {

const char* RouterPolicyName(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kRoundRobin:
      return "round-robin";
    case RouterPolicy::kLeastLoaded:
      return "least-loaded";
    case RouterPolicy::kSessionAffinity:
      return "session-affinity";
  }
  return "?";
}

bool RouterPolicyByName(const std::string& name, RouterPolicy* policy) {
  if (name == "round-robin") {
    *policy = RouterPolicy::kRoundRobin;
  } else if (name == "least-loaded") {
    *policy = RouterPolicy::kLeastLoaded;
  } else if (name == "session-affinity") {
    *policy = RouterPolicy::kSessionAffinity;
  } else {
    return false;
  }
  return true;
}

namespace {

// True when a replica may be chosen as a routing target: alive and not
// pulled from the dispatch set by quarantine / autoscale.
bool Selectable(const ReplicaView& view) {
  return view.alive && view.dispatchable;
}

// Selectable replica in [pool_begin, pool_end) with the least outstanding
// work; -1 when the whole pool is dead. Same deterministic tie-breaks as
// LeastLoadedReplica.
int32_t BestInPool(const std::vector<ReplicaView>& replicas,
                   int32_t pool_begin, int32_t pool_end,
                   bool weight_queued_prefill) {
  int32_t best = -1;
  for (int32_t i = pool_begin; i < pool_end; ++i) {
    if (!Selectable(replicas[static_cast<size_t>(i)])) {
      continue;
    }
    if (best < 0) {
      best = i;
      continue;
    }
    const EngineLoad& cand = replicas[static_cast<size_t>(i)].load;
    const EngineLoad& cur = replicas[static_cast<size_t>(best)].load;
    const int64_t cand_tokens = weight_queued_prefill
                                    ? cand.WeightedTokens()
                                    : cand.OutstandingTokens();
    const int64_t cur_tokens = weight_queued_prefill
                                   ? cur.WeightedTokens()
                                   : cur.OutstandingTokens();
    if (cand_tokens < cur_tokens ||
        (cand_tokens == cur_tokens &&
         cand.TotalRequests() < cur.TotalRequests())) {
      best = i;
    }
  }
  return best;
}

}  // namespace

int32_t LeastLoadedReplica(const std::vector<ReplicaView>& replicas,
                           bool weight_queued_prefill) {
  PENSIEVE_CHECK(!replicas.empty());
  const int32_t best =
      BestInPool(replicas, 0, static_cast<int32_t>(replicas.size()),
                 weight_queued_prefill);
  PENSIEVE_CHECK_GE(best, 0) << "no dispatchable replica to route to";
  return best;
}

namespace {

class RoundRobinRouter final : public Router {
 public:
  const char* name() const override {
    return RouterPolicyName(RouterPolicy::kRoundRobin);
  }

  RoutingDecision Route(const Request& request,
                        const std::vector<ReplicaView>& replicas) override {
    const int32_t n = static_cast<int32_t>(replicas.size());
    RoutingDecision decision;
    // Rotate past dead/undispatchable replicas; with everyone alive this is
    // the plain rotation (the 1-replica bit-for-bit case is untouched).
    for (int32_t tried = 0; tried < n; ++tried) {
      const int32_t candidate = next_;
      next_ = (next_ + 1) % n;
      if (Selectable(replicas[static_cast<size_t>(candidate)])) {
        decision.target = candidate;
        return decision;
      }
    }
    PENSIEVE_LOG_FATAL << "round-robin: no dispatchable replica to route to";
    return decision;
  }

 private:
  int32_t next_ = 0;
};

class LeastLoadedRouter final : public Router {
 public:
  const char* name() const override {
    return RouterPolicyName(RouterPolicy::kLeastLoaded);
  }

  RoutingDecision Route(const Request& request,
                        const std::vector<ReplicaView>& replicas) override {
    RoutingDecision decision;
    // Weighted: a cold conversation's queued recompute work counts, so a
    // burst of long-history turns spreads instead of herding onto one
    // replica whose queue looks short by prompt tokens alone.
    decision.target = LeastLoadedReplica(replicas, /*weight_queued_prefill=*/true);
    return decision;
  }
};

class SessionAffinityRouter final : public Router {
 public:
  explicit SessionAffinityRouter(const RouterOptions& options)
      : options_(options) {}

  const char* name() const override {
    return RouterPolicyName(RouterPolicy::kSessionAffinity);
  }

  RoutingDecision Route(const Request& request,
                        const std::vector<ReplicaView>& replicas) override {
    RoutingDecision decision;
    auto it = home_.find(request.conversation_id);
    if (it == home_.end()) {
      // First contact: place the conversation on the least-loaded replica.
      decision.target = LeastLoadedReplica(replicas);
      home_[request.conversation_id] = decision.target;
      return decision;
    }
    const int32_t home = it->second;
    if (!Selectable(replicas[static_cast<size_t>(home)])) {
      // Home pulled from the dispatch set (NotifyReplicaDown normally erases
      // these entries first; this is the backstop): re-home as first
      // contact, without a migration — the driver drains quarantined homes
      // itself.
      decision.target = LeastLoadedReplica(replicas);
      it->second = decision.target;
      ++counters_.rehomes;
      return decision;
    }
    decision.target = home;
    if (!Overloaded(home, replicas)) {
      return decision;
    }
    const int32_t fallback = LeastLoadedReplica(replicas);
    if (fallback == home) {
      return decision;
    }
    if (!options_.migrate_on_overload) {
      ++counters_.overload_queued;
      return decision;
    }
    // Cache-aware failover: re-home onto the least-loaded replica. When the
    // home still holds KV for this conversation, the driver ships it over
    // the inter-replica link instead of letting the new home recompute the
    // whole history.
    const Engine* home_engine = replicas[static_cast<size_t>(home)].engine;
    decision.target = fallback;
    decision.migrate =
        home_engine != nullptr && home_engine->SupportsStateMigration();
    decision.source = home;
    it->second = fallback;
    ++counters_.rehomes;
    return decision;
  }

  void NotifyReplicaDown(int32_t replica_id) override {
    // The dead replica's KV is gone, so any affinity to it is worthless:
    // forget those homes and let the conversations re-home (as first
    // contact, onto the least-loaded alive replica) at their next turn.
    for (auto it = home_.begin(); it != home_.end();) {
      if (it->second == replica_id) {
        it = home_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  bool Overloaded(int32_t replica,
                  const std::vector<ReplicaView>& replicas) const {
    const int64_t outstanding =
        replicas[static_cast<size_t>(replica)].load.OutstandingTokens();
    if (outstanding <= options_.min_overload_tokens) {
      return false;
    }
    int64_t total = 0;
    for (const ReplicaView& view : replicas) {
      total += view.load.OutstandingTokens();
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(replicas.size());
    return static_cast<double>(outstanding) > options_.overload_factor * mean;
  }

  RouterOptions options_;
  std::unordered_map<int64_t, int32_t> home_;
};

// Alive least-weighted-load replica in [pool_begin, pool_end), scanning from
// a rotating offset so exact ties round-robin across the pool instead of
// collapsing onto the lowest index. Load snapshots often tie at zero here: a
// replica's clock races ahead of the router's while it burns through a
// prefill that arrived, ran and finished inside one step, so consecutive
// dispatches all see an "idle" pool. BestInPool's first-index tie-break then
// serializes the whole burst onto one replica; rotation spreads it.
int32_t RotatedBestInPool(const std::vector<ReplicaView>& replicas,
                          int32_t pool_begin, int32_t pool_end, int32_t* rr) {
  const int32_t size = pool_end - pool_begin;
  int32_t best = -1;
  int64_t best_tokens = 0;
  for (int32_t k = 0; k < size; ++k) {
    const int32_t i = pool_begin + (*rr + k) % size;
    if (!Selectable(replicas[static_cast<size_t>(i)])) {
      continue;
    }
    const int64_t tokens =
        replicas[static_cast<size_t>(i)].load.WeightedTokens();
    if (best < 0 || tokens < best_tokens) {
      best = i;
      best_tokens = tokens;
    }
  }
  if (best >= 0) {
    *rr = (best - pool_begin + 1) % size;
  }
  return best;
}

// Prefill/decode disaggregation (DESIGN.md §13). Replicas [0, prefill_n)
// prefill, the rest decode. Decode homes are sticky per conversation (the
// KV streamed there stays useful across turns); prefill dispatch balances
// on weighted queued work so the pool does not herd.
class DisaggRouter final : public Router {
 public:
  explicit DisaggRouter(const DisaggRouterConfig& config) : config_(config) {}

  const char* name() const override { return "disagg"; }

  RoutingDecision Route(const Request& request,
                        const std::vector<ReplicaView>& replicas) override {
    const int32_t n = static_cast<int32_t>(replicas.size());
    PENSIEVE_CHECK_GE(n, 2) << "disaggregation needs >= 2 replicas";
    const int32_t prefill_n = config_.prefill_replicas;

    RoutingDecision decision;
    if (request.handoff_continuation) {
      // Decode-side placement of a finished prefill's remainder.
      decision.target = DecodeTarget(request.conversation_id, replicas,
                                     prefill_n, n);
      return decision;
    }

    // Pending prefill work if the turn ran at its decode home: the new
    // prompt plus whatever history the home no longer caches.
    const auto it = home_.find(request.conversation_id);
    const int32_t home =
        (it != home_.end() && Selectable(replicas[static_cast<size_t>(it->second)]))
            ? it->second
            : -1;
    int64_t cached = 0;
    if (home >= 0 && replicas[static_cast<size_t>(home)].engine != nullptr) {
      cached = replicas[static_cast<size_t>(home)].engine->
          CachedConversationTokens(request.conversation_id);
    }
    const int64_t pending =
        request.new_prompt_len +
        std::max<int64_t>(0, request.history_len - cached);
    if (pending >= config_.min_handoff_tokens) {
      const int32_t p = RotatedBestInPool(replicas, 0, prefill_n, &rr_prefill_);
      if (p >= 0 && replicas[static_cast<size_t>(p)].engine != nullptr &&
          replicas[static_cast<size_t>(p)].engine->SupportsStateMigration()) {
        decision.target = p;
        decision.prefill_handoff = true;
        return decision;
      }
      // Prefill pool dead (or stateless): fall through colocated.
    }
    decision.target = DecodeTarget(request.conversation_id, replicas,
                                   prefill_n, n);
    return decision;
  }

  void NotifyReplicaDown(int32_t replica_id) override {
    for (auto it = home_.begin(); it != home_.end();) {
      if (it->second == replica_id) {
        it = home_.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  int32_t DecodeTarget(int64_t conversation_id,
                       const std::vector<ReplicaView>& replicas,
                       int32_t prefill_n, int32_t n) {
    const auto it = home_.find(conversation_id);
    if (it != home_.end() &&
        Selectable(replicas[static_cast<size_t>(it->second)])) {
      return it->second;
    }
    int32_t target = RotatedBestInPool(replicas, prefill_n, n, &rr_decode_);
    if (target < 0) {
      // Whole decode pool is down: decode wherever something is alive
      // rather than dropping the request.
      target = LeastLoadedReplica(replicas, /*weight_queued_prefill=*/true);
    }
    if (it != home_.end()) {
      ++counters_.rehomes;
      it->second = target;
    } else {
      home_[conversation_id] = target;
    }
    return target;
  }

  DisaggRouterConfig config_;
  std::unordered_map<int64_t, int32_t> home_;
  int32_t rr_prefill_ = 0;
  int32_t rr_decode_ = 0;
};

}  // namespace

std::unique_ptr<Router> MakeDisaggRouter(const DisaggRouterConfig& config) {
  return std::make_unique<DisaggRouter>(config);
}

std::unique_ptr<Router> MakeRouter(const RouterOptions& options) {
  switch (options.policy) {
    case RouterPolicy::kRoundRobin:
      return std::make_unique<RoundRobinRouter>();
    case RouterPolicy::kLeastLoaded:
      return std::make_unique<LeastLoadedRouter>();
    case RouterPolicy::kSessionAffinity:
      return std::make_unique<SessionAffinityRouter>(options);
  }
  PENSIEVE_LOG_FATAL << "unknown router policy";
  return nullptr;
}

}  // namespace pensieve
