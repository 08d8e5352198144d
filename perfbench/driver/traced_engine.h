// Benchmark-local Engine decorator. Installed through the cluster driver's
// ReplicaEngineFactory, it forwards every call to the wrapped engine
// unchanged and times the calls into the serving layer from outside the
// library: Step, Enqueue, Load and the migration/drain calls. Forwarding is
// exact, so a decorated run's simulated results equal an undecorated run's
// (the benchmark checks this).

#ifndef PERFBENCH_DRIVER_TRACED_ENGINE_H_
#define PERFBENCH_DRIVER_TRACED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/driver/spans.h"
#include "src/common/stats.h"
#include "src/serving/engine.h"

namespace perfbench {

// Wall-clock accounting of serving-layer calls, shared by every decorated
// engine (all replicas and all crash incarnations) of one cluster run.
struct ServingCallStats {
  pensieve::SampleStats step_wall_us;
  int64_t idle_steps = 0;
  int64_t batch_tokens = 0;
  int64_t batch_requests = 0;
  int64_t enqueue_calls = 0;
  double enqueue_wall_us = 0.0;
  int64_t load_calls = 0;
  double load_wall_us = 0.0;
  double migration_wall_us = 0.0;  // Export + Import + Drain* calls
  // High-water GPU blocks of each engine incarnation, read when it is
  // destroyed; the max is the true per-replica peak.
  int64_t max_incarnation_gpu_peak_blocks = 0;
  // Incarnations whose allocator ledger broke acquires == releases + live.
  int64_t ledger_violations = 0;

  double StepWallUs() const { return step_wall_us.Sum(); }
  // All timed engine calls, for the cluster layer's self time.
  double EngineCallWallUs() const {
    return StepWallUs() + enqueue_wall_us + load_wall_us + migration_wall_us;
  }
};

class TracedEngine : public pensieve::Engine {
 public:
  TracedEngine(std::unique_ptr<pensieve::Engine> inner, int32_t replica,
               ServingCallStats* stats, SpanRecorder* spans);
  ~TracedEngine() override;

  TracedEngine(const TracedEngine&) = delete;
  TracedEngine& operator=(const TracedEngine&) = delete;

  const std::string& name() const override { return inner_->name(); }
  void Enqueue(const pensieve::Request& request, double now) override;
  bool HasWork() const override { return inner_->HasWork(); }
  pensieve::StepResult Step(double now) override;
  const pensieve::EngineStats& stats() const override { return inner_->stats(); }
  pensieve::EngineLoad Load() const override;

  bool SupportsStateMigration() const override {
    return inner_->SupportsStateMigration();
  }
  int64_t CachedConversationTokens(int64_t conversation_id) const override {
    return inner_->CachedConversationTokens(conversation_id);
  }
  pensieve::MigratedKvState ExportConversationState(int64_t conversation_id) override;
  int64_t ImportConversationState(int64_t conversation_id,
                                  const pensieve::MigratedKvState& state,
                                  double now) override;
  pensieve::DrainedWork DrainUnfinished() override;
  pensieve::DrainedWork DrainForRehome() override;

  std::vector<pensieve::PeerSpillOffer> TakePeerSpillOffers() override {
    return inner_->TakePeerSpillOffers();
  }
  int64_t IdleCpuCacheTokens() const override { return inner_->IdleCpuCacheTokens(); }
  int64_t ReserveForeignCpuTokens(int64_t tokens) override {
    return inner_->ReserveForeignCpuTokens(tokens);
  }
  void ReleaseForeignCpuTokens(int64_t tokens) override {
    inner_->ReleaseForeignCpuTokens(tokens);
  }
  int64_t AcceptPeerPrefix(int64_t conversation_id, int64_t first_token,
                           int64_t last_token, int64_t kv_len_hint,
                           double now) override {
    return inner_->AcceptPeerPrefix(conversation_id, first_token, last_token,
                                    kv_len_hint, now);
  }
  int64_t TotalCachedTokens() const override { return inner_->TotalCachedTokens(); }

 private:
  std::unique_ptr<pensieve::Engine> inner_;
  int32_t replica_;
  ServingCallStats* stats_;
  SpanRecorder* spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACED_ENGINE_H_
