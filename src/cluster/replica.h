// One stateful serving replica inside a cluster.
//
// A replica holds an engine plus its own virtual clock; the cluster driver
// interleaves replicas in global time order, so each replica advances
// independently, exactly as a one-replica run advances its engine.
// Routed requests arrive as Deliveries: a delivery carries the request, an
// optional migrated KV payload (imported just before the request is
// enqueued), and the stall the request paid waiting for that payload to
// cross the inter-replica link.

#ifndef PENSIEVE_SRC_CLUSTER_REPLICA_H_
#define PENSIEVE_SRC_CLUSTER_REPLICA_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/cluster/cluster_metrics.h"
#include "src/scheduler/request.h"
#include "src/serving/engine.h"
#include "src/serving/metrics.h"
#include "src/sim/virtual_clock.h"

namespace pensieve {

class Replica {
 public:
  struct Delivery {
    double time = 0.0;  // when the request reaches the replica's queue
    Request request;
    MigratedKvState migrated;  // adopted right before Enqueue (may be empty)
    double migration_stall = 0.0;
    // KV-only delivery (DESIGN.md §13): a handoff stream for a request that
    // finished entirely on the prefill side. The migrated state is imported
    // but no request is enqueued; if the replica dies first, the payload is
    // lost with it (never re-routed).
    bool state_only = false;
    int64_t seq = 0;  // assigned by Deliver(); FIFO among equal times
  };

  struct StepOutcome {
    bool progressed = false;  // false: the replica only advanced its clock
    StepResult result;
  };

  // Everything a failing replica loses: the requests it still owed (queued
  // deliveries plus the engine's queued/running requests, stripped of any
  // in-flight migrated KV), the resident KV destroyed, and the decode
  // progress thrown away.
  struct FailureDrain {
    std::vector<Delivery> deliveries;
    int64_t lost_kv_tokens = 0;
    int64_t lost_generated_tokens = 0;
  };

  // What a *live* drain hands back: unlike Fail, the replica (and its engine)
  // stays up, so in-flight migrated payloads survive inside their deliveries
  // and the engine's cached KV is still exportable afterwards. Used for
  // quarantine drains (keep_state_only=true: state-only KV deliveries are
  // left in place, the replica keeps serving as a cache donor) and for
  // scale-down retirement (keep_state_only=false: state-only payloads are
  // dropped and counted, the replica is about to be destroyed).
  struct LiveDrain {
    std::vector<Delivery> deliveries;
    int64_t lost_generated_tokens = 0;
    // Tokens of state-only KV deliveries discarded (retirement path only).
    int64_t dropped_state_tokens = 0;
  };

  // `engine` is usually owned by the replica alone; a handle that owns
  // nothing (RunServingExperiment's caller-owned engine) works the same.
  Replica(int32_t id, std::shared_ptr<Engine> engine);

  int32_t id() const { return id_; }
  bool alive() const { return engine_ != nullptr; }
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }
  const std::string& engine_name() const { return engine_name_; }
  double now() const { return clock_.now(); }

  // Combined engine stats across every incarnation of this replica: retired
  // stats from engines destroyed by failures plus the current engine's.
  EngineStats stats() const;

  // Crash at virtual time `now`: destroys the engine (all KV and progress
  // lost), retires its stats, and hands back the unfinished work for the
  // driver to re-route. The replica stops reporting events until Recover.
  FailureDrain Fail(double now);

  // Rejoins with a fresh (empty) engine at virtual time `now`.
  void Recover(std::shared_ptr<Engine> engine, double now);

  // Drains every pending request off a replica that stays alive: undelivered
  // deliveries keep their migrated payloads (the driver re-forwards them),
  // and the engine's queued/running requests are unpinned and handed back
  // via DrainForRehome. The engine keeps its cached KV so the driver can
  // still ExportConversationState from it. With keep_state_only, state-only
  // KV deliveries are re-queued locally instead of drained.
  LiveDrain DrainLive(double now, bool keep_state_only);

  // Initial autoscale slot that never served: drops the engine without
  // retiring stats. Only legal before any work was delivered.
  void Dormant();

  // Graceful scale-down destruction: requires an already-drained replica
  // (no pending deliveries). Retires the engine's stats and returns the KV
  // tokens released with it.
  int64_t Retire(double now);

  void Deliver(Delivery delivery);

  // Global time at which this replica next does something: now() when it can
  // step immediately, the next delivery time when it is waiting for input,
  // +inf when fully quiescent.
  double NextEventTime() const;

  // Runs one scheduler iteration (or clock advance) at NextEventTime().
  // Appends a replica-tagged entry to `step_trace` when non-null.
  StepOutcome StepOnce(std::vector<ClusterStepTraceEntry>* step_trace);

  const MetricsCollector& metrics() const { return metrics_; }
  double last_finish_time() const { return last_finish_time_; }
  double migration_stall_seconds() const { return migration_stall_seconds_; }

  // Prefill-equivalent tokens of routed-but-undelivered requests sitting in
  // pending_. The engine's Load() cannot see these (they are not enqueued
  // yet), so a router balancing on engine load alone herds a burst onto
  // whichever replica looked idle at the first dispatch. Weighted routing
  // (EngineLoad::WeightedTokens) folds this in via the cluster driver's view
  // snapshot.
  int64_t pending_request_tokens() const { return pending_request_tokens_; }

  // Records a request outcome into this replica's metrics. StepOnce does
  // this itself for ordinary requests; handoff halves (prefill_only /
  // handoff_continuation) are instead returned unrecorded so the cluster
  // driver can merge the two sides and record the single end-to-end outcome
  // here, on the replica that finished the request.
  void RecordOutcome(const RequestOutcome& outcome);

 private:
  void DeliverDue();

  struct DeliveryLater {
    bool operator()(const Delivery& a, const Delivery& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  int32_t id_;
  std::shared_ptr<Engine> engine_;  // null while the replica is down
  std::string engine_name_;
  // Stats of engine incarnations destroyed by failures (the work they did
  // before crashing still happened on the simulated hardware).
  EngineStats retired_stats_;
  VirtualClock clock_;
  MetricsCollector metrics_;
  std::priority_queue<Delivery, std::vector<Delivery>, DeliveryLater> pending_;
  int64_t next_delivery_seq_ = 0;
  int64_t pending_request_tokens_ = 0;
  double last_finish_time_ = 0.0;
  double migration_stall_seconds_ = 0.0;
  // Engine reported idle with work queued and nothing pending: it is waiting
  // on an external event (a future delivery), not runnable at now().
  bool stalled_ = false;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_CLUSTER_REPLICA_H_
