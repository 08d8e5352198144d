// Multi-replica virtual-time serving experiment driver: the simulator's one
// event loop.
//
// Replays a WorkloadTrace across N independent replicas behind a router.
// Every turn passes through the router; returning conversations are cheap
// only where their KV still lives, so policy choice shows up directly in the
// cluster cache-hit rate. Replicas advance on their own virtual clocks; the
// driver interleaves them in global event order. A single-engine experiment
// (RunServingExperiment, src/serving/driver.h) is this loop with one
// replica.
//
// Session-affinity failover may migrate a conversation's KV between
// replicas over a simulated interconnect; the shipped bytes, the arrival
// stall, and the adopted tokens are all accounted in the ClusterSummary.
//
// The implementation is a file-local ClusterSim built on the shared
// experiment core (src/sim/event_loop.h + src/serving/experiment_core.h):
// one typed event queue interleaves arrivals, scheduled replica faults,
// handoff-stream arrivals and the health/autoscale timers with replica
// steps, and each event kind has one handler method. HandoffTracker keeps
// the disaggregated merge chains, in-flight KV streams and HandoffStats
// apart from the loop. RunClusterExperiment builds a ClusterSim, runs it
// and returns its summary.

#ifndef PENSIEVE_SRC_CLUSTER_CLUSTER_DRIVER_H_
#define PENSIEVE_SRC_CLUSTER_CLUSTER_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/cluster_metrics.h"
#include "src/cluster/elastic.h"
#include "src/cluster/router.h"
#include "src/serving/engine.h"
#include "src/sim/cluster_link.h"
#include "src/sim/fault_injector.h"
#include "src/workload/trace.h"

namespace pensieve {

// One scheduled fault event. A failure destroys the replica's engine: its
// GPU+CPU KV is lost, its queued/running/in-transit requests are re-routed
// to the surviving replicas (restarting from scratch), and re-homed
// conversations recompute their history at the new home. A recovery brings
// the replica back with a fresh, empty engine.
struct ReplicaFault {
  double time = 0.0;
  int32_t replica_id = 0;
  bool recover = false;  // false = fail at `time`, true = recover
};

// Prefill/decode disaggregation (DESIGN.md §13). When enabled, replicas
// [0, prefill_replicas) form the prefill pool: turns with enough pending
// prefill work run there, and as the prefill step's per-layer KV becomes
// ready it streams over the NIC into the turn's decode replica, which
// admits the continuation when the final layer lands. Disabled runs are
// bit-identical to the colocated cluster.
struct DisaggOptions {
  bool enabled = false;
  // Replicas [0, prefill_replicas) serve prefill, the rest decode.
  // ClusterOptions::Validate requires 1 <= prefill_replicas <=
  // num_replicas - 1, so both pools are non-empty.
  int32_t prefill_replicas = 1;
  // Minimum pending prefill tokens (new prompt + history the decode home no
  // longer caches) for a turn to be worth the handoff.
  int64_t min_handoff_tokens = 64;
  // Transformer layers per stream (the chunking granularity); callers set
  // this from the model config.
  int64_t stream_layers = 1;
};

struct ClusterOptions {
  int32_t num_replicas = 1;
  RouterOptions router;
  InterconnectSpec interconnect;
  DisaggOptions disagg;
  // Scheduled replica fault injection, interleaved with arrivals and steps
  // in deterministic event order (arrival < fail < recover on time ties).
  std::vector<ReplicaFault> faults;
  // KV-migration fault injection on the inter-replica NIC (off by default:
  // all rates zero). A migration whose transfer exhausts its retries loses
  // the KV in transit; the conversation is still re-homed and recomputes
  // its history at the destination — the request is never dropped.
  LinkFaultProfile nic_fault_profile;
  LinkRetryPolicy fault_retry;
  uint64_t fault_seed = 0;
  // Elastic-cluster features (DESIGN.md §14): active health probing with
  // quarantine and queue/latency-driven autoscaling. Both off by default,
  // leaving the run bit-identical to the inelastic driver. With autoscaling,
  // num_replicas is the slot count (= max_replicas); only
  // autoscale.min_replicas slots start active.
  ElasticOptions elastic;
  // Safety valve on total scheduler iterations across all replicas
  // (0 = unlimited).
  int64_t max_steps = 0;
  // When non-null, receives one replica-tagged entry per scheduler iteration.
  std::vector<ClusterStepTraceEntry>* step_trace = nullptr;
  // When non-null, receives every request outcome (for CSV export).
  std::vector<RequestOutcome>* outcomes = nullptr;

  // The one home of the cluster's option rules, the health and autoscale
  // ones included; a switched-off feature's fields are not checked.
  // RunClusterExperiment dies on options that fail it.
  Status Validate() const;
};

// Builds the engine for one replica. Each replica must get its own engine
// (own cache, own simulated hardware); sharing an Engine* across replicas is
// not supported. A factory returning std::unique_ptr<Engine> converts to
// this type; RunServingExperiment passes a handle that does not own the
// caller's engine.
using ReplicaEngineFactory =
    std::function<std::shared_ptr<Engine>(int32_t replica_id)>;

// Runs the trace across the replicas. `options` must pass Validate().
ClusterSummary RunClusterExperiment(const ReplicaEngineFactory& make_engine,
                                    const WorkloadTrace& trace,
                                    const ClusterOptions& options = {});

}  // namespace pensieve

#endif  // PENSIEVE_SRC_CLUSTER_CLUSTER_DRIVER_H_
