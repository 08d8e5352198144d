// Cluster-level experiment metrics.
//
// A cluster run produces one ServingSummary per replica plus aggregates
// that only exist at the cluster level: load imbalance across replicas,
// migration traffic, and the combined (all-replica) summary used to compare
// routing policies apples-to-apples against a single-engine run.

#ifndef PENSIEVE_SRC_CLUSTER_CLUSTER_METRICS_H_
#define PENSIEVE_SRC_CLUSTER_CLUSTER_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/elastic.h"
#include "src/common/status.h"
#include "src/serving/metrics.h"
#include "src/serving/telemetry.h"
#include "src/sim/fault_injector.h"

namespace pensieve {

// One scheduler iteration on one replica (cluster-wide step trace).
struct ClusterStepTraceEntry {
  int32_t replica_id = 0;
  StepTraceEntry step;
};

// KV-migration accounting for the whole run. Token counts are what the
// importing replicas actually adopted, so every migrated token is charged
// to exactly one replica (the sum of per-replica
// EngineStats::migrated_in_tokens equals `migrated_tokens`).
struct MigrationStats {
  int64_t migrations = 0;       // KV transfers scheduled on the interconnect
  int64_t rehomes = 0;          // home reassignments (with or without a transfer)
  int64_t overload_queued = 0;  // overloads resolved by queueing at home
  int64_t migrated_tokens = 0;  // tokens adopted by importing replicas
  double migrated_bytes = 0.0;  // bytes on the inter-replica links
  // Extra arrival delay requests paid waiting for their KV to land.
  double migration_stall_seconds = 0.0;
  // Migrations whose NIC transfer exhausted its retries: the KV was lost in
  // transit and the conversation recomputes at its destination.
  int64_t failed_migrations = 0;
  int64_t kv_tokens_lost_in_transit = 0;
};

// Fault-injection accounting: what replica failures cost the run. The lost
// KV shows up again as recomputed_history_tokens at the re-homed
// conversations' new replicas; the re-routed requests pay their failover in
// end-to-end latency (they keep their original arrival times).
struct FaultStats {
  int64_t failures = 0;
  int64_t recoveries = 0;
  // Queued/running/in-transit requests re-routed off a crashed replica.
  int64_t rerouted_requests = 0;
  // Requests that had to wait for a recovery because no replica was alive.
  int64_t orphaned_requests = 0;
  // Resident KV tokens destroyed with failed replicas (including migrated
  // state lost in transit).
  int64_t lost_kv_tokens = 0;
  // Decode progress thrown away (restarted requests regenerate it).
  int64_t lost_generated_tokens = 0;
};

// Prefill->decode handoff accounting for disaggregated runs (DESIGN.md §13).
// All zero when --disagg is off.
struct HandoffStats {
  int64_t handoff_requests = 0;    // turns dispatched to the prefill pool
  int64_t colocated_requests = 0;  // turns kept on their decode home
  int64_t streams = 0;             // KV streams launched prefill -> decode
  int64_t stream_chunks = 0;       // layer-group chunks delivered
  double stream_bytes = 0.0;       // wire bytes delivered
  int64_t streamed_tokens = 0;     // KV tokens adopted by decode replicas
  // Streams that died: NIC retries exhausted on a chunk, or either endpoint
  // failed mid-stream. The decode side recomputed the prefix instead; no
  // request was dropped.
  int64_t failed_streams = 0;
  int64_t kv_tokens_lost = 0;
  // Handoffs resolved without a wire transfer (decode target == prefill
  // replica because the decode pool was dead, or nothing resident).
  int64_t local_handoffs = 0;
  // Virtual seconds the pipelined streams finished ahead of the equivalent
  // blocking transfer issued at prefill completion (the overlap win), and
  // the decode-side wait between prefill completion and stream arrival.
  double overlap_saved_seconds = 0.0;
  double stream_wait_seconds = 0.0;
};

struct ClusterSummary {
  std::string router_name;
  int32_t num_replicas = 0;
  // Per-replica summaries over the shared steady-state window.
  std::vector<ServingSummary> replicas;
  // Combined summary over every outcome in the run; engine stats are summed
  // across replicas.
  ServingSummary cluster;
  // Peak-to-mean ratio of per-replica busy seconds (1.0 = perfectly even,
  // 0.0 when the cluster never computed).
  double load_imbalance = 0.0;
  MigrationStats migration;
  FaultStats faults;
  // Injected-fault accounting for the inter-replica NIC (migration link).
  // Per-replica PCIe fault stats live in each replica's
  // EngineStats::link_faults and sum into `cluster`.
  LinkFaultStats nic_link_faults;
  // Disaggregated prefill/decode accounting; all zero when --disagg is off.
  HandoffStats handoff;
  // Number of prefill-role replicas this run (0 = colocated).
  int32_t prefill_replicas = 0;
  // Elastic-cluster accounting (health probing and autoscaling;
  // DESIGN.md §14). All zero when the elastic features are off.
  ElasticStats elastic;
};

// Field-wise sum of per-replica engine stats; high-water marks take the max.
EngineStats CombineEngineStats(const std::vector<ServingSummary>& replicas);

// Peak-to-mean ratio of per-replica busy seconds.
double LoadImbalance(const std::vector<ServingSummary>& replicas);

// CSV dump of a cluster step trace (replica_id column + the per-step
// columns of WriteStepTraceCsv).
Status WriteClusterStepTraceCsv(const std::string& path,
                                const std::vector<ClusterStepTraceEntry>& trace);

// Multi-line handoff summary ("handoff-streams:/handoff-bytes:/
// handoff-overlap-ms:" lines); empty when the run never handed off, so
// colocated output stays bit-identical.
std::string FormatHandoffSummary(const HandoffStats& handoff);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_CLUSTER_CLUSTER_METRICS_H_
