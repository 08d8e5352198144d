// Elastic replica set: health probing and autoscaling.
//
// Two cooperating mechanisms make the cluster react to trouble *before* it
// turns into lost work (DESIGN.md §14):
//
//  * HealthMonitor — a seeded probe loop on the simulated NIC tracks
//    consecutive probe failures/successes per replica and moves each one
//    through healthy -> suspect -> quarantined -> healthy with hysteresis.
//    Routers stop dispatching to a quarantined replica while it is still
//    alive, so its conversations drain over the ordinary migration path
//    instead of dying with it when it hard-fails.
//
//  * Autoscaler — grows/shrinks the active replica set mid-run from
//    queue-depth and p99-normalized-latency signals with cooldown
//    hysteresis. A retiring replica drains its decode homes before its
//    engine is destroyed, so scale-down never drops a request.
//
// The idiom follows the source-list + failure-tracking + sync-to-healthy
// structure of classic replicated-source clients: probe everything, count
// consecutive failures, stop using a source before it is formally dead, and
// resynchronize state from whoever is healthy.

#ifndef PENSIEVE_SRC_CLUSTER_ELASTIC_H_
#define PENSIEVE_SRC_CLUSTER_ELASTIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/fault_injector.h"

namespace pensieve {

enum class ReplicaHealth : int32_t {
  kHealthy = 0,
  kSuspect = 1,      // failing probes, still dispatchable
  kQuarantined = 2,  // out of the dispatch set, draining
};

// Deterministic "sick replica" window: every probe of `replica_id` scheduled
// in [begin, end) fails, independent of the probe link's fault draw. This is
// how experiments model a replica that is degraded (and about to hard-fail)
// without killing it outright.
struct SickWindow {
  int32_t replica_id = 0;
  double begin = 0.0;
  double end = 0.0;
};

struct HealthOptions {
  bool enabled = false;
  // Virtual seconds between probe rounds (every alive, active replica is
  // probed once per round).
  double probe_interval = 1.0;
  // A probe that takes longer than this on the wire counts as failed even if
  // it was eventually delivered.
  double probe_timeout = 0.05;
  // Consecutive failures before a replica turns suspect / quarantined, and
  // consecutive successes a quarantined replica needs to rejoin. The gap
  // between the thresholds is the hysteresis band.
  int32_t suspect_after = 2;
  int32_t quarantine_after = 4;
  int32_t healthy_after = 3;
  // Probe wire size. Probes are control-plane traffic: they share the NIC's
  // latency/bandwidth figures but do not occupy data ports.
  double probe_bytes = 4096.0;
  // Ambient probe-loss model: a dedicated fault injector (single attempt per
  // probe; the next round is the retry) drawing from this profile.
  LinkFaultProfile probe_faults;
  // Mixed into the cluster fault seed so the probe stream is independent of
  // the data-plane fault stream.
  uint64_t probe_seed = 0x9E3779B97F4A7C15ull;
  std::vector<SickWindow> sick;

  // Sick windows are checked even with probing off; ClusterOptions::Validate
  // bounds their ids by the replica count.
  Status Validate() const;
};

// Accounting identity: probes_sent == probes_ok + probes_failed.
struct HealthStats {
  int64_t probes_sent = 0;
  int64_t probes_ok = 0;
  int64_t probes_failed = 0;
  int64_t suspects = 0;         // healthy -> suspect transitions
  int64_t quarantines = 0;      // -> quarantined transitions
  int64_t reinstatements = 0;   // quarantined -> healthy transitions
  // Work proactively moved off quarantined replicas (vs lost in a crash).
  int64_t drained_requests = 0;
  int64_t drained_kv_tokens = 0;
  int64_t lost_generated_tokens = 0;  // decode progress restarted elsewhere
  // In-flight handoff streams voided because their destination was
  // quarantined mid-stream (the continuation degrades to recompute).
  int64_t voided_streams = 0;
};

// Consecutive-failure health state machine, one slot per replica.
class HealthMonitor {
 public:
  enum class Transition { kNone, kSuspect, kQuarantine, kReinstate };

  HealthMonitor(int32_t num_replicas, const HealthOptions& options);

  bool enabled() const { return options_.enabled; }
  const HealthOptions& options() const { return options_; }

  // True when a probe of `replica` at time `now` is forced to fail by a
  // configured sick window.
  bool InSickWindow(int32_t replica, double now) const;

  // Records one probe result and returns the state transition it caused.
  Transition RecordProbe(int32_t replica, bool ok);

  // Hard fail/recover resets the slot: the state machine restarts healthy
  // (a recovered replica gets a clean slate; a dead one is tracked by the
  // replica lifecycle, not by probes).
  void Reset(int32_t replica);

  ReplicaHealth health(int32_t replica) const;
  bool Quarantined(int32_t replica) const {
    return health(replica) == ReplicaHealth::kQuarantined;
  }

  HealthStats& stats() { return stats_; }
  const HealthStats& stats() const { return stats_; }

 private:
  struct Slot {
    ReplicaHealth health = ReplicaHealth::kHealthy;
    int32_t consecutive_failures = 0;
    int32_t consecutive_successes = 0;
  };

  HealthOptions options_;
  std::vector<Slot> slots_;
  HealthStats stats_;
};

struct AutoscaleOptions {
  bool enabled = false;
  int32_t min_replicas = 1;
  int32_t max_replicas = 1;
  // Virtual seconds between autoscaler evaluations.
  double check_interval = 2.0;
  // Minimum virtual seconds between two scale actions (hysteresis: a scale
  // decision must survive the cooldown before the next one is considered).
  double cooldown = 10.0;
  // Queue-depth signal: mean outstanding weighted tokens per active replica.
  // Above up_queue_tokens -> grow; below down_queue_tokens (with the latency
  // signal also calm) -> shrink. The gap is the hysteresis band.
  int64_t up_queue_tokens = 4096;
  int64_t down_queue_tokens = 512;
  // Latency signal: p99 of recent normalized latencies (s/token). 0 disables
  // the signal and scaling decisions use queue depth alone.
  double up_p99_latency = 0.0;
  // Ring-buffer size of the recent-latency window feeding the p99 estimate.
  int32_t latency_window = 128;

  // ClusterOptions::Validate bounds max_replicas by the slot count.
  Status Validate() const;
};

struct ScaleEvent {
  double time = 0.0;
  int32_t replica_id = -1;
  bool up = false;
  int64_t queue_tokens_per_replica = 0;  // the signal that triggered it
  double p99_latency = 0.0;
};

struct AutoscaleStats {
  int64_t scale_ups = 0;
  int64_t scale_downs = 0;
  // Work drained off retiring replicas (re-routed, never dropped).
  int64_t drained_requests = 0;
  int64_t drained_kv_tokens = 0;
  int64_t lost_generated_tokens = 0;
  // Idle KV released with retired engines (conversations recompute on
  // return; the release is deliberate, not a fault).
  int64_t released_kv_tokens = 0;
  int32_t peak_active_replicas = 0;
  int32_t min_active_replicas = 0;
  std::vector<ScaleEvent> events;
};

// Queue-depth / p99-latency scaling policy with cooldown hysteresis.
class Autoscaler {
 public:
  enum class Decision { kHold, kUp, kDown };

  explicit Autoscaler(const AutoscaleOptions& options);

  bool enabled() const { return options_.enabled; }
  const AutoscaleOptions& options() const { return options_; }

  // Feeds one finished request's normalized latency into the p99 window.
  void RecordFinish(double normalized_latency);

  // One evaluation at time `now` over the active set's total outstanding
  // weighted tokens. Pure decision; the driver performs the scale and calls
  // NoteScaled when it actually happened.
  Decision Decide(double now, int64_t total_weighted_tokens,
                  int32_t active_replicas) const;

  void NoteScaled(double now) { last_scale_time_ = now; }

  // p99 of the recent-latency window (0 while empty).
  double RecentP99() const;

 private:
  AutoscaleOptions options_;
  std::vector<double> window_;
  size_t window_next_ = 0;
  double last_scale_time_ = -1e300;
};

struct ElasticOptions {
  HealthOptions health;
  AutoscaleOptions autoscale;

  bool Enabled() const { return health.enabled || autoscale.enabled; }
};

struct ElasticStats {
  HealthStats health;
  AutoscaleStats autoscale;
};

// Multi-line summary ("health-probes:/quarantines:/scale-events:" lines);
// empty when no probing or scaling happened, so default runs stay
// bit-identical.
std::string FormatElasticSummary(const ElasticStats& stats);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_CLUSTER_ELASTIC_H_
