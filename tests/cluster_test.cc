// Tests for the cluster serving layer: routing policies, the inter-replica
// interconnect, and the multi-replica experiment driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster_driver.h"
#include "src/cluster/router.h"
#include "src/common/logging.h"
#include "src/core/experiment.h"
#include "src/model/model_config.h"
#include "src/serving/driver.h"
#include "src/serving/experiment_core.h"
#include "src/serving/pensieve_engine.h"
#include "src/sim/cluster_link.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

GpuCostModel Opt13BModel() {
  return GpuCostModel(Opt13BConfig(), A100Spec(1));
}

WorkloadTrace SmallTrace(int64_t conversations = 20, double rate = 0.5,
                         double think = 10.0, uint64_t seed = 1) {
  TraceOptions options;
  options.num_conversations = conversations;
  options.conversation_rate = rate;
  options.mean_think_time = think;
  options.seed = seed;
  return WorkloadTrace(ShareGptProfile(), options);
}

ReplicaEngineFactory PensieveFactory(const GpuCostModel& model) {
  return [&model](int32_t) { return MakeEngine(SystemKind::kPensieve, model); };
}

void ExpectStatsEq(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_EQ(a.prefill_tokens, b.prefill_tokens);
  EXPECT_EQ(a.reused_gpu_tokens, b.reused_gpu_tokens);
  EXPECT_EQ(a.reused_cpu_tokens, b.reused_cpu_tokens);
  EXPECT_EQ(a.recomputed_history_tokens, b.recomputed_history_tokens);
  EXPECT_EQ(a.suspensions, b.suspensions);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.forced_swap_out_tokens, b.forced_swap_out_tokens);
  EXPECT_EQ(a.aot_swap_out_tokens, b.aot_swap_out_tokens);
  EXPECT_EQ(a.dropped_tokens, b.dropped_tokens);
  EXPECT_EQ(a.migrated_out_tokens, b.migrated_out_tokens);
  EXPECT_EQ(a.migrated_in_tokens, b.migrated_in_tokens);
  EXPECT_DOUBLE_EQ(a.busy_seconds, b.busy_seconds);
  EXPECT_DOUBLE_EQ(a.recompute_seconds, b.recompute_seconds);
  EXPECT_DOUBLE_EQ(a.restore_stall_seconds, b.restore_stall_seconds);
}

// Bit-for-bit: identical completions, identical virtual-time metrics.
void ExpectSummaryEq(const ServingSummary& a, const ServingSummary& b) {
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.window_begin, b.window_begin);
  EXPECT_DOUBLE_EQ(a.window_end, b.window_end);
  EXPECT_EQ(a.window_completions, b.window_completions);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_DOUBLE_EQ(a.token_throughput, b.token_throughput);
  EXPECT_DOUBLE_EQ(a.mean_normalized_latency, b.mean_normalized_latency);
  EXPECT_DOUBLE_EQ(a.p50_normalized_latency, b.p50_normalized_latency);
  EXPECT_DOUBLE_EQ(a.p90_normalized_latency, b.p90_normalized_latency);
  EXPECT_DOUBLE_EQ(a.p99_normalized_latency, b.p99_normalized_latency);
  ExpectStatsEq(a.engine_stats, b.engine_stats);
}

TEST(ClusterInterconnectTest, TransferTimeIsLatencyPlusSerialization) {
  InterconnectSpec spec;
  spec.bandwidth = 1e9;
  spec.latency = 1e-3;
  ClusterInterconnect link(2, spec);
  const double done = link.ScheduleTransfer(0, 1, /*now=*/1.0, /*bytes=*/1e9);
  EXPECT_DOUBLE_EQ(done, 1.0 + 1e-3 + 1.0);
  EXPECT_EQ(link.num_transfers(), 1);
  EXPECT_DOUBLE_EQ(link.total_bytes(), 1e9);
}

TEST(ClusterInterconnectTest, PortsSerializeIndependentPairsDoNot) {
  InterconnectSpec spec;
  spec.bandwidth = 1e9;
  spec.latency = 0.0;
  ClusterInterconnect link(4, spec);
  const double first = link.ScheduleTransfer(0, 1, 0.0, 1e9);   // 0 -> 1s
  const double second = link.ScheduleTransfer(0, 2, 0.0, 1e9);  // egress busy
  const double third = link.ScheduleTransfer(2, 3, 0.0, 1e9);   // free pair
  EXPECT_DOUBLE_EQ(first, 1.0);
  EXPECT_DOUBLE_EQ(second, 2.0);  // queued behind replica 0's egress
  EXPECT_DOUBLE_EQ(third, 1.0);   // 2 -> 3 shares no port with 0 -> 1
}

TEST(RouterTest, RoundRobinRotates) {
  RouterOptions options;
  options.policy = RouterPolicy::kRoundRobin;
  auto router = MakeRouter(options);
  std::vector<ReplicaView> replicas(3);
  Request req;
  for (int i = 0; i < 6; ++i) {
    req.conversation_id = i;
    EXPECT_EQ(router->Route(req, replicas).target, i % 3);
  }
}

TEST(RouterTest, LeastLoadedPicksFewestOutstandingTokens) {
  RouterOptions options;
  options.policy = RouterPolicy::kLeastLoaded;
  auto router = MakeRouter(options);
  std::vector<ReplicaView> replicas(3);
  replicas[0].load.queued_input_tokens = 100;
  replicas[1].load.outstanding_output_tokens = 10;
  replicas[2].load.queued_input_tokens = 50;
  Request req;
  EXPECT_EQ(router->Route(req, replicas).target, 1);
}

TEST(RouterTest, SessionAffinityKeepsConversationHome) {
  RouterOptions options;
  options.policy = RouterPolicy::kSessionAffinity;
  auto router = MakeRouter(options);
  std::vector<ReplicaView> replicas(2);
  replicas[0].load.queued_input_tokens = 100;
  Request req;
  req.conversation_id = 7;
  // First contact lands least-loaded (replica 1).
  EXPECT_EQ(router->Route(req, replicas).target, 1);
  // Later turns return home even when the other replica is now emptier.
  replicas[0].load.queued_input_tokens = 0;
  replicas[1].load.queued_input_tokens = 40;
  RoutingDecision decision = router->Route(req, replicas);
  EXPECT_EQ(decision.target, 1);
  EXPECT_FALSE(decision.migrate);
}

TEST(RouterTest, SessionAffinityFailsOverWhenHomeOverloaded) {
  RouterOptions options;
  options.policy = RouterPolicy::kSessionAffinity;
  options.min_overload_tokens = 10;
  options.overload_factor = 1.5;
  auto router = MakeRouter(options);
  std::vector<ReplicaView> replicas(2);
  Request req;
  req.conversation_id = 3;
  ASSERT_EQ(router->Route(req, replicas).target, 0);  // first contact
  // Home now far above both the absolute floor and the cluster mean.
  replicas[0].load.queued_input_tokens = 1000;
  replicas[1].load.queued_input_tokens = 10;
  RoutingDecision decision = router->Route(req, replicas);
  EXPECT_EQ(decision.target, 1);
  EXPECT_EQ(decision.source, 0);
  EXPECT_EQ(router->counters().rehomes, 1);
  // The conversation is re-homed: the next turn goes to replica 1 directly.
  replicas[0].load.queued_input_tokens = 0;
  replicas[1].load.queued_input_tokens = 0;
  EXPECT_EQ(router->Route(req, replicas).target, 1);
}

TEST(RouterTest, SessionAffinityQueuesAtHomeWhenMigrationDisabled) {
  RouterOptions options;
  options.policy = RouterPolicy::kSessionAffinity;
  options.min_overload_tokens = 10;
  options.overload_factor = 1.5;
  options.migrate_on_overload = false;
  auto router = MakeRouter(options);
  std::vector<ReplicaView> replicas(2);
  Request req;
  req.conversation_id = 3;
  ASSERT_EQ(router->Route(req, replicas).target, 0);
  replicas[0].load.queued_input_tokens = 1000;
  RoutingDecision decision = router->Route(req, replicas);
  EXPECT_EQ(decision.target, 0);
  EXPECT_FALSE(decision.migrate);
  EXPECT_EQ(router->counters().overload_queued, 1);
}

// A 1-replica cluster must reproduce the single-engine experiment exactly,
// whatever the routing policy: every policy maps all requests to replica 0,
// and RunServingExperiment is itself a 1-replica run.
TEST(ClusterDriverTest, OneReplicaMatchesSingleEngineBitForBit) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace();
  auto single_engine = MakeEngine(SystemKind::kPensieve, model);
  ServingSummary single = RunServingExperiment(single_engine.get(), trace);

  for (RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
        RouterPolicy::kSessionAffinity}) {
    ClusterOptions options;
    options.num_replicas = 1;
    options.router.policy = policy;
    ClusterSummary cluster =
        RunClusterExperiment(PensieveFactory(model), trace, options);
    SCOPED_TRACE(RouterPolicyName(policy));
    ASSERT_EQ(cluster.replicas.size(), 1u);
    ExpectSummaryEq(cluster.replicas[0], single);
    ExpectSummaryEq(cluster.cluster, single);
    EXPECT_EQ(cluster.migration.migrations, 0);
    EXPECT_EQ(cluster.migration.rehomes, 0);
  }
}

TEST(ClusterDriverTest, OneReplicaMatchesSingleEngineForStatelessBaseline) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace();
  auto single_engine = MakeEngine(SystemKind::kVllm, model);
  ServingSummary single = RunServingExperiment(single_engine.get(), trace);

  ClusterOptions options;
  options.num_replicas = 1;
  options.router.policy = RouterPolicy::kSessionAffinity;
  ClusterSummary cluster = RunClusterExperiment(
      [&model](int32_t) { return MakeEngine(SystemKind::kVllm, model); }, trace,
      options);
  ExpectSummaryEq(cluster.cluster, single);
}

TEST(ClusterDriverTest, AffinityBeatsRoundRobinOnCacheHits) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/40, /*rate=*/1.0,
                                   /*think=*/5.0, /*seed=*/7);

  auto run = [&](RouterPolicy policy) {
    ClusterOptions options;
    options.num_replicas = 2;
    options.router.policy = policy;
    return RunClusterExperiment(PensieveFactory(model), trace, options);
  };
  ClusterSummary round_robin = run(RouterPolicy::kRoundRobin);
  ClusterSummary affinity = run(RouterPolicy::kSessionAffinity);

  EXPECT_EQ(round_robin.cluster.completed_requests, trace.TotalRequests());
  EXPECT_EQ(affinity.cluster.completed_requests, trace.TotalRequests());
  // Routing conversations back to the replica that caches their KV is the
  // whole point: strictly more history served from cache.
  EXPECT_GT(affinity.cluster.engine_stats.CacheHitRate(),
            round_robin.cluster.engine_stats.CacheHitRate());
}

TEST(ClusterDriverTest, ConservationAcrossReplicas) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/30, /*rate=*/1.0,
                                   /*think=*/5.0, /*seed=*/11);
  ClusterOptions options;
  options.num_replicas = 3;
  options.router.policy = RouterPolicy::kLeastLoaded;
  std::vector<RequestOutcome> outcomes;
  options.outcomes = &outcomes;
  ClusterSummary summary =
      RunClusterExperiment(PensieveFactory(model), trace, options);

  // Every request completes on exactly one replica.
  int64_t per_replica_total = 0;
  for (const ServingSummary& r : summary.replicas) {
    per_replica_total += r.completed_requests;
  }
  EXPECT_EQ(per_replica_total, trace.TotalRequests());
  EXPECT_EQ(summary.cluster.completed_requests, trace.TotalRequests());
  EXPECT_EQ(static_cast<int64_t>(outcomes.size()), trace.TotalRequests());
}

TEST(ClusterDriverTest, MigrationAccountingIsConsistent) {
  GpuCostModel model = Opt13BModel();
  // Aggressive failover thresholds so the bursty trace actually re-homes.
  WorkloadTrace trace = SmallTrace(/*conversations=*/60, /*rate=*/4.0,
                                   /*think=*/2.0, /*seed=*/13);
  ClusterOptions options;
  options.num_replicas = 2;
  options.router.policy = RouterPolicy::kSessionAffinity;
  options.router.min_overload_tokens = 64;
  options.router.overload_factor = 1.1;
  ClusterSummary summary =
      RunClusterExperiment(PensieveFactory(model), trace, options);

  EXPECT_EQ(summary.cluster.completed_requests, trace.TotalRequests());
  ASSERT_GT(summary.migration.rehomes, 0);
  ASSERT_GT(summary.migration.migrations, 0);
  EXPECT_GT(summary.migration.migrated_bytes, 0.0);
  EXPECT_GE(summary.migration.migration_stall_seconds, 0.0);

  // Each migrated token is charged to exactly one importer: the cluster-wide
  // imported total is the sum of per-replica adopted counts, and nobody can
  // adopt more than was shipped.
  int64_t imported = 0;
  int64_t exported = 0;
  for (const ServingSummary& r : summary.replicas) {
    imported += r.engine_stats.migrated_in_tokens;
    exported += r.engine_stats.migrated_out_tokens;
  }
  EXPECT_EQ(summary.migration.migrated_tokens, imported);
  EXPECT_EQ(summary.cluster.engine_stats.migrated_in_tokens, imported);
  EXPECT_EQ(summary.cluster.engine_stats.migrated_out_tokens, exported);
  EXPECT_LE(imported, exported);
  EXPECT_GT(exported, 0);
}

TEST(ClusterDriverTest, DeterministicAcrossRuns) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/25, /*rate=*/1.0,
                                   /*think=*/5.0, /*seed=*/17);
  ClusterOptions options;
  options.num_replicas = 2;
  options.router.policy = RouterPolicy::kSessionAffinity;
  ClusterSummary s1 = RunClusterExperiment(PensieveFactory(model), trace, options);
  ClusterSummary s2 = RunClusterExperiment(PensieveFactory(model), trace, options);
  ExpectSummaryEq(s1.cluster, s2.cluster);
  EXPECT_DOUBLE_EQ(s1.load_imbalance, s2.load_imbalance);
  EXPECT_EQ(s1.migration.migrations, s2.migration.migrations);
}

TEST(RouterTest, RoundRobinSkipsDeadReplicas) {
  RouterOptions options;
  options.policy = RouterPolicy::kRoundRobin;
  auto router = MakeRouter(options);
  std::vector<ReplicaView> replicas(3);
  router->NotifyReplicaDown(1);  // no-op for round-robin, but legal
  replicas[1].alive = false;
  Request req;
  EXPECT_EQ(router->Route(req, replicas).target, 0);
  EXPECT_EQ(router->Route(req, replicas).target, 2);
  EXPECT_EQ(router->Route(req, replicas).target, 0);
  EXPECT_EQ(router->Route(req, replicas).target, 2);
  // The rotation picks replica 1 back up once it is alive again.
  replicas[1].alive = true;
  EXPECT_EQ(router->Route(req, replicas).target, 0);
  EXPECT_EQ(router->Route(req, replicas).target, 1);
  EXPECT_EQ(router->Route(req, replicas).target, 2);
}

TEST(RouterTest, LeastLoadedSkipsDeadReplicas) {
  RouterOptions options;
  options.policy = RouterPolicy::kLeastLoaded;
  auto router = MakeRouter(options);
  std::vector<ReplicaView> replicas(3);
  // Replica 1 would win on load, but it is dead.
  replicas[0].load.queued_input_tokens = 100;
  replicas[1].alive = false;
  replicas[2].load.queued_input_tokens = 50;
  Request req;
  EXPECT_EQ(router->Route(req, replicas).target, 2);
}

TEST(RouterTest, SessionAffinityRehomesAfterReplicaDown) {
  RouterOptions options;
  options.policy = RouterPolicy::kSessionAffinity;
  auto router = MakeRouter(options);
  std::vector<ReplicaView> replicas(2);
  replicas[0].load.queued_input_tokens = 100;
  Request req;
  req.conversation_id = 5;
  ASSERT_EQ(router->Route(req, replicas).target, 1);  // home = 1

  // The home dies: its KV is gone, so the affinity entry must go with it and
  // the conversation re-homes as first contact onto an alive replica.
  router->NotifyReplicaDown(1);
  replicas[1].alive = false;
  RoutingDecision decision = router->Route(req, replicas);
  EXPECT_EQ(decision.target, 0);
  EXPECT_FALSE(decision.migrate);  // nothing to migrate from a dead replica
  // The new home sticks even after the old one recovers (empty anyway).
  router->NotifyReplicaUp(1);
  replicas[1].alive = true;
  replicas[0].load.queued_input_tokens = 100;
  EXPECT_EQ(router->Route(req, replicas).target, 0);
}

TEST(ClusterDriverTest, ReplicaFailureMidRunStillCompletesEverything) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/30, /*rate=*/1.0,
                                   /*think=*/5.0, /*seed=*/19);
  ClusterOptions options;
  options.num_replicas = 2;
  options.router.policy = RouterPolicy::kSessionAffinity;
  ClusterSummary baseline =
      RunClusterExperiment(PensieveFactory(model), trace, options);

  options.faults.push_back(
      ReplicaFault{0.5 * ArrivalSpan(trace), /*replica_id=*/0,
                   /*recover=*/false});
  ClusterSummary faulted =
      RunClusterExperiment(PensieveFactory(model), trace, options);

  // The survivor absorbs everything: no request is lost to the crash.
  EXPECT_EQ(faulted.cluster.completed_requests, trace.TotalRequests());
  EXPECT_EQ(faulted.faults.failures, 1);
  EXPECT_EQ(faulted.faults.recoveries, 0);
  EXPECT_EQ(faulted.faults.orphaned_requests, 0);
  EXPECT_GT(faulted.faults.lost_kv_tokens, 0);
  // Re-homed conversations restart their history from scratch.
  EXPECT_GE(faulted.cluster.engine_stats.recomputed_history_tokens,
            baseline.cluster.engine_stats.recomputed_history_tokens);
}

TEST(ClusterDriverTest, FailAndRecoverRoundTrip) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/30, /*rate=*/1.0,
                                   /*think=*/5.0, /*seed=*/23);
  const double span = ArrivalSpan(trace);
  ClusterOptions options;
  options.num_replicas = 2;
  options.router.policy = RouterPolicy::kRoundRobin;
  options.faults.push_back(ReplicaFault{0.3 * span, 0, /*recover=*/false});
  options.faults.push_back(ReplicaFault{0.6 * span, 0, /*recover=*/true});
  ClusterSummary summary =
      RunClusterExperiment(PensieveFactory(model), trace, options);

  EXPECT_EQ(summary.cluster.completed_requests, trace.TotalRequests());
  EXPECT_EQ(summary.faults.failures, 1);
  EXPECT_EQ(summary.faults.recoveries, 1);
  // The recovered replica comes back empty but must end up serving work
  // again: its engine ran steps after t=0.6*span.
  ASSERT_EQ(summary.replicas.size(), 2u);
  EXPECT_GT(summary.replicas[0].engine_stats.steps, 0);
}

TEST(ClusterDriverTest, PeakBlocksAreHighWaterMarksAcrossIncarnations) {
  // A starved GPU tier fills in both incarnations of the crashed replica.
  // Its peak is the higher of the two high-water marks, and the cluster
  // peak the highest over replicas: neither may exceed one engine's GPU.
  GpuCostModel model = Opt13BModel();
  EngineOverrides overrides;
  overrides.cache_scale = 0.25;
  const auto factory = [&](int32_t) {
    return MakeEngine(SystemKind::kPensieve, model, overrides);
  };
  const auto probe = factory(0);
  const int64_t gpu_blocks = dynamic_cast<const PensieveEngine&>(*probe)
                                 .cache()
                                 .gpu_allocator()
                                 .capacity();
  WorkloadTrace trace = SmallTrace(/*conversations=*/40, /*rate=*/2.0,
                                   /*think=*/2.0, /*seed=*/7);
  const double span = ArrivalSpan(trace);
  ClusterOptions options;
  options.num_replicas = 2;
  options.router.policy = RouterPolicy::kRoundRobin;
  options.faults.push_back(ReplicaFault{0.5 * span, 0, /*recover=*/false});
  options.faults.push_back(ReplicaFault{0.6 * span, 0, /*recover=*/true});
  const ClusterSummary summary = RunClusterExperiment(factory, trace, options);

  EXPECT_EQ(summary.cluster.completed_requests, trace.TotalRequests());
  ASSERT_EQ(summary.faults.recoveries, 1);
  ASSERT_EQ(summary.replicas.size(), 2u);
  const int64_t peak0 = summary.replicas[0].engine_stats.gpu_peak_allocated_blocks;
  const int64_t peak1 = summary.replicas[1].engine_stats.gpu_peak_allocated_blocks;
  EXPECT_GT(peak0, gpu_blocks / 2);
  EXPECT_LE(peak0, gpu_blocks);
  EXPECT_LE(peak1, gpu_blocks);
  EXPECT_EQ(summary.cluster.engine_stats.gpu_peak_allocated_blocks,
            std::max(peak0, peak1));
}

TEST(ClusterDriverTest, DeterministicAcrossRunsWithFaults) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/25, /*rate=*/1.0,
                                   /*think=*/5.0, /*seed=*/29);
  const double span = ArrivalSpan(trace);
  ClusterOptions options;
  options.num_replicas = 2;
  options.router.policy = RouterPolicy::kSessionAffinity;
  options.faults.push_back(ReplicaFault{0.4 * span, 1, /*recover=*/false});
  options.faults.push_back(ReplicaFault{0.8 * span, 1, /*recover=*/true});
  ClusterSummary s1 = RunClusterExperiment(PensieveFactory(model), trace, options);
  ClusterSummary s2 = RunClusterExperiment(PensieveFactory(model), trace, options);
  ExpectSummaryEq(s1.cluster, s2.cluster);
  EXPECT_EQ(s1.faults.failures, s2.faults.failures);
  EXPECT_EQ(s1.faults.recoveries, s2.faults.recoveries);
  EXPECT_EQ(s1.faults.rerouted_requests, s2.faults.rerouted_requests);
  EXPECT_EQ(s1.faults.orphaned_requests, s2.faults.orphaned_requests);
  EXPECT_EQ(s1.faults.lost_kv_tokens, s2.faults.lost_kv_tokens);
  EXPECT_EQ(s1.faults.lost_generated_tokens, s2.faults.lost_generated_tokens);
}

TEST(ClusterDriverTest, SoleReplicaCrashOrphansUntilRecovery) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/20, /*rate=*/1.0,
                                   /*think=*/5.0, /*seed=*/31);
  const double span = ArrivalSpan(trace);
  ClusterOptions options;
  options.num_replicas = 1;
  options.faults.push_back(ReplicaFault{0.2 * span, 0, /*recover=*/false});
  options.faults.push_back(ReplicaFault{0.9 * span, 0, /*recover=*/true});
  ClusterSummary summary =
      RunClusterExperiment(PensieveFactory(model), trace, options);

  // Arrivals during the outage had nowhere to go; the recovery flushes the
  // orphan buffer and the run still completes every request.
  EXPECT_GT(summary.faults.orphaned_requests, 0);
  EXPECT_EQ(summary.cluster.completed_requests, trace.TotalRequests());
}

TEST(ClusterDriverTest, CrashWithoutRecoveryTerminates) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/20, /*rate=*/1.0,
                                   /*think=*/5.0, /*seed=*/31);
  ClusterOptions options;
  options.num_replicas = 1;
  options.faults.push_back(
      ReplicaFault{0.2 * ArrivalSpan(trace), 0, /*recover=*/false});
  // The loop must drain the remaining arrival events into the orphan buffer
  // and exit rather than spin waiting for a replica that never comes back.
  ClusterSummary summary =
      RunClusterExperiment(PensieveFactory(model), trace, options);
  EXPECT_LT(summary.cluster.completed_requests, trace.TotalRequests());
  EXPECT_GT(summary.faults.orphaned_requests, 0);
  EXPECT_EQ(summary.faults.recoveries, 0);
}

// What a crashed stateless replica held, and where its work went: every
// engine of a run appends to one log (the engines die with the run).
struct CrashLog {
  // Replica 0 at its crash: queue shape, tokens generated by requests that
  // finished there, and what DrainUnfinished returned.
  EngineLoad load_at_crash;
  int64_t generated_at_crash = 0;
  int64_t finished_generated = 0;
  DrainedWork drained;
  // Request ids replica 1 received after the crash, in delivery order.
  std::vector<int64_t> enqueued_after_crash;
  bool crashed = false;
};

// Forwards every call to a stateless engine and records it in a CrashLog.
class CrashObservedEngine : public Engine {
 public:
  CrashObservedEngine(int32_t replica_id, std::unique_ptr<Engine> inner, CrashLog* log)
      : replica_id_(replica_id), inner_(std::move(inner)), log_(log) {}

  const std::string& name() const override { return inner_->name(); }
  void Enqueue(const Request& request, double now) override {
    if (replica_id_ == 1 && log_->crashed) {
      log_->enqueued_after_crash.push_back(request.request_id);
    }
    inner_->Enqueue(request, now);
  }
  bool HasWork() const override { return inner_->HasWork(); }
  StepResult Step(double now) override {
    StepResult result = inner_->Step(now);
    if (replica_id_ == 0 && !log_->crashed) {
      for (const RequestOutcome& outcome : result.finished) {
        log_->finished_generated += outcome.generated_tokens;
      }
    }
    return result;
  }
  const EngineStats& stats() const override { return inner_->stats(); }
  EngineLoad Load() const override { return inner_->Load(); }
  DrainedWork DrainUnfinished() override {
    PENSIEVE_CHECK_EQ(replica_id_, 0);
    log_->crashed = true;
    log_->load_at_crash = inner_->Load();
    log_->generated_at_crash = inner_->stats().generated_tokens;
    log_->drained = inner_->DrainUnfinished();
    return log_->drained;
  }

 private:
  int32_t replica_id_;
  std::unique_ptr<Engine> inner_;
  CrashLog* log_;
};

TEST(ClusterDriverTest, StatelessReplicaCrashReroutesQueuedAndRunningWork) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/30, /*rate=*/4.0,
                                   /*think=*/2.0, /*seed=*/19);
  ClusterOptions options;
  options.num_replicas = 2;
  options.router.policy = RouterPolicy::kRoundRobin;
  options.faults.push_back(
      ReplicaFault{0.5 * ArrivalSpan(trace), /*replica_id=*/0, /*recover=*/false});
  CrashLog log;
  EngineOverrides overrides;
  overrides.max_running = 4;  // a short batch keeps requests queued
  const ClusterSummary s = RunClusterExperiment(
      [&](int32_t replica_id) {
        return std::make_unique<CrashObservedEngine>(
            replica_id, MakeEngine(SystemKind::kVllm, model, overrides), &log);
      },
      trace, options);

  ASSERT_TRUE(log.crashed);
  EXPECT_GT(log.load_at_crash.running_requests, 0);
  EXPECT_GT(log.load_at_crash.waiting_requests, 0);
  const std::vector<Request>& drained = log.drained.requests;
  EXPECT_EQ(static_cast<int64_t>(drained.size()), log.load_at_crash.TotalRequests());
  // Drained work restarts on the survivor in arrival (request id) order.
  EXPECT_TRUE(std::is_sorted(drained.begin(), drained.end(),
                             [](const Request& a, const Request& b) {
                               return a.request_id < b.request_id;
                             }));
  std::vector<int64_t> rerouted;
  for (int64_t id : log.enqueued_after_crash) {
    if (std::any_of(drained.begin(), drained.end(),
                    [id](const Request& r) { return r.request_id == id; })) {
      rerouted.push_back(id);
    }
  }
  EXPECT_EQ(rerouted.size(), drained.size());
  EXPECT_TRUE(std::is_sorted(rerouted.begin(), rerouted.end()));
  // The decode progress thrown away: tokens replica 0 generated for requests
  // that never finished there.
  const int64_t unfinished_progress = log.generated_at_crash - log.finished_generated;
  EXPECT_GT(unfinished_progress, 0);
  EXPECT_EQ(log.drained.lost_generated_tokens, unfinished_progress);
  EXPECT_EQ(s.faults.lost_generated_tokens, unfinished_progress);
  EXPECT_GE(s.faults.rerouted_requests, static_cast<int64_t>(drained.size()));
  EXPECT_EQ(s.faults.orphaned_requests, 0);
  EXPECT_EQ(s.cluster.completed_requests, trace.TotalRequests());
}

TEST(ClusterDriverTest, StepTraceTagsReplicas) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/10);
  ClusterOptions options;
  options.num_replicas = 2;
  options.router.policy = RouterPolicy::kRoundRobin;
  std::vector<ClusterStepTraceEntry> step_trace;
  options.step_trace = &step_trace;
  RunClusterExperiment(PensieveFactory(model), trace, options);
  ASSERT_FALSE(step_trace.empty());
  bool saw[2] = {false, false};
  for (const ClusterStepTraceEntry& e : step_trace) {
    ASSERT_GE(e.replica_id, 0);
    ASSERT_LT(e.replica_id, 2);
    saw[e.replica_id] = true;
    EXPECT_GE(e.step.duration, 0.0);
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
}

}  // namespace
}  // namespace pensieve
