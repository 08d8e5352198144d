// Tests for the elastic replica set (DESIGN.md §14): the health-probe state
// machine, the autoscaler's hysteresis, router behavior around quarantined
// replicas, and the cluster driver's drain / scale lifecycles —
// including the no-dropped-request contract under every degradation.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster_driver.h"
#include "src/cluster/elastic.h"
#include "src/cluster/router.h"
#include "src/core/experiment.h"
#include "src/model/model_config.h"
#include "src/serving/engine.h"
#include "src/sim/hardware.h"
#include "src/workload/trace.h"

namespace pensieve {
namespace {

GpuCostModel Opt13BModel() {
  return GpuCostModel(Opt13BConfig(), A100Spec(1));
}

WorkloadTrace SmallTrace(int64_t conversations = 30, double rate = 2.0,
                         double think = 2.0, uint64_t seed = 5) {
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

void ExpectNoDropAndIdentities(const ClusterSummary& s, int64_t expected) {
  EXPECT_EQ(s.cluster.completed_requests, expected);
  const HealthStats& h = s.elastic.health;
  EXPECT_EQ(h.probes_sent, h.probes_ok + h.probes_failed);
}

// --- HealthMonitor state machine --------------------------------------------

HealthOptions ProbeOptions() {
  HealthOptions options;
  options.enabled = true;
  options.suspect_after = 2;
  options.quarantine_after = 4;
  options.healthy_after = 3;
  return options;
}

TEST(HealthMonitorTest, ConsecutiveFailuresWalkTheStateMachine) {
  HealthMonitor monitor(1, ProbeOptions());
  EXPECT_EQ(monitor.health(0), ReplicaHealth::kHealthy);
  EXPECT_EQ(monitor.RecordProbe(0, false), HealthMonitor::Transition::kNone);
  EXPECT_EQ(monitor.RecordProbe(0, false), HealthMonitor::Transition::kSuspect);
  EXPECT_EQ(monitor.health(0), ReplicaHealth::kSuspect);
  EXPECT_EQ(monitor.RecordProbe(0, false), HealthMonitor::Transition::kNone);
  EXPECT_EQ(monitor.RecordProbe(0, false),
            HealthMonitor::Transition::kQuarantine);
  EXPECT_TRUE(monitor.Quarantined(0));
  // Recovery needs healthy_after consecutive successes.
  EXPECT_EQ(monitor.RecordProbe(0, true), HealthMonitor::Transition::kNone);
  EXPECT_EQ(monitor.RecordProbe(0, true), HealthMonitor::Transition::kNone);
  EXPECT_EQ(monitor.RecordProbe(0, true),
            HealthMonitor::Transition::kReinstate);
  EXPECT_EQ(monitor.health(0), ReplicaHealth::kHealthy);
  EXPECT_EQ(monitor.stats().suspects, 1);
  EXPECT_EQ(monitor.stats().quarantines, 1);
  EXPECT_EQ(monitor.stats().reinstatements, 1);
}

TEST(HealthMonitorTest, SuspectRecoversSilently) {
  HealthMonitor monitor(1, ProbeOptions());
  monitor.RecordProbe(0, false);
  monitor.RecordProbe(0, false);
  ASSERT_EQ(monitor.health(0), ReplicaHealth::kSuspect);
  // healthy_after consecutive successes recover a suspect without a formal
  // transition: it never left the dispatch set.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(monitor.RecordProbe(0, true), HealthMonitor::Transition::kNone);
  }
  EXPECT_EQ(monitor.health(0), ReplicaHealth::kHealthy);
  EXPECT_EQ(monitor.stats().reinstatements, 0);
}

TEST(HealthMonitorTest, FailureStreakInterruptedBySuccessRestarts) {
  HealthMonitor monitor(1, ProbeOptions());
  for (int i = 0; i < 3; ++i) {
    monitor.RecordProbe(0, false);
  }
  ASSERT_EQ(monitor.health(0), ReplicaHealth::kSuspect);
  monitor.RecordProbe(0, true);
  // The success restarted the failure streak: three more failures keep the
  // replica suspect (quarantine needs four consecutive), and only the
  // fourth quarantines it.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(monitor.RecordProbe(0, false), HealthMonitor::Transition::kNone);
  }
  EXPECT_EQ(monitor.health(0), ReplicaHealth::kSuspect);
  EXPECT_EQ(monitor.RecordProbe(0, false),
            HealthMonitor::Transition::kQuarantine);
}

TEST(HealthMonitorTest, ResetClearsSlotAndKeepsCounters) {
  HealthMonitor monitor(2, ProbeOptions());
  for (int i = 0; i < 4; ++i) {
    monitor.RecordProbe(1, false);
  }
  ASSERT_TRUE(monitor.Quarantined(1));
  monitor.Reset(1);
  EXPECT_EQ(monitor.health(1), ReplicaHealth::kHealthy);
  EXPECT_EQ(monitor.stats().quarantines, 1);  // history survives the reset
}

TEST(HealthMonitorTest, ProbeAccountingIdentity) {
  HealthMonitor monitor(1, ProbeOptions());
  for (int i = 0; i < 7; ++i) {
    monitor.RecordProbe(0, i % 2 == 0);
  }
  const HealthStats& stats = monitor.stats();
  EXPECT_EQ(stats.probes_sent, 7);
  EXPECT_EQ(stats.probes_sent, stats.probes_ok + stats.probes_failed);
}

TEST(HealthMonitorTest, SickWindowCoversHalfOpenInterval) {
  HealthOptions options = ProbeOptions();
  options.sick.push_back({0, 10.0, 20.0});
  HealthMonitor monitor(2, options);
  EXPECT_FALSE(monitor.InSickWindow(0, 9.9));
  EXPECT_TRUE(monitor.InSickWindow(0, 10.0));
  EXPECT_TRUE(monitor.InSickWindow(0, 19.9));
  EXPECT_FALSE(monitor.InSickWindow(0, 20.0));
  EXPECT_FALSE(monitor.InSickWindow(1, 15.0));
}

// --- Autoscaler policy ------------------------------------------------------

AutoscaleOptions ScaleOptions() {
  AutoscaleOptions options;
  options.enabled = true;
  options.min_replicas = 1;
  options.max_replicas = 4;
  options.cooldown = 10.0;
  options.up_queue_tokens = 1000;
  options.down_queue_tokens = 100;
  return options;
}

TEST(AutoscalerTest, QueueDepthSignalScalesBothDirections) {
  Autoscaler scaler(ScaleOptions());
  // 2 active, 4000 outstanding -> 2000/replica, above the up threshold.
  EXPECT_EQ(scaler.Decide(100.0, 4000, 2), Autoscaler::Decision::kUp);
  // 2 active, 100 outstanding -> 50/replica, below the down threshold.
  EXPECT_EQ(scaler.Decide(100.0, 100, 2), Autoscaler::Decision::kDown);
  // In the hysteresis band: hold.
  EXPECT_EQ(scaler.Decide(100.0, 1000, 2), Autoscaler::Decision::kHold);
}

TEST(AutoscalerTest, CooldownSuppressesBackToBackScaling) {
  Autoscaler scaler(ScaleOptions());
  ASSERT_EQ(scaler.Decide(100.0, 8000, 2), Autoscaler::Decision::kUp);
  scaler.NoteScaled(100.0);
  EXPECT_EQ(scaler.Decide(105.0, 8000, 3), Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Decide(110.5, 8000, 3), Autoscaler::Decision::kUp);
}

TEST(AutoscalerTest, RespectsMinAndMaxBounds) {
  Autoscaler scaler(ScaleOptions());
  EXPECT_EQ(scaler.Decide(100.0, 100000, 4), Autoscaler::Decision::kHold);
  EXPECT_EQ(scaler.Decide(100.0, 0, 1), Autoscaler::Decision::kHold);
}

TEST(AutoscalerTest, HotLatencySignalForcesUpAndBlocksDown) {
  AutoscaleOptions options = ScaleOptions();
  options.up_p99_latency = 0.050;
  options.latency_window = 8;
  Autoscaler scaler(options);
  for (int i = 0; i < 8; ++i) {
    scaler.RecordFinish(0.2);  // way over the 50 ms/token target
  }
  EXPECT_GT(scaler.RecentP99(), options.up_p99_latency);
  // Queue depth alone says shrink; the hot latency signal overrides to grow.
  EXPECT_EQ(scaler.Decide(100.0, 0, 2), Autoscaler::Decision::kUp);
}

// --- Routers skip quarantined replicas --------------------------------------

struct RouterRig {
  explicit RouterRig(int32_t n) {
    for (int32_t i = 0; i < n; ++i) {
      engines.push_back(MakeEngine(SystemKind::kPensieve, model));
      ReplicaView view;
      view.engine = engines.back().get();
      view.alive = true;
      views.push_back(view);
    }
  }
  GpuCostModel model = Opt13BModel();
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<ReplicaView> views;
};

Request FreshTurn(int64_t conv, int64_t prompt) {
  Request r;
  r.request_id = conv;
  r.conversation_id = conv;
  r.new_prompt_len = prompt;
  r.target_output_len = 16;
  return r;
}

TEST(QuarantineRoutingTest, RoundRobinSkipsQuarantinedReplica) {
  RouterRig rig(3);
  rig.views[1].dispatchable = false;
  RouterOptions options;
  options.policy = RouterPolicy::kRoundRobin;
  auto router = MakeRouter(options);
  for (int i = 0; i < 9; ++i) {
    EXPECT_NE(router->Route(FreshTurn(i, 50), rig.views).target, 1);
  }
}

TEST(QuarantineRoutingTest, LeastLoadedSkipsIdleQuarantinedReplica) {
  RouterRig rig(3);
  // Replica 1 looks emptiest — but it is quarantined.
  rig.views[0].load.outstanding_output_tokens = 500;
  rig.views[2].load.outstanding_output_tokens = 800;
  rig.views[1].dispatchable = false;
  RouterOptions options;
  options.policy = RouterPolicy::kLeastLoaded;
  auto router = MakeRouter(options);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(router->Route(FreshTurn(i, 50), rig.views).target, 0);
  }
}

TEST(QuarantineRoutingTest, AffinityRehomesOffQuarantinedHome) {
  RouterRig rig(3);
  RouterOptions options;
  options.policy = RouterPolicy::kSessionAffinity;
  auto router = MakeRouter(options);
  const Request turn = FreshTurn(7, 50);
  const int32_t home = router->Route(turn, rig.views).target;
  rig.views[static_cast<size_t>(home)].dispatchable = false;
  const RoutingDecision moved = router->Route(turn, rig.views);
  EXPECT_NE(moved.target, home);
}

TEST(QuarantineRoutingTest, DisaggSkipsQuarantinedPrefillAndDecode) {
  RouterRig rig(4);
  DisaggRouterConfig config;
  config.prefill_replicas = 2;
  config.min_handoff_tokens = 100;
  auto router = MakeDisaggRouter(config);
  // Prefill replica 0 quarantined: large turns go to prefill replica 1.
  rig.views[0].dispatchable = false;
  for (int i = 0; i < 3; ++i) {
    const RoutingDecision d = router->Route(FreshTurn(i, 500), rig.views);
    ASSERT_TRUE(d.prefill_handoff);
    EXPECT_EQ(d.target, 1);
  }
  rig.views[0].dispatchable = true;
  // Decode home quarantined: the continuation re-homes to the other decode.
  Request cont = FreshTurn(9, 1);
  cont.handoff_continuation = true;
  const int32_t home = router->Route(cont, rig.views).target;
  ASSERT_GE(home, 2);
  rig.views[static_cast<size_t>(home)].dispatchable = false;
  const RoutingDecision moved = router->Route(cont, rig.views);
  EXPECT_NE(moved.target, home);
  EXPECT_GE(moved.target, 2);
}

// --- Cluster lifecycles -----------------------------------------------------

TEST(ElasticClusterTest, FaultFreeProbingIsInvisibleToServing) {
  const GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace = SmallTrace();

  ClusterOptions plain;
  plain.num_replicas = 3;
  const ClusterSummary base =
      RunClusterExperiment(PensieveFactory(model), trace, plain);

  ClusterOptions probed = plain;
  probed.elastic.health.enabled = true;
  probed.elastic.health.probe_interval = 0.5;
  const ClusterSummary with_probes =
      RunClusterExperiment(PensieveFactory(model), trace, probed);

  // Probes are control-plane traffic: same completions, same virtual-time
  // serving metrics, bit for bit.
  EXPECT_EQ(with_probes.cluster.completed_requests,
            base.cluster.completed_requests);
  EXPECT_DOUBLE_EQ(with_probes.cluster.makespan, base.cluster.makespan);
  EXPECT_EQ(with_probes.cluster.engine_stats.generated_tokens,
            base.cluster.engine_stats.generated_tokens);
  EXPECT_DOUBLE_EQ(with_probes.cluster.engine_stats.busy_seconds,
                   base.cluster.engine_stats.busy_seconds);
  EXPECT_EQ(with_probes.cluster.engine_stats.recomputed_history_tokens,
            base.cluster.engine_stats.recomputed_history_tokens);
  EXPECT_GT(with_probes.elastic.health.probes_sent, 0);
  EXPECT_EQ(with_probes.elastic.health.probes_failed, 0);
  EXPECT_EQ(with_probes.elastic.health.quarantines, 0);
}

TEST(ElasticClusterTest, SickReplicaIsQuarantinedDrainedAndReinstated) {
  const GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace = SmallTrace(/*conversations=*/40, /*rate=*/3.0);

  ClusterOptions options;
  options.num_replicas = 3;
  options.router.policy = RouterPolicy::kSessionAffinity;
  options.elastic.health.enabled = true;
  options.elastic.health.probe_interval = 0.5;
  options.elastic.health.sick.push_back({1, 5.0, 20.0});
  const ClusterSummary s =
      RunClusterExperiment(PensieveFactory(model), trace, options);

  ExpectNoDropAndIdentities(s, trace.TotalRequests());
  EXPECT_GE(s.elastic.health.quarantines, 1);
  EXPECT_GE(s.elastic.health.reinstatements, 1);
  EXPECT_GE(s.elastic.health.drained_requests, 1);
  EXPECT_EQ(s.faults.failures, 0);  // nobody actually crashed
}

TEST(ElasticClusterTest, QuarantineAheadOfCrashBeatsHardFailOnly) {
  const GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace = SmallTrace(/*conversations=*/40, /*rate=*/3.0);

  ClusterOptions hard;
  hard.num_replicas = 3;
  hard.router.policy = RouterPolicy::kSessionAffinity;
  hard.faults.push_back({25.0, 1, /*recover=*/false});
  const ClusterSummary crash_only =
      RunClusterExperiment(PensieveFactory(model), trace, hard);

  ClusterOptions probed = hard;
  probed.elastic.health.enabled = true;
  probed.elastic.health.probe_interval = 0.5;
  probed.elastic.health.sick.push_back({1, 10.0, 25.0});
  const ClusterSummary with_probes =
      RunClusterExperiment(PensieveFactory(model), trace, probed);

  ExpectNoDropAndIdentities(crash_only, trace.TotalRequests());
  ExpectNoDropAndIdentities(with_probes, trace.TotalRequests());
  EXPECT_GE(with_probes.elastic.health.quarantines, 1);
  // The quarantine drained work ahead of the crash, so the crash found less
  // to destroy.
  EXPECT_LT(with_probes.faults.lost_kv_tokens, crash_only.faults.lost_kv_tokens);
  EXPECT_LE(with_probes.faults.rerouted_requests,
            crash_only.faults.rerouted_requests);
}

TEST(ElasticClusterTest, MidStreamQuarantineDegradesToRecomputeWithoutDrop) {
  const GpuCostModel model = Opt13BModel();
  // Long prompts so turns hand off and streams are regularly in flight.
  DatasetProfile profile;
  profile.name = "prefill-heavy-test";
  profile.mean_turns = 2.0;
  profile.mean_input_len = 900.0;
  profile.input_len_cv = 0.5;
  profile.mean_output_len = 24.0;
  profile.output_len_cv = 0.5;
  TraceOptions trace_options;
  trace_options.num_conversations = 40;
  trace_options.conversation_rate = 3.0;
  trace_options.mean_think_time = 2.0;
  trace_options.seed = 11;
  const WorkloadTrace trace(profile, trace_options);

  ClusterOptions options;
  options.num_replicas = 3;
  options.disagg.enabled = true;
  options.disagg.prefill_replicas = 1;
  options.disagg.min_handoff_tokens = 64;
  options.disagg.stream_layers = 40;
  // A slow NIC keeps streams on the wire for whole virtual seconds, so the
  // quarantine reliably catches some mid-flight.
  options.interconnect.bandwidth = 50e6;
  options.elastic.health.enabled = true;
  options.elastic.health.probe_interval = 0.25;
  // Decode replica 2 turns sick early and stays sick: continuations with
  // streams already in flight toward it must re-route and recompute.
  options.elastic.health.sick.push_back({2, 3.0, 1e9});
  const ClusterSummary s =
      RunClusterExperiment(PensieveFactory(model), trace, options);

  ExpectNoDropAndIdentities(s, trace.TotalRequests());
  EXPECT_GE(s.elastic.health.quarantines, 1);
  EXPECT_GE(s.elastic.health.voided_streams, 1);
  EXPECT_GE(s.handoff.failed_streams, s.elastic.health.voided_streams);
  EXPECT_GT(s.handoff.streams, 0);
}

TEST(ElasticClusterTest, AutoscalerGrowsIntoLoadAndRetiresCleanly) {
  const GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace =
      SmallTrace(/*conversations=*/60, /*rate=*/5.0, /*think=*/2.0);

  ClusterOptions options;
  options.num_replicas = 3;
  options.router.policy = RouterPolicy::kLeastLoaded;
  options.elastic.autoscale.enabled = true;
  options.elastic.autoscale.min_replicas = 1;
  options.elastic.autoscale.max_replicas = 3;
  options.elastic.autoscale.check_interval = 1.0;
  options.elastic.autoscale.cooldown = 4.0;
  options.elastic.autoscale.up_queue_tokens = 1024;
  options.elastic.autoscale.down_queue_tokens = 128;
  const ClusterSummary s =
      RunClusterExperiment(PensieveFactory(model), trace, options);

  ExpectNoDropAndIdentities(s, trace.TotalRequests());
  const AutoscaleStats& a = s.elastic.autoscale;
  EXPECT_GE(a.scale_ups, 1);
  EXPECT_GE(a.scale_downs, 1);
  EXPECT_GT(a.peak_active_replicas, 1);
  EXPECT_GE(a.min_active_replicas, 1);
  for (const ScaleEvent& e : a.events) {
    EXPECT_GE(e.replica_id, 0);
    EXPECT_LT(e.replica_id, 3);
  }
}

TEST(ElasticClusterTest, DeterministicAcrossIdenticalElasticRuns) {
  const GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace = SmallTrace(/*conversations=*/30, /*rate=*/3.0);

  ClusterOptions options;
  options.num_replicas = 3;
  options.elastic.health.enabled = true;
  options.elastic.health.probe_interval = 0.5;
  options.elastic.health.probe_faults.timeout_rate = 0.2;
  options.elastic.health.sick.push_back({1, 5.0, 15.0});
  options.elastic.autoscale.enabled = true;
  options.elastic.autoscale.min_replicas = 2;
  options.elastic.autoscale.max_replicas = 3;
  // Replica 0's starved CPU tier makes it recompute; the run quarantines,
  // scales up and migrates, so none of the comparisons below is 0 == 0.
  const ReplicaEngineFactory factory = [&model](int32_t replica_id) {
    EngineOverrides overrides;
    overrides.cache_scale = 0.15;
    overrides.cpu_cache_scale = replica_id == 0 ? 0.15 : 2.0;
    return MakeEngine(SystemKind::kPensieve, model, overrides);
  };

  const ClusterSummary a = RunClusterExperiment(factory, trace, options);
  const ClusterSummary b = RunClusterExperiment(factory, trace, options);
  ASSERT_GT(a.elastic.health.quarantines, 0);
  ASSERT_GT(a.elastic.autoscale.scale_ups, 0);
  ASSERT_GT(a.migration.migrations, 0);
  EXPECT_EQ(a.cluster.completed_requests, b.cluster.completed_requests);
  EXPECT_DOUBLE_EQ(a.cluster.makespan, b.cluster.makespan);
  EXPECT_EQ(a.elastic.health.probes_sent, b.elastic.health.probes_sent);
  EXPECT_EQ(a.elastic.health.probes_failed, b.elastic.health.probes_failed);
  EXPECT_EQ(a.elastic.health.quarantines, b.elastic.health.quarantines);
  EXPECT_EQ(a.elastic.autoscale.scale_ups, b.elastic.autoscale.scale_ups);
  EXPECT_EQ(a.migration.migrations, b.migration.migrations);
  EXPECT_EQ(a.cluster.engine_stats.recomputed_history_tokens,
            b.cluster.engine_stats.recomputed_history_tokens);
  EXPECT_EQ(a.nic_link_faults.transfers, b.nic_link_faults.transfers);
}

// --- Option validation ------------------------------------------------------

// Each case breaks one rule of a valid three-replica configuration; the
// violation must come back as InvalidArgument naming the field.
struct ClusterRuleCase {
  const char* field;
  std::function<void(ClusterOptions*)> mutate;
};

TEST(OptionValidationTest, DefaultsPass) {
  EXPECT_TRUE(ClusterOptions{}.Validate().ok());
  EXPECT_TRUE(HealthOptions{}.Validate().ok());
  EXPECT_TRUE(AutoscaleOptions{}.Validate().ok());
  for (SystemKind kind : {SystemKind::kPensieve, SystemKind::kPensieveGpuOnly,
                          SystemKind::kVllm, SystemKind::kTensorRtLlm}) {
    EXPECT_TRUE(EngineOverrides{}.Validate(kind).ok()) << SystemKindName(kind);
  }
}

TEST(OptionValidationTest, EachClusterRuleNamesItsField) {
  const auto probe = [](ClusterOptions* o) { o->elastic.health.enabled = true; };
  const auto scale = [](ClusterOptions* o) {
    o->elastic.autoscale.enabled = true;
    o->elastic.autoscale.max_replicas = 3;
  };
  const auto split = [](ClusterOptions* o) { o->disagg.enabled = true; };
  const std::vector<ClusterRuleCase> cases = {
      {"num_replicas", [](ClusterOptions* o) { o->num_replicas = 0; }},
      {"faults entry",
       [](ClusterOptions* o) { o->faults.push_back({10.0, 3, false}); }},
      {"faults entry",
       [](ClusterOptions* o) { o->faults.push_back({10.0, -1, false}); }},
      {"faults entry",
       [](ClusterOptions* o) { o->faults.push_back({-1.0, 0, true}); }},
      {"health.sick window",
       [](ClusterOptions* o) { o->elastic.health.sick.push_back({3, 1.0, 2.0}); }},
      {"health.sick window",
       [](ClusterOptions* o) { o->elastic.health.sick.push_back({-1, 1.0, 2.0}); }},
      {"health.sick window",
       [](ClusterOptions* o) { o->elastic.health.sick.push_back({1, 2.0, 2.0}); }},
      {"health.sick window",
       [](ClusterOptions* o) { o->elastic.health.sick.push_back({1, -1.0, 2.0}); }},
      {"health.probe_interval",
       [&](ClusterOptions* o) { probe(o); o->elastic.health.probe_interval = 0.0; }},
      {"health.probe_timeout",
       [&](ClusterOptions* o) { probe(o); o->elastic.health.probe_timeout = 0.0; }},
      {"health.suspect_after",
       [&](ClusterOptions* o) { probe(o); o->elastic.health.suspect_after = 0; }},
      {"health.quarantine_after",
       [&](ClusterOptions* o) { probe(o); o->elastic.health.quarantine_after = 1; }},
      {"health.healthy_after",
       [&](ClusterOptions* o) { probe(o); o->elastic.health.healthy_after = 0; }},
      {"autoscale.min_replicas",
       [&](ClusterOptions* o) { scale(o); o->elastic.autoscale.min_replicas = 0; }},
      {"autoscale.max_replicas",
       [&](ClusterOptions* o) { scale(o); o->elastic.autoscale.min_replicas = 4; }},
      {"autoscale.max_replicas",
       [&](ClusterOptions* o) { scale(o); o->elastic.autoscale.max_replicas = 4; }},
      {"autoscale.check_interval", [&](ClusterOptions* o) {
         scale(o);
         o->elastic.autoscale.check_interval = 0.0;
       }},
      {"autoscale.cooldown",
       [&](ClusterOptions* o) { scale(o); o->elastic.autoscale.cooldown = -1.0; }},
      {"autoscale.up_queue_tokens", [&](ClusterOptions* o) {
         scale(o);
         o->elastic.autoscale.down_queue_tokens = 4096;
       }},
      {"autoscale.latency_window", [&](ClusterOptions* o) {
         scale(o);
         o->elastic.autoscale.latency_window = 0;
       }},
      {"autoscale excludes disagg",
       [&](ClusterOptions* o) { scale(o); split(o); }},
      {"disagg needs num_replicas",
       [&](ClusterOptions* o) { split(o); o->num_replicas = 1; }},
      {"disagg.prefill_replicas", [&](ClusterOptions* o) {
         split(o);
         o->disagg.prefill_replicas = 0;
       }},
      {"disagg.prefill_replicas", [&](ClusterOptions* o) {
         split(o);
         o->disagg.prefill_replicas = 3;
       }},
  };
  for (const ClusterRuleCase& c : cases) {
    ClusterOptions options;
    options.num_replicas = 3;
    ASSERT_TRUE(options.Validate().ok());
    c.mutate(&options);
    const Status status = options.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.field;
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << c.field << ": " << status.ToString();
  }
}

// The fields of a switched-off feature stay unchecked.
TEST(OptionValidationTest, SwitchedOffFeaturesAreNotChecked) {
  ClusterOptions options;
  options.num_replicas = 1;
  options.elastic.health.probe_interval = 0.0;
  options.elastic.health.probe_timeout = -1.0;
  options.elastic.autoscale.min_replicas = 0;
  options.elastic.autoscale.max_replicas = 9;
  options.disagg.prefill_replicas = 9;
  EXPECT_TRUE(options.Validate().ok()) << options.Validate().ToString();
}

TEST(OptionValidationTest, EachEngineRuleNamesItsField) {
  struct EngineRuleCase {
    const char* field;
    SystemKind kind;
    std::function<void(EngineOverrides*)> mutate;
  };
  const std::vector<EngineRuleCase> cases = {
      {"ssd_capacity_gb", SystemKind::kPensieve,
       [](EngineOverrides* o) { o->ssd_capacity_gb = -1.0; }},
      {"ssd_segment_blocks", SystemKind::kPensieve,
       [](EngineOverrides* o) { o->ssd_segment_blocks = 0; }},
      {"ssd_capacity_gb", SystemKind::kPensieveGpuOnly,
       [](EngineOverrides* o) { o->ssd_capacity_gb = 1.0; }},
      {"ssd_capacity_gb", SystemKind::kVllm,
       [](EngineOverrides* o) { o->ssd_capacity_gb = 1.0; }},
      {"kv_quant", SystemKind::kVllm, [](EngineOverrides* o) { o->kv_quant = true; }},
      {"kv_quant", SystemKind::kTensorRtLlm,
       [](EngineOverrides* o) { o->kv_quant = true; }},
  };
  for (const EngineRuleCase& c : cases) {
    EngineOverrides overrides;
    c.mutate(&overrides);
    const Status status = overrides.Validate(c.kind);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.field;
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << c.field << ": " << status.ToString();
  }
  EngineOverrides flash;
  flash.ssd_capacity_gb = 1.0;
  flash.kv_quant = true;
  EXPECT_TRUE(flash.Validate(SystemKind::kPensieve).ok());
  EngineOverrides gpu_only_int8;
  gpu_only_int8.kv_quant = true;
  EXPECT_TRUE(gpu_only_int8.Validate(SystemKind::kPensieveGpuOnly).ok());
}

// The run itself refuses a prefill pool that leaves no decode replica
// (it used to clamp the pool silently).
TEST(OptionValidationDeathTest, ClusterRunRejectsAPrefillPoolWithoutDecode) {
  const GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace = SmallTrace(/*conversations=*/4);
  ClusterOptions options;
  options.num_replicas = 2;
  options.disagg.enabled = true;
  options.disagg.prefill_replicas = 2;
  EXPECT_DEATH(RunClusterExperiment(PensieveFactory(model), trace, options),
               "disagg.prefill_replicas");
}

// A flash tier on an engine with no CPU tier is refused, not silently
// left out.
TEST(OptionValidationDeathTest, MakeEngineRejectsFlashWithoutACpuTier) {
  const GpuCostModel model = Opt13BModel();
  EngineOverrides overrides;
  overrides.ssd_capacity_gb = 1.0;
  EXPECT_DEATH(MakeEngine(SystemKind::kPensieveGpuOnly, model, overrides),
               "ssd_capacity_gb");
}

// --- Trace warping ----------------------------------------------------------

TEST(WarpFirstArrivalsTest, MonotoneWarpPreservesOrderAndBodies) {
  WorkloadTrace trace = SmallTrace(/*conversations=*/20);
  std::vector<int64_t> turns_before;
  for (const TraceConversation& c : trace.conversations()) {
    turns_before.push_back(static_cast<int64_t>(c.spec.turns.size()));
  }
  trace.WarpFirstArrivals([](double t) { return t < 5.0 ? t : 5.0 + (t - 5.0) / 4.0; });
  double prev = -1.0;
  for (size_t i = 0; i < trace.conversations().size(); ++i) {
    const TraceConversation& c = trace.conversations()[i];
    EXPECT_GE(c.first_arrival, prev);
    prev = c.first_arrival;
    EXPECT_EQ(static_cast<int64_t>(c.spec.turns.size()), turns_before[i]);
  }
}

}  // namespace
}  // namespace pensieve
