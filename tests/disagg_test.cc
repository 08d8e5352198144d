// Tests for prefill/decode disaggregation (DESIGN.md §13): the disagg
// router's dispatch rules, GPU-direct KV import, export/import block-ledger
// hygiene, and the cluster driver's handoff lifecycle under NIC faults and
// replica failures.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cluster/cluster_driver.h"
#include "src/cluster/router.h"
#include "src/core/experiment.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/model/model_config.h"
#include "src/serving/experiment_core.h"
#include "src/serving/pensieve_engine.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

GpuCostModel Opt13BModel() {
  return GpuCostModel(Opt13BConfig(), A100Spec(1));
}

// Long prompts so most turns clear the handoff threshold.
WorkloadTrace PrefillHeavyTrace(int64_t conversations, double rate = 0.5,
                                double think = 10.0, uint64_t seed = 1) {
  DatasetProfile profile;
  profile.name = "prefill-heavy-test";
  profile.mean_turns = 2.0;
  profile.mean_input_len = 600.0;
  profile.input_len_cv = 0.5;
  profile.mean_output_len = 24.0;
  profile.output_len_cv = 0.5;
  TraceOptions options;
  options.num_conversations = conversations;
  options.conversation_rate = rate;
  options.mean_think_time = think;
  options.seed = seed;
  return WorkloadTrace(profile, options);
}

ReplicaEngineFactory PensieveFactory(const GpuCostModel& model) {
  return [&model](int32_t) { return MakeEngine(SystemKind::kPensieve, model); };
}

ClusterOptions DisaggOptionsFor(int32_t replicas, int32_t prefill_replicas,
                                int64_t min_handoff_tokens = 64) {
  ClusterOptions options;
  options.num_replicas = replicas;
  options.disagg.enabled = true;
  options.disagg.prefill_replicas = prefill_replicas;
  options.disagg.min_handoff_tokens = min_handoff_tokens;
  options.disagg.stream_layers = 40;
  return options;
}

// --- DisaggRouter dispatch rules --------------------------------------------

Request FreshTurn(int64_t conv, int64_t prompt) {
  Request r;
  r.request_id = conv;
  r.conversation_id = conv;
  r.new_prompt_len = prompt;
  r.target_output_len = 16;
  return r;
}

// Three alive pensieve-engine views (engines owned by the fixture).
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

TEST(DisaggRouterTest, SmallTurnsSkipThePrefillPool) {
  RouterRig rig(3);
  DisaggRouterConfig config;
  config.prefill_replicas = 1;
  config.min_handoff_tokens = 100;
  auto router = MakeDisaggRouter(config);
  const RoutingDecision d = router->Route(FreshTurn(1, 50), rig.views);
  EXPECT_FALSE(d.prefill_handoff);
  EXPECT_GE(d.target, 1);  // decode pool is [1, 3)
}

TEST(DisaggRouterTest, LargeTurnsHandOffToThePrefillPool) {
  RouterRig rig(3);
  DisaggRouterConfig config;
  config.prefill_replicas = 1;
  config.min_handoff_tokens = 100;
  auto router = MakeDisaggRouter(config);
  const RoutingDecision d = router->Route(FreshTurn(1, 500), rig.views);
  EXPECT_TRUE(d.prefill_handoff);
  EXPECT_EQ(d.target, 0);
}

TEST(DisaggRouterTest, TiedPrefillPoolRotatesInsteadOfHerding) {
  RouterRig rig(4);
  DisaggRouterConfig config;
  config.prefill_replicas = 2;
  config.min_handoff_tokens = 100;
  auto router = MakeDisaggRouter(config);
  // Idle-looking pool (all loads zero, the common snapshot between replica
  // steps): consecutive dispatches must alternate, not pile onto replica 0.
  const RoutingDecision a = router->Route(FreshTurn(1, 500), rig.views);
  const RoutingDecision b = router->Route(FreshTurn(2, 500), rig.views);
  const RoutingDecision c = router->Route(FreshTurn(3, 500), rig.views);
  ASSERT_TRUE(a.prefill_handoff && b.prefill_handoff && c.prefill_handoff);
  EXPECT_NE(a.target, b.target);
  EXPECT_EQ(a.target, c.target);
}

TEST(DisaggRouterTest, WeightedLoadOverridesRotation) {
  RouterRig rig(4);
  DisaggRouterConfig config;
  config.prefill_replicas = 2;
  config.min_handoff_tokens = 100;
  auto router = MakeDisaggRouter(config);
  // Replica 0 has a heavy queued recompute backlog only the weighted term
  // sees; every dispatch must prefer replica 1 regardless of rotation.
  rig.views[0].load.queued_uncached_prefill_tokens = 10000;
  for (int i = 0; i < 3; ++i) {
    const RoutingDecision d = router->Route(FreshTurn(10 + i, 500), rig.views);
    ASSERT_TRUE(d.prefill_handoff);
    EXPECT_EQ(d.target, 1);
  }
}

TEST(DisaggRouterTest, ContinuationsStickToTheirDecodeHome) {
  RouterRig rig(3);
  DisaggRouterConfig config;
  config.prefill_replicas = 1;
  config.min_handoff_tokens = 100;
  auto router = MakeDisaggRouter(config);
  Request cont = FreshTurn(7, 1);
  cont.handoff_continuation = true;
  const RoutingDecision first = router->Route(cont, rig.views);
  EXPECT_GE(first.target, 1);
  // Later turns (and later continuations) reuse the home even when the
  // other decode replica now looks emptier.
  rig.views[static_cast<size_t>(first.target)].load.outstanding_output_tokens =
      5000;
  const RoutingDecision again = router->Route(cont, rig.views);
  EXPECT_EQ(again.target, first.target);
}

TEST(DisaggRouterTest, DeadHomeIsForgottenAndRehomed) {
  RouterRig rig(3);
  DisaggRouterConfig config;
  config.prefill_replicas = 1;
  config.min_handoff_tokens = 100;
  auto router = MakeDisaggRouter(config);
  Request cont = FreshTurn(7, 1);
  cont.handoff_continuation = true;
  const RoutingDecision first = router->Route(cont, rig.views);
  router->NotifyReplicaDown(first.target);
  rig.views[static_cast<size_t>(first.target)].alive = false;
  const RoutingDecision moved = router->Route(cont, rig.views);
  EXPECT_NE(moved.target, first.target);
  EXPECT_GE(moved.target, 1);
}

TEST(DisaggRouterTest, DeadPrefillPoolFallsThroughColocated) {
  RouterRig rig(3);
  DisaggRouterConfig config;
  config.prefill_replicas = 1;
  config.min_handoff_tokens = 100;
  auto router = MakeDisaggRouter(config);
  rig.views[0].alive = false;
  const RoutingDecision d = router->Route(FreshTurn(1, 500), rig.views);
  EXPECT_FALSE(d.prefill_handoff);
  EXPECT_GE(d.target, 1);
}

// --- Weighted least-loaded (queued-but-unadmitted prefill tokens) -----------

TEST(LeastLoadedTest, WeightedRoutingSeesQueuedRecomputeBacklog) {
  RouterRig rig(2);
  // Replica 0: short queue by outstanding tokens, huge queued recompute.
  rig.views[0].load.queued_input_tokens = 10;
  rig.views[0].load.queued_uncached_prefill_tokens = 8000;
  rig.views[1].load.queued_input_tokens = 500;
  EXPECT_EQ(LeastLoadedReplica(rig.views, /*weight_queued_prefill=*/false), 0);
  EXPECT_EQ(LeastLoadedReplica(rig.views, /*weight_queued_prefill=*/true), 1);
}

// --- GPU-direct import -------------------------------------------------------

KvCacheConfig SmallCacheConfig(int64_t gpu_blocks, int64_t cpu_blocks) {
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = gpu_blocks;
  config.num_cpu_blocks = cpu_blocks;
  return config;
}

TEST(ImportGpuResidentTest, ResidentRegionLandsOnGpu) {
  TwoTierKvCache cache(SmallCacheConfig(/*gpu_blocks=*/8, /*cpu_blocks=*/8));
  const int64_t imported = cache.ImportResident(1, /*kv_len=*/20,
                                                /*resident_tokens=*/20,
                                                /*gpu_direct=*/true);
  EXPECT_EQ(imported, 20);
  const ContextState* state = cache.Find(1);
  ASSERT_NE(state, nullptr);
  for (int64_t i = 0; i < state->num_chunks(); ++i) {
    EXPECT_TRUE(state->chunk(i).OnGpu()) << "chunk " << i;
  }
  cache.CheckInvariants();
}

TEST(ImportGpuResidentTest, FallsBackToCpuWhenGpuIsFull) {
  TwoTierKvCache cache(SmallCacheConfig(/*gpu_blocks=*/2, /*cpu_blocks=*/8));
  const int64_t imported = cache.ImportResident(1, 20, 20, /*gpu_direct=*/true);
  EXPECT_EQ(imported, 20);
  const ContextState* state = cache.Find(1);
  ASSERT_NE(state, nullptr);
  int64_t on_gpu = 0;
  int64_t on_cpu = 0;
  for (int64_t i = 0; i < state->num_chunks(); ++i) {
    if (state->chunk(i).OnGpu()) {
      on_gpu += state->chunk(i).num_tokens;
    } else {
      on_cpu += state->chunk(i).num_tokens;
    }
  }
  EXPECT_EQ(on_gpu, 8);   // both GPU blocks
  EXPECT_EQ(on_cpu, 12);  // the rest bounced through host memory
  cache.CheckInvariants();
}

TEST(ImportGpuResidentTest, ExhaustedTiersLeaveLeadingPrefixDropped) {
  TwoTierKvCache cache(SmallCacheConfig(/*gpu_blocks=*/2, /*cpu_blocks=*/1));
  const int64_t imported = cache.ImportResident(1, 20, 20, /*gpu_direct=*/true);
  EXPECT_EQ(imported, 12);  // 2 GPU blocks + 1 CPU block of 4 tokens each
  cache.CheckInvariants();
}

TEST(ImportGpuResidentTest, ReleaseLeavesNoOrphanedBlocks) {
  TwoTierKvCache cache(SmallCacheConfig(/*gpu_blocks=*/4, /*cpu_blocks=*/4));
  cache.ImportResident(1, 24, 24, /*gpu_direct=*/true);
  cache.Release(1);
  cache.gpu_allocator().CheckAllFree();
  cache.cpu_allocator().CheckAllFree();
}

// --- Export ledger hygiene ---------------------------------------------------

TEST(DisaggExportTest, ExportAfterPrefillLeavesNoOrphanedBlocks) {
  GpuCostModel model = Opt13BModel();
  PensieveEngineOptions options;
  options.block_size = 32;
  options.num_gpu_blocks = 64;
  options.num_cpu_blocks = 256;
  PensieveEngine engine(model, options);
  Request r;
  r.request_id = 0;
  r.conversation_id = 9;
  r.new_prompt_len = 100;
  r.target_output_len = 1;
  r.prefill_only = true;
  engine.Enqueue(r, 0.0);
  double now = 0.0;
  while (engine.HasWork()) {
    StepResult step = engine.Step(now);
    ASSERT_FALSE(step.idle);
    now += step.duration;
  }
  MigratedKvState state = engine.ExportConversationState(9);
  EXPECT_GT(state.resident_tokens, 0);
  EXPECT_GT(state.bytes, 0.0);
  // The exporting side must hold zero blocks afterwards — a failed stream
  // must never strand KV on the prefill replica.
  engine.cache().gpu_allocator().CheckAllFree();
  engine.cache().cpu_allocator().CheckAllFree();
}

// --- Cluster lifecycle -------------------------------------------------------

TEST(DisaggClusterTest, CompletesEverythingAndStreams) {
  GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace = PrefillHeavyTrace(12);

  ClusterOptions colocated;
  colocated.num_replicas = 3;
  const ClusterSummary base =
      RunClusterExperiment(PensieveFactory(model), trace, colocated);

  const ClusterSummary disagg = RunClusterExperiment(
      PensieveFactory(model), trace, DisaggOptionsFor(3, 1));
  EXPECT_EQ(disagg.cluster.completed_requests, base.cluster.completed_requests);
  EXPECT_EQ(disagg.prefill_replicas, 1);
  EXPECT_GT(disagg.handoff.handoff_requests, 0);
  EXPECT_GT(disagg.handoff.streams, 0);
  EXPECT_GT(disagg.handoff.streamed_tokens, 0);
  EXPECT_EQ(disagg.handoff.failed_streams, 0);
  EXPECT_GE(disagg.handoff.overlap_saved_seconds, 0.0);
  // Colocated runs report zero handoff activity (the summary stays silent).
  EXPECT_EQ(base.handoff.streams, 0);
  EXPECT_EQ(base.prefill_replicas, 0);
}

TEST(DisaggClusterTest, OutcomesCarryHandoffAttribution) {
  GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace = PrefillHeavyTrace(8);
  std::vector<RequestOutcome> outcomes;
  ClusterOptions options = DisaggOptionsFor(3, 1);
  options.outcomes = &outcomes;
  const ClusterSummary summary =
      RunClusterExperiment(PensieveFactory(model), trace, options);
  ASSERT_GT(summary.handoff.streams, 0);
  int64_t attributed = 0;
  for (const RequestOutcome& o : outcomes) {
    if (o.prefill_replica >= 0) {
      ++attributed;
      EXPECT_EQ(o.prefill_replica, 0);
      EXPECT_GT(o.handoff_stream_done, 0.0);
      // TTFT comes from the prefill side; the merged outcome must have it.
      EXPECT_GT(o.first_token_time, 0.0);
      EXPECT_GE(o.finish_time, o.first_token_time);
    }
  }
  EXPECT_GT(attributed, 0);
}

TEST(DisaggClusterTest, SurvivesNicFaultsAndMidRunReplicaFailures) {
  GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace = PrefillHeavyTrace(16, 0.5, 8.0, 3);

  ClusterOptions colocated;
  colocated.num_replicas = 3;
  const ClusterSummary base =
      RunClusterExperiment(PensieveFactory(model), trace, colocated);

  ClusterOptions options = DisaggOptionsFor(3, 1);
  options.nic_fault_profile.stall_rate = 0.1;
  options.nic_fault_profile.partial_rate = 0.1;
  options.nic_fault_profile.corruption_rate = 0.05;
  options.fault_seed = 99;
  // Kill a decode replica and the only prefill replica mid-run; both come
  // back. Streams in flight to/from the victims are voided, their requests
  // re-route, and nothing is dropped.
  options.faults.push_back({6.0, 2, false});
  options.faults.push_back({8.0, 0, false});
  options.faults.push_back({12.0, 2, true});
  options.faults.push_back({14.0, 0, true});
  const ClusterSummary summary =
      RunClusterExperiment(PensieveFactory(model), trace, options);

  EXPECT_EQ(summary.cluster.completed_requests,
            base.cluster.completed_requests);
  EXPECT_EQ(summary.faults.failures, 2);
  EXPECT_EQ(summary.faults.recoveries, 2);
  EXPECT_EQ(summary.faults.orphaned_requests, 0);
  const LinkFaultStats& nic = summary.nic_link_faults;
  EXPECT_EQ(nic.injected_timeouts + nic.injected_partials +
                nic.injected_corruptions,
            nic.recovered_faults + nic.unrecovered_faults);
}

TEST(DisaggClusterTest, SingleTokenTurnsFinishOnThePrefillSide) {
  // target_output_len == 1 means the prefill emits the whole response; the
  // stream only places KV for the next turn (state_only). The run must
  // still complete everything exactly once.
  GpuCostModel model = Opt13BModel();
  DatasetProfile profile;
  profile.name = "one-token";
  profile.mean_turns = 2.0;
  profile.mean_input_len = 400.0;
  profile.input_len_cv = 0.2;
  profile.mean_output_len = 1.0;
  profile.output_len_cv = 0.01;  // sampler needs nonzero spread; rounds to 1
  TraceOptions trace_options;
  trace_options.num_conversations = 6;
  trace_options.conversation_rate = 0.5;
  trace_options.mean_think_time = 5.0;
  trace_options.seed = 4;
  const WorkloadTrace trace(profile, trace_options);

  ClusterOptions colocated;
  colocated.num_replicas = 3;
  const ClusterSummary base =
      RunClusterExperiment(PensieveFactory(model), trace, colocated);
  const ClusterSummary disagg = RunClusterExperiment(
      PensieveFactory(model), trace, DisaggOptionsFor(3, 1));
  EXPECT_EQ(disagg.cluster.completed_requests,
            base.cluster.completed_requests);
}

TEST(DisaggClusterTest, DeterministicAcrossIdenticalRuns) {
  GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace = PrefillHeavyTrace(10);
  ClusterOptions options = DisaggOptionsFor(3, 1);
  const ClusterSummary a =
      RunClusterExperiment(PensieveFactory(model), trace, options);
  const ClusterSummary b =
      RunClusterExperiment(PensieveFactory(model), trace, options);
  EXPECT_EQ(a.cluster.completed_requests, b.cluster.completed_requests);
  EXPECT_DOUBLE_EQ(a.cluster.makespan, b.cluster.makespan);
  EXPECT_EQ(a.handoff.streams, b.handoff.streams);
  EXPECT_DOUBLE_EQ(a.handoff.overlap_saved_seconds,
                   b.handoff.overlap_saved_seconds);
}

}  // namespace
}  // namespace pensieve
