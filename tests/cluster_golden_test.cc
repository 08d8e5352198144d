// Golden regressions for the cluster driver: two feature-heavy
// ClusterSummary snapshots captured from the driver before it was split into
// the ClusterSim event handlers (the autoscale scenario was re-captured when
// ahead-of-time swap-out stopped discarding clean CPU copies to make room,
// DESIGN.md §15). Counters are pinned exactly and doubles to a 1e-9
// relative tolerance (ExpectNearRel, as in experiment_core_test). The
// high-water block fields are deliberately not pinned.

#include <gtest/gtest.h>

#include <cmath>

#include "src/cluster/cluster_driver.h"
#include "src/core/experiment.h"
#include "src/model/model_config.h"
#include "src/sim/hardware.h"
#include "src/workload/trace.h"

namespace pensieve {
namespace {

void ExpectNearRel(double expected, double actual) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-9 + 1e-12);
}

GpuCostModel Opt13BModel() { return GpuCostModel(Opt13BConfig(), A100Spec(1)); }

// Scenario (i): 1 prefill + 3 decode replicas over ShareGPT chats with shared
// templates, every replica with int8 KV and a small flash tier behind a
// starved CPU tier, probes with one sick window, one crash + recovery of a
// decode replica, and NIC faults on every stream and migration.
ClusterSummary RunDisaggFlashScenario() {
  const GpuCostModel model = Opt13BModel();
  TraceOptions t;
  t.num_conversations = 40;
  t.conversation_rate = 2.0;
  t.mean_think_time = 4.0;
  t.seed = 11;
  t.num_prefix_templates = 4;
  t.prefix_len = 256;
  const WorkloadTrace trace(ShareGptProfile(), t);

  ClusterOptions options;
  options.num_replicas = 4;
  options.disagg.enabled = true;
  options.disagg.prefill_replicas = 1;
  options.disagg.min_handoff_tokens = 64;
  options.disagg.stream_layers = Opt13BConfig().num_layers;
  options.elastic.health.enabled = true;
  options.elastic.health.probe_interval = 0.5;
  options.elastic.health.sick.push_back({3, 4.0, 9.0});
  options.faults = {{12.0, 2, false}, {18.0, 2, true}};
  options.nic_fault_profile.timeout_rate = 0.05;
  options.nic_fault_profile.partial_rate = 0.1;
  options.nic_fault_profile.corruption_rate = 0.05;
  options.fault_seed = 7;
  return RunClusterExperiment(
      [&model](int32_t) {
        EngineOverrides o;
        o.cache_scale = 0.2;
        o.cpu_cache_scale = 0.1;
        o.ssd_capacity_gb = 2.0;
        o.kv_quant = true;
        return MakeEngine(SystemKind::kPensieve, model, o);
      },
      trace, options);
}

// Scenario (ii): an autoscaled 1..3 replica set whose replica 0 has a starved
// CPU tier, with probes (one sick window), one crash + recovery and NIC
// faults.
ClusterSummary RunElasticScenario() {
  const GpuCostModel model = Opt13BModel();
  TraceOptions t;
  t.num_conversations = 60;
  t.conversation_rate = 5.0;
  t.mean_think_time = 2.0;
  t.seed = 21;
  const WorkloadTrace trace(ShareGptProfile(), t);

  ClusterOptions options;
  options.num_replicas = 3;
  options.router.policy = RouterPolicy::kSessionAffinity;
  options.elastic.autoscale.enabled = true;
  options.elastic.autoscale.min_replicas = 2;
  options.elastic.autoscale.max_replicas = 3;
  options.elastic.autoscale.check_interval = 1.0;
  options.elastic.autoscale.cooldown = 4.0;
  options.elastic.autoscale.down_queue_tokens = 1024;
  options.elastic.autoscale.up_queue_tokens = 2048;
  options.elastic.health.enabled = true;
  options.elastic.health.probe_interval = 0.5;
  options.elastic.health.sick.push_back({1, 3.0, 8.0});
  options.faults = {{10.0, 1, false}, {14.0, 1, true}};
  options.nic_fault_profile.timeout_rate = 0.1;
  options.nic_fault_profile.partial_rate = 0.2;
  options.fault_seed = 3;
  return RunClusterExperiment(
      [&model](int32_t replica_id) {
        EngineOverrides o;
        o.cache_scale = 0.15;
        o.cpu_cache_scale = replica_id == 0 ? 0.15 : 2.0;
        return MakeEngine(SystemKind::kPensieve, model, o);
      },
      trace, options);
}

TEST(ClusterGoldenTest, DisaggFlashQuantTemplatesProbesCrashNicFaults) {
  const ClusterSummary s = RunDisaggFlashScenario();
  ASSERT_EQ(s.replicas.size(), 4u);
  EXPECT_EQ(s.cluster.completed_requests, 243);
  ExpectNearRel(183.14472942866314, s.cluster.makespan);
  ExpectNearRel(1.903712639554626, s.cluster.window_begin);
  ExpectNearRel(19.03712639554626, s.cluster.window_end);
  EXPECT_EQ(s.cluster.window_completions, 30);
  ExpectNearRel(1.7509645437418369, s.cluster.throughput_rps);
  ExpectNearRel(302.21648024984103, s.cluster.token_throughput);
  ExpectNearRel(0.046136910558275929, s.cluster.mean_normalized_latency);
  ExpectNearRel(0.039355201072948098, s.cluster.p50_normalized_latency);
  ExpectNearRel(0.077113020777692803, s.cluster.p90_normalized_latency);
  ExpectNearRel(0.11054129893347048, s.cluster.p99_normalized_latency);
  ExpectNearRel(0.070254328693425933, s.cluster.mean_ttft);
  ExpectNearRel(0.16117626899640711, s.cluster.p99_ttft);
  ExpectNearRel(0.1098991385720465, s.cluster.p99_itl);
  EXPECT_EQ(s.cluster.engine_stats.steps, 17648);
  EXPECT_EQ(s.cluster.engine_stats.generated_tokens, 51486);
  EXPECT_EQ(s.cluster.engine_stats.prefill_tokens, 99529);
  EXPECT_EQ(s.cluster.engine_stats.reused_gpu_tokens, 229634);
  EXPECT_EQ(s.cluster.engine_stats.reused_cpu_tokens, 63677);
  EXPECT_EQ(s.cluster.engine_stats.reused_ssd_tokens, 12941);
  EXPECT_EQ(s.cluster.engine_stats.recomputed_history_tokens, 79305);
  EXPECT_EQ(s.cluster.engine_stats.dropped_tokens, 0);
  EXPECT_EQ(s.cluster.engine_stats.migrated_in_tokens, 63324);
  EXPECT_EQ(s.cluster.engine_stats.ssd_demoted_tokens, 53102);
  EXPECT_EQ(s.cluster.engine_stats.ssd_promoted_chunks, 408);
  EXPECT_EQ(s.cluster.engine_stats.ssd_evicted_tokens, 24697);
  EXPECT_EQ(s.cluster.engine_stats.kv_quant_blocks, 2099);
  EXPECT_EQ(s.cluster.engine_stats.dedup_hit_requests, 16);
  EXPECT_EQ(s.cluster.engine_stats.reused_shared_tokens, 3360);
  ExpectNearRel(349.60768962327529, s.cluster.engine_stats.busy_seconds);
  ExpectNearRel(14.640717818165243, s.cluster.engine_stats.recompute_seconds);
  ExpectNearRel(1.8371414052594344, s.load_imbalance);
  EXPECT_EQ(s.migration.migrations, 0);
  EXPECT_EQ(s.migration.rehomes, 0);
  EXPECT_EQ(s.migration.migrated_tokens, 63324);
  ExpectNearRel(0, s.migration.migrated_bytes);
  ExpectNearRel(0, s.migration.migration_stall_seconds);
  EXPECT_EQ(s.migration.failed_migrations, 0);
  EXPECT_EQ(s.migration.kv_tokens_lost_in_transit, 0);
  EXPECT_EQ(s.faults.failures, 1);
  EXPECT_EQ(s.faults.recoveries, 1);
  EXPECT_EQ(s.faults.rerouted_requests, 5);
  EXPECT_EQ(s.faults.orphaned_requests, 0);
  EXPECT_EQ(s.faults.lost_kv_tokens, 11635);
  EXPECT_EQ(s.faults.lost_generated_tokens, 349);
  EXPECT_EQ(s.nic_link_faults.transfers, 3186);
  EXPECT_EQ(s.nic_link_faults.faulted_transfers, 638);
  EXPECT_EQ(s.nic_link_faults.retries, 786);
  EXPECT_EQ(s.nic_link_faults.exhausted_transfers, 6);
  EXPECT_EQ(s.handoff.handoff_requests, 83);
  EXPECT_EQ(s.handoff.colocated_requests, 160);
  EXPECT_EQ(s.handoff.streams, 83);
  EXPECT_EQ(s.handoff.stream_chunks, 3180);
  ExpectNearRel(31202877440, s.handoff.stream_bytes);
  EXPECT_EQ(s.handoff.streamed_tokens, 72731);
  EXPECT_EQ(s.handoff.failed_streams, 14);
  EXPECT_EQ(s.handoff.kv_tokens_lost, 6417);
  EXPECT_EQ(s.handoff.local_handoffs, 0);
  ExpectNearRel(-38.486738533751023, s.handoff.overlap_saved_seconds);
  ExpectNearRel(345.80647991026422, s.handoff.stream_wait_seconds);
  EXPECT_EQ(s.elastic.health.probes_sent, 1456);
  EXPECT_EQ(s.elastic.health.probes_failed, 10);
  EXPECT_EQ(s.elastic.health.quarantines, 1);
  EXPECT_EQ(s.elastic.health.reinstatements, 1);
  EXPECT_EQ(s.elastic.health.drained_requests, 2);
  EXPECT_EQ(s.elastic.health.drained_kv_tokens, 0);
  EXPECT_EQ(s.elastic.health.voided_streams, 1);
  EXPECT_EQ(s.elastic.autoscale.scale_ups, 0);
  EXPECT_EQ(s.elastic.autoscale.scale_downs, 0);
  EXPECT_EQ(s.elastic.autoscale.drained_requests, 0);
  EXPECT_EQ(s.elastic.autoscale.drained_kv_tokens, 0);
  EXPECT_EQ(s.elastic.autoscale.released_kv_tokens, 0);
  EXPECT_EQ(s.elastic.autoscale.peak_active_replicas, 4);
  EXPECT_EQ(s.elastic.autoscale.min_active_replicas, 4);
  EXPECT_EQ(s.replicas[0].completed_requests, 0);
  ExpectNearRel(15.572643183498577, s.replicas[0].engine_stats.busy_seconds);
  EXPECT_EQ(s.replicas[1].completed_requests, 101);
  ExpectNearRel(160.56969055100203, s.replicas[1].engine_stats.busy_seconds);
  EXPECT_EQ(s.replicas[2].completed_requests, 27);
  ExpectNearRel(48.998988028617667, s.replicas[2].engine_stats.busy_seconds);
  EXPECT_EQ(s.replicas[3].completed_requests, 115);
  ExpectNearRel(124.46636786015702, s.replicas[3].engine_stats.busy_seconds);
}

TEST(ClusterGoldenTest, AutoscaleStarvedCpuProbesCrashNicFaults) {
  const ClusterSummary s = RunElasticScenario();
  ASSERT_EQ(s.replicas.size(), 3u);
  EXPECT_EQ(s.cluster.completed_requests, 329);
  ExpectNearRel(498.99964003648256, s.cluster.makespan);
  ExpectNearRel(1.1430196885061252, s.cluster.window_begin);
  ExpectNearRel(11.430196885061251, s.cluster.window_end);
  EXPECT_EQ(s.cluster.window_completions, 57);
  ExpectNearRel(5.540878601671956, s.cluster.throughput_rps);
  ExpectNearRel(702.33066486105054, s.cluster.token_throughput);
  ExpectNearRel(0.020029171111825294, s.cluster.mean_normalized_latency);
  ExpectNearRel(0.020344084970187633, s.cluster.p50_normalized_latency);
  ExpectNearRel(0.023562973418416299, s.cluster.p90_normalized_latency);
  ExpectNearRel(0.028889300002214763, s.cluster.p99_normalized_latency);
  ExpectNearRel(0.19152742037791631, s.cluster.mean_ttft);
  ExpectNearRel(2.3258960614162305, s.cluster.p99_ttft);
  ExpectNearRel(0.022193754277381576, s.cluster.p99_itl);
  EXPECT_EQ(s.cluster.engine_stats.steps, 28743);
  EXPECT_EQ(s.cluster.engine_stats.generated_tokens, 66686);
  EXPECT_EQ(s.cluster.engine_stats.prefill_tokens, 268100);
  EXPECT_EQ(s.cluster.engine_stats.reused_gpu_tokens, 60688);
  EXPECT_EQ(s.cluster.engine_stats.reused_cpu_tokens, 32380);
  EXPECT_EQ(s.cluster.engine_stats.reused_ssd_tokens, 0);
  EXPECT_EQ(s.cluster.engine_stats.recomputed_history_tokens, 253331);
  EXPECT_EQ(s.cluster.engine_stats.dropped_tokens, 0);
  EXPECT_EQ(s.cluster.engine_stats.migrated_in_tokens, 870);
  EXPECT_EQ(s.cluster.engine_stats.ssd_demoted_tokens, 0);
  EXPECT_EQ(s.cluster.engine_stats.ssd_promoted_chunks, 0);
  EXPECT_EQ(s.cluster.engine_stats.ssd_evicted_tokens, 0);
  EXPECT_EQ(s.cluster.engine_stats.kv_quant_blocks, 0);
  EXPECT_EQ(s.cluster.engine_stats.dedup_hit_requests, 0);
  EXPECT_EQ(s.cluster.engine_stats.reused_shared_tokens, 0);
  ExpectNearRel(566.8838261691227, s.cluster.engine_stats.busy_seconds);
  ExpectNearRel(48.254858559452984, s.cluster.engine_stats.recompute_seconds);
  ExpectNearRel(2.6265970814814175, s.load_imbalance);
  EXPECT_EQ(s.migration.migrations, 3);
  EXPECT_EQ(s.migration.rehomes, 0);
  EXPECT_EQ(s.migration.migrated_tokens, 870);
  ExpectNearRel(712704000, s.migration.migrated_bytes);
  ExpectNearRel(0.10544359997112096, s.migration.migration_stall_seconds);
  EXPECT_EQ(s.migration.failed_migrations, 0);
  EXPECT_EQ(s.migration.kv_tokens_lost_in_transit, 0);
  EXPECT_EQ(s.faults.failures, 1);
  EXPECT_EQ(s.faults.recoveries, 1);
  EXPECT_EQ(s.faults.rerouted_requests, 4);
  EXPECT_EQ(s.faults.orphaned_requests, 0);
  EXPECT_EQ(s.faults.lost_kv_tokens, 316);
  EXPECT_EQ(s.faults.lost_generated_tokens, 116);
  EXPECT_EQ(s.nic_link_faults.transfers, 3);
  EXPECT_EQ(s.nic_link_faults.faulted_transfers, 1);
  EXPECT_EQ(s.nic_link_faults.retries, 1);
  EXPECT_EQ(s.nic_link_faults.exhausted_transfers, 0);
  EXPECT_EQ(s.handoff.handoff_requests, 0);
  EXPECT_EQ(s.handoff.colocated_requests, 0);
  EXPECT_EQ(s.handoff.streams, 0);
  EXPECT_EQ(s.handoff.stream_chunks, 0);
  ExpectNearRel(0, s.handoff.stream_bytes);
  EXPECT_EQ(s.handoff.streamed_tokens, 0);
  EXPECT_EQ(s.handoff.failed_streams, 0);
  EXPECT_EQ(s.handoff.kv_tokens_lost, 0);
  EXPECT_EQ(s.handoff.local_handoffs, 0);
  ExpectNearRel(0, s.handoff.overlap_saved_seconds);
  ExpectNearRel(0, s.handoff.stream_wait_seconds);
  EXPECT_EQ(s.elastic.health.probes_sent, 2872);
  EXPECT_EQ(s.elastic.health.probes_failed, 10);
  EXPECT_EQ(s.elastic.health.quarantines, 1);
  EXPECT_EQ(s.elastic.health.reinstatements, 1);
  EXPECT_EQ(s.elastic.health.drained_requests, 8);
  EXPECT_EQ(s.elastic.health.drained_kv_tokens, 870);
  EXPECT_EQ(s.elastic.health.voided_streams, 0);
  EXPECT_EQ(s.elastic.autoscale.scale_ups, 2);
  EXPECT_EQ(s.elastic.autoscale.scale_downs, 2);
  EXPECT_EQ(s.elastic.autoscale.drained_requests, 0);
  EXPECT_EQ(s.elastic.autoscale.drained_kv_tokens, 0);
  EXPECT_EQ(s.elastic.autoscale.released_kv_tokens, 17310);
  EXPECT_EQ(s.elastic.autoscale.peak_active_replicas, 3);
  EXPECT_EQ(s.elastic.autoscale.min_active_replicas, 2);
  EXPECT_EQ(s.replicas[0].completed_requests, 250);
  ExpectNearRel(496.32513445161226, s.replicas[0].engine_stats.busy_seconds);
  EXPECT_EQ(s.replicas[1].completed_requests, 5);
  ExpectNearRel(5.1232901491145304, s.replicas[1].engine_stats.busy_seconds);
  EXPECT_EQ(s.replicas[2].completed_requests, 74);
  ExpectNearRel(65.435401568395932, s.replicas[2].engine_stats.busy_seconds);
}

}  // namespace
}  // namespace pensieve
