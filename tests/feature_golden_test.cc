// Golden regressions for the cache features one engine can switch on: the
// flash tier, int8 KV, shared templates with prefix sharing on and off, and
// everything off under cache pressure. Each summary was captured before the
// features' per-call gates were folded into construction-time choices; the
// engine must reproduce it (FlashTierOnly was re-captured when ahead-of-time
// swap-out stopped discarding clean CPU copies to make room, DESIGN.md §15).
// Counters are pinned exactly and doubles to a 1e-9 relative tolerance
// (ExpectNearRel, as in cluster_golden_test). Every case first asserts that
// its feature's path ran, so no pin is vacuous.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/core/experiment.h"
#include "src/model/model_config.h"
#include "src/serving/driver.h"
#include "src/sim/hardware.h"
#include "src/workload/trace.h"

namespace pensieve {
namespace {

void ExpectNearRel(double expected, double actual) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-9 + 1e-12);
}

GpuCostModel Opt13BModel() { return GpuCostModel(Opt13BConfig(), A100Spec(1)); }

TraceOptions ChatTrace(int64_t templates) {
  TraceOptions t;
  t.num_conversations = 48;
  t.conversation_rate = 1.5;
  t.mean_think_time = 4.0;
  t.seed = 17;
  t.num_prefix_templates = templates;
  t.prefix_len = templates > 0 ? 256 : 0;
  return t;
}

ServingSummary Run(const EngineOverrides& overrides, int64_t templates) {
  const GpuCostModel model = Opt13BModel();
  const WorkloadTrace trace(ShareGptProfile(), ChatTrace(templates));
  std::unique_ptr<Engine> engine = MakeEngine(SystemKind::kPensieve, model, overrides);
  return RunServingExperiment(engine.get(), trace);
}

// Flash tier only: a starved CPU tier spills into a small flash tier whose
// link drops and corrupts some demotions.
ServingSummary RunFlashOnly() {
  EngineOverrides o;
  o.cache_scale = 0.15;
  o.cpu_cache_scale = 0.1;
  o.ssd_capacity_gb = 2.0;
  o.ssd_segment_blocks = 16;
  o.ssd_fault_profile.timeout_rate = 0.05;
  o.ssd_fault_profile.corruption_rate = 0.05;
  o.fault_seed = 5;
  return Run(o, 0);
}

// Int8 KV only: shrunken tiers force swap traffic through the quantizer.
ServingSummary RunKvQuantOnly() {
  EngineOverrides o;
  o.cache_scale = 0.15;
  o.cpu_cache_scale = 0.3;
  o.kv_quant = true;
  return Run(o, 0);
}

// Shared templates with prefix sharing on or off.
ServingSummary RunTemplates(bool share) {
  EngineOverrides o;
  o.cache_scale = 0.15;
  o.cpu_cache_scale = 0.2;
  o.enable_prefix_sharing = share;
  return Run(o, 4);
}

// Every feature off, under GPU and CPU pressure.
ServingSummary RunAllOffUnderPressure() {
  EngineOverrides o;
  o.cache_scale = 0.15;
  o.cpu_cache_scale = 0.2;
  return Run(o, 0);
}

TEST(FeatureGoldenTest, FlashTierOnly) {
  const ServingSummary s = RunFlashOnly();
  ASSERT_GT(s.engine_stats.ssd_demoted_chunks, 0);
  ASSERT_GT(s.engine_stats.ssd_promoted_chunks, 0);
  EXPECT_EQ(s.completed_requests, 293);
  ExpectNearRel(633.65330047228906, s.makespan);
  EXPECT_EQ(s.window_completions, 68);
  ExpectNearRel(2.5056340765217451, s.throughput_rps);
  ExpectNearRel(483.5873767686968, s.token_throughput);
  ExpectNearRel(0.021122786384802732, s.mean_normalized_latency);
  ExpectNearRel(0.019695453924155976, s.p50_normalized_latency);
  ExpectNearRel(0.024263734440589026, s.p90_normalized_latency);
  ExpectNearRel(0.046392696694460757, s.p99_normalized_latency);
  ExpectNearRel(0.12023457476602965, s.mean_ttft);
  ExpectNearRel(1.9231398127651627, s.p99_ttft);
  ExpectNearRel(0.030406277832292758, s.p99_itl);
  EXPECT_EQ(s.engine_stats.steps, 29258);
  EXPECT_EQ(s.engine_stats.generated_tokens, 61767);
  EXPECT_EQ(s.engine_stats.prefill_tokens, 271762);
  EXPECT_EQ(s.engine_stats.reused_gpu_tokens, 57568);
  EXPECT_EQ(s.engine_stats.reused_cpu_tokens, 7227);
  EXPECT_EQ(s.engine_stats.reused_ssd_tokens, 11855);
  EXPECT_EQ(s.engine_stats.recomputed_history_tokens, 260826);
  EXPECT_EQ(s.engine_stats.suspensions, 30);
  EXPECT_EQ(s.engine_stats.context_capped_requests, 0);
  EXPECT_EQ(s.engine_stats.forced_swap_out_tokens, 62282);
  EXPECT_EQ(s.engine_stats.aot_swap_out_tokens, 252318);
  EXPECT_EQ(s.engine_stats.dropped_tokens, 0);
  ExpectNearRel(577.47857852784068, s.engine_stats.busy_seconds);
  ExpectNearRel(48.583254552797726, s.engine_stats.recompute_seconds);
  ExpectNearRel(1.2908572119379969, s.engine_stats.restore_stall_seconds);
  EXPECT_EQ(s.engine_stats.fault_degraded_admissions, 1);
  EXPECT_EQ(s.engine_stats.fault_recompute_tokens, 576);
  EXPECT_EQ(s.engine_stats.fault_failed_swap_outs, 0);
  EXPECT_EQ(s.engine_stats.checksum_detected_corruptions, 0);
  EXPECT_EQ(s.engine_stats.ssd_link_faults.transfers, 1712);
  EXPECT_EQ(s.engine_stats.ssd_link_faults.faulted_transfers, 168);
  EXPECT_EQ(s.engine_stats.ssd_demoted_chunks, 10560);
  EXPECT_EQ(s.engine_stats.ssd_demoted_tokens, 334233);
  EXPECT_EQ(s.engine_stats.ssd_promoted_chunks, 406);
  EXPECT_EQ(s.engine_stats.ssd_evicted_chunks, 10055);
  EXPECT_EQ(s.engine_stats.ssd_evicted_tokens, 318316);
  EXPECT_EQ(s.engine_stats.ssd_user_blocks_written, 10560);
  EXPECT_EQ(s.engine_stats.ssd_gc_moves, 4);
  EXPECT_EQ(s.engine_stats.ssd_gc_runs, 653);
  EXPECT_EQ(s.engine_stats.ssd_failed_demotes, 0);
  EXPECT_EQ(s.engine_stats.ssd_planned_recompute_tokens, 0);
  EXPECT_EQ(s.engine_stats.dedup_hit_requests, 0);
  EXPECT_EQ(s.engine_stats.reused_shared_tokens, 0);
  EXPECT_EQ(s.engine_stats.shared_attached_chunks, 0);
  EXPECT_EQ(s.engine_stats.cow_copies, 0);
  EXPECT_EQ(s.engine_stats.peak_shared_blocks, 0);
  EXPECT_EQ(s.engine_stats.kv_quant_blocks, 0);
  EXPECT_EQ(s.engine_stats.kv_quant_bytes_saved, 0);
  EXPECT_EQ(s.engine_stats.kv_block_acquires, 11544);
  EXPECT_EQ(s.engine_stats.kv_block_releases, 11299);
  EXPECT_EQ(s.engine_stats.kv_blocks_live, 245);
  EXPECT_EQ(s.engine_stats.gpu_peak_allocated_blocks, 245);
}

TEST(FeatureGoldenTest, KvQuantOnly) {
  const ServingSummary s = RunKvQuantOnly();
  ASSERT_GT(s.engine_stats.kv_quant_blocks, 0);
  EXPECT_EQ(s.completed_requests, 293);
  ExpectNearRel(530.14187938163866, s.makespan);
  EXPECT_EQ(s.window_completions, 71);
  ExpectNearRel(2.6161767563682927, s.throughput_rps);
  ExpectNearRel(506.83818709642065, s.token_throughput);
  ExpectNearRel(0.02073232475130974, s.mean_normalized_latency);
  ExpectNearRel(0.019528826235813996, s.p50_normalized_latency);
  ExpectNearRel(0.025552015218123694, s.p90_normalized_latency);
  ExpectNearRel(0.039171757913087198, s.p99_normalized_latency);
  ExpectNearRel(0.14678471993496894, s.mean_ttft);
  ExpectNearRel(1.7726825687749348, s.p99_ttft);
  ExpectNearRel(0.027611948533041639, s.p99_itl);
  EXPECT_EQ(s.engine_stats.steps, 24357);
  EXPECT_EQ(s.engine_stats.generated_tokens, 61767);
  EXPECT_EQ(s.engine_stats.prefill_tokens, 129052);
  EXPECT_EQ(s.engine_stats.reused_gpu_tokens, 66395);
  EXPECT_EQ(s.engine_stats.reused_cpu_tokens, 152389);
  EXPECT_EQ(s.engine_stats.reused_ssd_tokens, 0);
  EXPECT_EQ(s.engine_stats.recomputed_history_tokens, 118692);
  EXPECT_EQ(s.engine_stats.suspensions, 46);
  EXPECT_EQ(s.engine_stats.context_capped_requests, 0);
  EXPECT_EQ(s.engine_stats.forced_swap_out_tokens, 80874);
  EXPECT_EQ(s.engine_stats.aot_swap_out_tokens, 99551);
  EXPECT_EQ(s.engine_stats.dropped_tokens, 0);
  ExpectNearRel(471.09413406635895, s.engine_stats.busy_seconds);
  ExpectNearRel(22.316508406518516, s.engine_stats.recompute_seconds);
  ExpectNearRel(1.13267891641769, s.engine_stats.restore_stall_seconds);
  EXPECT_EQ(s.engine_stats.fault_degraded_admissions, 0);
  EXPECT_EQ(s.engine_stats.fault_recompute_tokens, 0);
  EXPECT_EQ(s.engine_stats.fault_failed_swap_outs, 0);
  EXPECT_EQ(s.engine_stats.checksum_detected_corruptions, 0);
  EXPECT_EQ(s.engine_stats.ssd_link_faults.transfers, 0);
  EXPECT_EQ(s.engine_stats.ssd_link_faults.faulted_transfers, 0);
  EXPECT_EQ(s.engine_stats.ssd_demoted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_demoted_tokens, 0);
  EXPECT_EQ(s.engine_stats.ssd_promoted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_evicted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_evicted_tokens, 0);
  EXPECT_EQ(s.engine_stats.ssd_user_blocks_written, 0);
  EXPECT_EQ(s.engine_stats.ssd_gc_moves, 0);
  EXPECT_EQ(s.engine_stats.ssd_gc_runs, 0);
  EXPECT_EQ(s.engine_stats.ssd_failed_demotes, 0);
  EXPECT_EQ(s.engine_stats.ssd_planned_recompute_tokens, 0);
  EXPECT_EQ(s.engine_stats.dedup_hit_requests, 0);
  EXPECT_EQ(s.engine_stats.reused_shared_tokens, 0);
  EXPECT_EQ(s.engine_stats.shared_attached_chunks, 0);
  EXPECT_EQ(s.engine_stats.cow_copies, 0);
  EXPECT_EQ(s.engine_stats.peak_shared_blocks, 0);
  EXPECT_EQ(s.engine_stats.kv_quant_blocks, 6013);
  EXPECT_EQ(s.engine_stats.kv_quant_bytes_saved, 78813569548);
  EXPECT_EQ(s.engine_stats.kv_block_acquires, 12045);
  EXPECT_EQ(s.engine_stats.kv_block_releases, 11800);
  EXPECT_EQ(s.engine_stats.kv_blocks_live, 245);
  EXPECT_EQ(s.engine_stats.gpu_peak_allocated_blocks, 245);
}

TEST(FeatureGoldenTest, TemplatesWithSharingOn) {
  const ServingSummary s = RunTemplates(/*share=*/true);
  ASSERT_GT(s.engine_stats.dedup_hit_requests, 0);
  EXPECT_EQ(s.completed_requests, 293);
  ExpectNearRel(731.56488649447022, s.makespan);
  EXPECT_EQ(s.window_completions, 52);
  ExpectNearRel(1.9160731173401582, s.throughput_rps);
  ExpectNearRel(370.83384332521831, s.token_throughput);
  ExpectNearRel(0.024289556581199072, s.mean_normalized_latency);
  ExpectNearRel(0.02109399021632332, s.p50_normalized_latency);
  ExpectNearRel(0.036882390336815306, s.p90_normalized_latency);
  ExpectNearRel(0.059655942539845727, s.p99_normalized_latency);
  ExpectNearRel(0.45228703837868978, s.mean_ttft);
  ExpectNearRel(3.1637976532374434, s.p99_ttft);
  ExpectNearRel(0.030705920006644322, s.p99_itl);
  EXPECT_EQ(s.engine_stats.steps, 34111);
  EXPECT_EQ(s.engine_stats.generated_tokens, 61767);
  EXPECT_EQ(s.engine_stats.prefill_tokens, 335219);
  EXPECT_EQ(s.engine_stats.reused_gpu_tokens, 71656);
  EXPECT_EQ(s.engine_stats.reused_cpu_tokens, 15969);
  EXPECT_EQ(s.engine_stats.reused_ssd_tokens, 0);
  EXPECT_EQ(s.engine_stats.recomputed_history_tokens, 321275);
  EXPECT_EQ(s.engine_stats.suspensions, 45);
  EXPECT_EQ(s.engine_stats.context_capped_requests, 0);
  EXPECT_EQ(s.engine_stats.forced_swap_out_tokens, 74846);
  EXPECT_EQ(s.engine_stats.aot_swap_out_tokens, 325184);
  EXPECT_EQ(s.engine_stats.dropped_tokens, 0);
  ExpectNearRel(675.4647018364218, s.engine_stats.busy_seconds);
  ExpectNearRel(60.442156058256401, s.engine_stats.recompute_seconds);
  ExpectNearRel(0.31539763255992442, s.engine_stats.restore_stall_seconds);
  EXPECT_EQ(s.engine_stats.fault_degraded_admissions, 0);
  EXPECT_EQ(s.engine_stats.fault_recompute_tokens, 0);
  EXPECT_EQ(s.engine_stats.fault_failed_swap_outs, 0);
  EXPECT_EQ(s.engine_stats.checksum_detected_corruptions, 0);
  EXPECT_EQ(s.engine_stats.ssd_link_faults.transfers, 0);
  EXPECT_EQ(s.engine_stats.ssd_link_faults.faulted_transfers, 0);
  EXPECT_EQ(s.engine_stats.ssd_demoted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_demoted_tokens, 0);
  EXPECT_EQ(s.engine_stats.ssd_promoted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_evicted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_evicted_tokens, 0);
  EXPECT_EQ(s.engine_stats.ssd_user_blocks_written, 0);
  EXPECT_EQ(s.engine_stats.ssd_gc_moves, 0);
  EXPECT_EQ(s.engine_stats.ssd_gc_runs, 0);
  EXPECT_EQ(s.engine_stats.ssd_failed_demotes, 0);
  EXPECT_EQ(s.engine_stats.ssd_planned_recompute_tokens, 0);
  EXPECT_EQ(s.engine_stats.dedup_hit_requests, 52);
  EXPECT_EQ(s.engine_stats.reused_shared_tokens, 13152);
  EXPECT_EQ(s.engine_stats.shared_attached_chunks, 17011);
  EXPECT_EQ(s.engine_stats.cow_copies, 0);
  EXPECT_EQ(s.engine_stats.peak_shared_blocks, 32);
  EXPECT_EQ(s.engine_stats.kv_quant_blocks, 0);
  EXPECT_EQ(s.engine_stats.kv_quant_bytes_saved, 0);
  EXPECT_EQ(s.engine_stats.kv_block_acquires, 30569);
  EXPECT_EQ(s.engine_stats.kv_block_releases, 30324);
  EXPECT_EQ(s.engine_stats.kv_blocks_live, 245);
  EXPECT_EQ(s.engine_stats.gpu_peak_allocated_blocks, 245);
}

TEST(FeatureGoldenTest, TemplatesWithSharingOff) {
  const ServingSummary s = RunTemplates(/*share=*/false);
  // The same trace attaches shared views when sharing is on (the case
    // above); off, the engine never reaches the trie.
  ASSERT_EQ(s.engine_stats.shared_attached_chunks, 0);
  EXPECT_EQ(s.completed_requests, 293);
  ExpectNearRel(737.81253272144363, s.makespan);
  EXPECT_EQ(s.window_completions, 49);
  ExpectNearRel(1.8055304374936105, s.throughput_rps);
  ExpectNearRel(311.84089984711073, s.token_throughput);
  ExpectNearRel(0.028461351141121673, s.mean_normalized_latency);
  ExpectNearRel(0.022078693440316779, s.p50_normalized_latency);
  ExpectNearRel(0.050449841010518172, s.p90_normalized_latency);
  ExpectNearRel(0.087847532171509118, s.p99_normalized_latency);
  ExpectNearRel(0.79806363739975972, s.mean_ttft);
  ExpectNearRel(5.7434888256590462, s.p99_ttft);
  ExpectNearRel(0.029513210066896941, s.p99_itl);
  EXPECT_EQ(s.engine_stats.steps, 34011);
  EXPECT_EQ(s.engine_stats.generated_tokens, 61767);
  EXPECT_EQ(s.engine_stats.prefill_tokens, 350626);
  EXPECT_EQ(s.engine_stats.reused_gpu_tokens, 51186);
  EXPECT_EQ(s.engine_stats.reused_cpu_tokens, 21032);
  EXPECT_EQ(s.engine_stats.reused_ssd_tokens, 0);
  EXPECT_EQ(s.engine_stats.recomputed_history_tokens, 327978);
  EXPECT_EQ(s.engine_stats.suspensions, 67);
  EXPECT_EQ(s.engine_stats.context_capped_requests, 0);
  EXPECT_EQ(s.engine_stats.forced_swap_out_tokens, 78769);
  EXPECT_EQ(s.engine_stats.aot_swap_out_tokens, 321256);
  EXPECT_EQ(s.engine_stats.dropped_tokens, 0);
  ExpectNearRel(676.75898749668045, s.engine_stats.busy_seconds);
  ExpectNearRel(62.455788010119647, s.engine_stats.recompute_seconds);
  ExpectNearRel(0.16287309719998308, s.engine_stats.restore_stall_seconds);
  EXPECT_EQ(s.engine_stats.fault_degraded_admissions, 0);
  EXPECT_EQ(s.engine_stats.fault_recompute_tokens, 0);
  EXPECT_EQ(s.engine_stats.fault_failed_swap_outs, 0);
  EXPECT_EQ(s.engine_stats.checksum_detected_corruptions, 0);
  EXPECT_EQ(s.engine_stats.ssd_link_faults.transfers, 0);
  EXPECT_EQ(s.engine_stats.ssd_link_faults.faulted_transfers, 0);
  EXPECT_EQ(s.engine_stats.ssd_demoted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_demoted_tokens, 0);
  EXPECT_EQ(s.engine_stats.ssd_promoted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_evicted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_evicted_tokens, 0);
  EXPECT_EQ(s.engine_stats.ssd_user_blocks_written, 0);
  EXPECT_EQ(s.engine_stats.ssd_gc_moves, 0);
  EXPECT_EQ(s.engine_stats.ssd_gc_runs, 0);
  EXPECT_EQ(s.engine_stats.ssd_failed_demotes, 0);
  EXPECT_EQ(s.engine_stats.ssd_planned_recompute_tokens, 0);
  EXPECT_EQ(s.engine_stats.dedup_hit_requests, 0);
  EXPECT_EQ(s.engine_stats.reused_shared_tokens, 0);
  EXPECT_EQ(s.engine_stats.shared_attached_chunks, 0);
  EXPECT_EQ(s.engine_stats.cow_copies, 0);
  EXPECT_EQ(s.engine_stats.peak_shared_blocks, 0);
  EXPECT_EQ(s.engine_stats.kv_quant_blocks, 0);
  EXPECT_EQ(s.engine_stats.kv_quant_bytes_saved, 0);
  EXPECT_EQ(s.engine_stats.kv_block_acquires, 14281);
  EXPECT_EQ(s.engine_stats.kv_block_releases, 14036);
  EXPECT_EQ(s.engine_stats.kv_blocks_live, 245);
  EXPECT_EQ(s.engine_stats.gpu_peak_allocated_blocks, 245);
}

TEST(FeatureGoldenTest, EverythingOffUnderPressure) {
  const ServingSummary s = RunAllOffUnderPressure();
  ASSERT_GT(s.engine_stats.aot_swap_out_tokens, 0);
  ASSERT_GT(s.engine_stats.reused_cpu_tokens, 0);
  ASSERT_GT(s.engine_stats.recomputed_history_tokens, 0);
  EXPECT_EQ(s.completed_requests, 293);
  ExpectNearRel(641.65933391082717, s.makespan);
  EXPECT_EQ(s.window_completions, 70);
  ExpectNearRel(2.5793291964194438, s.throughput_rps);
  ExpectNearRel(500.72149214491168, s.token_throughput);
  ExpectNearRel(0.021053655446722847, s.mean_normalized_latency);
  ExpectNearRel(0.019567415598820838, s.p50_normalized_latency);
  ExpectNearRel(0.026495526494913459, s.p90_normalized_latency);
  ExpectNearRel(0.044037443815954404, s.p99_normalized_latency);
  ExpectNearRel(0.14147049238047937, s.mean_ttft);
  ExpectNearRel(2.013707438374154, s.p99_ttft);
  ExpectNearRel(0.029072437588995827, s.p99_itl);
  EXPECT_EQ(s.engine_stats.steps, 29801);
  EXPECT_EQ(s.engine_stats.generated_tokens, 61767);
  EXPECT_EQ(s.engine_stats.prefill_tokens, 270668);
  EXPECT_EQ(s.engine_stats.reused_gpu_tokens, 57897);
  EXPECT_EQ(s.engine_stats.reused_cpu_tokens, 19271);
  EXPECT_EQ(s.engine_stats.reused_ssd_tokens, 0);
  EXPECT_EQ(s.engine_stats.recomputed_history_tokens, 260308);
  EXPECT_EQ(s.engine_stats.suspensions, 69);
  EXPECT_EQ(s.engine_stats.context_capped_requests, 0);
  EXPECT_EQ(s.engine_stats.forced_swap_out_tokens, 65173);
  EXPECT_EQ(s.engine_stats.aot_swap_out_tokens, 254982);
  EXPECT_EQ(s.engine_stats.dropped_tokens, 0);
  ExpectNearRel(584.7389095291295, s.engine_stats.busy_seconds);
  ExpectNearRel(49.786851161709414, s.engine_stats.recompute_seconds);
  ExpectNearRel(0.29898298410679502, s.engine_stats.restore_stall_seconds);
  EXPECT_EQ(s.engine_stats.fault_degraded_admissions, 0);
  EXPECT_EQ(s.engine_stats.fault_recompute_tokens, 0);
  EXPECT_EQ(s.engine_stats.fault_failed_swap_outs, 0);
  EXPECT_EQ(s.engine_stats.checksum_detected_corruptions, 0);
  EXPECT_EQ(s.engine_stats.ssd_link_faults.transfers, 0);
  EXPECT_EQ(s.engine_stats.ssd_link_faults.faulted_transfers, 0);
  EXPECT_EQ(s.engine_stats.ssd_demoted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_demoted_tokens, 0);
  EXPECT_EQ(s.engine_stats.ssd_promoted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_evicted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_evicted_tokens, 0);
  EXPECT_EQ(s.engine_stats.ssd_user_blocks_written, 0);
  EXPECT_EQ(s.engine_stats.ssd_gc_moves, 0);
  EXPECT_EQ(s.engine_stats.ssd_gc_runs, 0);
  EXPECT_EQ(s.engine_stats.ssd_failed_demotes, 0);
  EXPECT_EQ(s.engine_stats.ssd_planned_recompute_tokens, 0);
  EXPECT_EQ(s.engine_stats.dedup_hit_requests, 0);
  EXPECT_EQ(s.engine_stats.reused_shared_tokens, 0);
  EXPECT_EQ(s.engine_stats.shared_attached_chunks, 0);
  EXPECT_EQ(s.engine_stats.cow_copies, 0);
  EXPECT_EQ(s.engine_stats.peak_shared_blocks, 0);
  EXPECT_EQ(s.engine_stats.kv_quant_blocks, 0);
  EXPECT_EQ(s.engine_stats.kv_quant_bytes_saved, 0);
  EXPECT_EQ(s.engine_stats.kv_block_acquires, 11853);
  EXPECT_EQ(s.engine_stats.kv_block_releases, 11608);
  EXPECT_EQ(s.engine_stats.kv_blocks_live, 245);
  EXPECT_EQ(s.engine_stats.gpu_peak_allocated_blocks, 245);
}

}  // namespace
}  // namespace pensieve
