// Tests for the KV-transfer fault-injection subsystem: link-fault injector
// determinism and accounting, checksum detection in the two-tier cache, and
// the Pensieve engine's graceful degradation under an unreliable PCIe link
// (including the §7 determinism contract at several thread counts).

#include <gtest/gtest.h>

#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/experiment.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/model/model_config.h"
#include "src/serving/driver.h"
#include "src/sim/fault_injector.h"
#include "src/sim/hardware.h"
#include "src/workload/trace.h"

namespace pensieve {
namespace {

// --- LinkFaultInjector -------------------------------------------------------

// A linear 1 GB/s link starting at `start`.
double FlatLink(double start, double bytes) { return start + bytes * 1e-9; }

TEST(LinkFaultInjectorTest, ZeroRatesTakeTheFastPath) {
  LinkFaultInjector injector(/*seed=*/99, LinkFaultProfile{}, LinkRetryPolicy{});
  int schedule_calls = 0;
  for (int i = 0; i < 50; ++i) {
    const LinkTransferOutcome out =
        injector.Transfer(static_cast<double>(i), 1e6, [&](double s, double b) {
          ++schedule_calls;
          return FlatLink(s, b);
        });
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(out.attempts, 1);
    EXPECT_DOUBLE_EQ(out.done, static_cast<double>(i) + 1e-3);
  }
  // Exactly one schedule call per transfer: no retries, no extra draws.
  EXPECT_EQ(schedule_calls, 50);
  EXPECT_EQ(injector.stats().transfers, 50);
  EXPECT_EQ(injector.stats().InjectedFaults(), 0);
  EXPECT_EQ(injector.stats().retries, 0);
}

LinkFaultProfile HeavyMixedProfile() {
  LinkFaultProfile profile;
  profile.timeout_rate = 0.2;
  profile.stall_rate = 0.1;
  profile.partial_rate = 0.1;
  profile.corruption_rate = 0.2;
  return profile;
}

TEST(LinkFaultInjectorTest, SameSeedReplaysIdenticalOutcomes) {
  LinkRetryPolicy retry;
  retry.max_attempts = 3;
  LinkFaultInjector a(/*seed=*/7, HeavyMixedProfile(), retry);
  LinkFaultInjector b(/*seed=*/7, HeavyMixedProfile(), retry);
  for (int i = 0; i < 300; ++i) {
    const double now = 0.5 * static_cast<double>(i);
    const double bytes = 1e5 * static_cast<double>(1 + i % 7);
    const LinkTransferOutcome oa = a.Transfer(now, bytes, FlatLink);
    const LinkTransferOutcome ob = b.Transfer(now, bytes, FlatLink);
    EXPECT_DOUBLE_EQ(oa.done, ob.done);
    EXPECT_EQ(oa.delivered, ob.delivered);
    EXPECT_EQ(oa.attempts, ob.attempts);
    EXPECT_EQ(oa.last_fault, ob.last_fault);
  }
  EXPECT_EQ(a.stats().InjectedFaults(), b.stats().InjectedFaults());
  EXPECT_EQ(a.stats().retries, b.stats().retries);
  EXPECT_DOUBLE_EQ(a.stats().retry_backoff_seconds,
                   b.stats().retry_backoff_seconds);
  // A different seed draws a different fault stream.
  LinkFaultInjector c(/*seed=*/8, HeavyMixedProfile(), retry);
  int differences = 0;
  LinkFaultInjector a2(/*seed=*/7, HeavyMixedProfile(), retry);
  for (int i = 0; i < 300; ++i) {
    const double now = 0.5 * static_cast<double>(i);
    const double bytes = 1e5 * static_cast<double>(1 + i % 7);
    if (a2.Transfer(now, bytes, FlatLink).done !=
        c.Transfer(now, bytes, FlatLink).done) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 0);
}

TEST(LinkFaultInjectorTest, AccountingIdentityHolds) {
  LinkRetryPolicy retry;
  retry.max_attempts = 2;
  LinkFaultInjector injector(/*seed=*/3, HeavyMixedProfile(), retry);
  int64_t undelivered = 0;
  for (int i = 0; i < 500; ++i) {
    if (!injector.Transfer(static_cast<double>(i), 2e6, FlatLink).delivered) {
      ++undelivered;
    }
  }
  const LinkFaultStats& s = injector.stats();
  EXPECT_EQ(s.transfers, 500);
  EXPECT_GT(s.InjectedFaults(), 0);
  // Every retryable fault (timeout, partial, corruption) ends recovered or
  // unrecovered; stalls deliver late and are never retried.
  EXPECT_EQ(s.injected_timeouts + s.injected_partials + s.injected_corruptions,
            s.recovered_faults + s.unrecovered_faults);
  // An undelivered transfer is exactly an exhausted one.
  EXPECT_EQ(s.exhausted_transfers, undelivered);
  EXPECT_GT(s.exhausted_transfers, 0);
}

TEST(LinkFaultInjectorTest, CertainTimeoutExhaustsWithBackoff) {
  LinkFaultProfile profile;
  profile.timeout_rate = 1.0;
  LinkRetryPolicy retry;
  retry.max_attempts = 3;
  LinkFaultInjector injector(/*seed=*/1, profile, retry);
  const LinkTransferOutcome out = injector.Transfer(10.0, 1e6, FlatLink);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(out.last_fault, LinkFaultKind::kTimeout);
  // Three timeout windows plus two exponential backoff sleeps, all charged
  // through the returned completion time.
  const double backoff =
      retry.backoff_initial + retry.backoff_initial * retry.backoff_factor;
  EXPECT_DOUBLE_EQ(out.done, 10.0 + 3.0 * profile.timeout_seconds + backoff);
  EXPECT_DOUBLE_EQ(injector.stats().retry_backoff_seconds, backoff);
  EXPECT_EQ(injector.stats().unrecovered_faults, 3);
  EXPECT_EQ(injector.stats().exhausted_transfers, 1);
}

// --- Checksums in the two-tier cache ----------------------------------------

KvCacheConfig SmallConfig() {
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = 8;
  config.num_cpu_blocks = 8;
  return config;
}

TEST(CacheChecksumTest, SwapOutRecordsVerifiableChecksum) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  EXPECT_TRUE(cache.VerifyCpuChecksum(1, 0).ok());
  EXPECT_EQ(cache.counters().checksum_verifications, 1);
  EXPECT_EQ(cache.counters().checksum_failures, 0);
}

TEST(CacheChecksumTest, MarkCpuCorruptFailsVerification) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.MarkCpuCorrupt(1, 0).ok());
  EXPECT_EQ(cache.VerifyCpuChecksum(1, 0).code(), StatusCode::kDataLoss);
  EXPECT_EQ(cache.counters().corrupt_marked_chunks, 1);
  EXPECT_EQ(cache.counters().checksum_failures, 1);
  // No CPU copy, nothing to corrupt or verify.
  ASSERT_TRUE(cache.AppendTokenSlots(2, 4, nullptr).ok());
  EXPECT_EQ(cache.MarkCpuCorrupt(2, 0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cache.VerifyCpuChecksum(2, 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CacheChecksumTest, SwapInRefusesCorruptCopyAndRecomputePathWorks) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.ReclaimGpu(1, 0).ok());
  ASSERT_TRUE(cache.MarkCpuCorrupt(1, 0).ok());
  EXPECT_EQ(cache.SwapIn(1, 0).code(), StatusCode::kDataLoss);
  // Still kCpu: the refused swap-in must not half-transition the chunk.
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kCpu);
  cache.CheckInvariants();
  // The degradation ladder: drop the poisoned prefix, then restore it as a
  // recompute target.
  ASSERT_TRUE(cache.DropChunk(1, 0).ok());
  ASSERT_TRUE(cache.RestoreDropped(1, 0).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kGpu);
  cache.CheckInvariants();
}

TEST(CacheChecksumTest, ReclaimRefusesCorruptCopy) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.MarkCpuCorrupt(1, 0).ok());
  // Reclaiming would leave the corrupt copy as the only copy.
  EXPECT_EQ(cache.ReclaimGpu(1, 0).code(), StatusCode::kDataLoss);
  // Rollback: discard the poisoned copy; the GPU copy is intact.
  ASSERT_TRUE(cache.DropCpuCopy(1, 0).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kGpu);
  cache.CheckInvariants();
}

TEST(CacheChecksumTest, NumericBitFlipDetectedByHash) {
  KvCacheConfig config = SmallConfig();
  config.numeric = true;
  config.num_layers = 1;
  config.num_kv_heads = 1;
  config.head_dim = 4;
  TwoTierKvCache cache(config);
  std::vector<ContextState::SlotRef> slots;
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, &slots).ok());
  std::vector<float> k(4, 1.0f);
  std::vector<float> v(4, 2.0f);
  cache.gpu_pool()->WriteToken(slots[0].block, 0, slots[0].slot, k.data(),
                               v.data());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  EXPECT_TRUE(cache.VerifyCpuChecksum(1, 0).ok());
  // Flip one bit in the CPU copy behind the cache's back: the recorded
  // FNV-1a hash — not a flag — must catch it.
  cache.cpu_pool()->CorruptBlock(cache.Find(1)->chunk(0).cpu_block);
  EXPECT_EQ(cache.VerifyCpuChecksum(1, 0).code(), StatusCode::kDataLoss);
}

// --- Engine-level degradation and determinism --------------------------------

GpuCostModel Opt13BModel() { return GpuCostModel(Opt13BConfig(), A100Spec(1)); }

WorkloadTrace SmallTrace(int64_t conversations = 15) {
  TraceOptions options;
  options.num_conversations = conversations;
  options.conversation_rate = 0.5;
  options.mean_think_time = 10.0;
  options.seed = 1;
  return WorkloadTrace(ShareGptProfile(), options);
}

EngineOverrides FaultyOverrides(double timeout, double corrupt) {
  EngineOverrides overrides;
  overrides.cache_scale = 0.15;  // small cache: heavy swap traffic
  overrides.pcie_fault_profile.timeout_rate = timeout;
  overrides.pcie_fault_profile.corruption_rate = corrupt;
  overrides.fault_retry.max_attempts = 2;
  overrides.fault_seed = 7;
  return overrides;
}

ServingSummary RunOnce(const EngineOverrides& overrides,
                       const WorkloadTrace& trace) {
  // The engine keeps a reference to the cost model, so it must outlive it.
  const GpuCostModel model = Opt13BModel();
  auto engine = MakeEngine(SystemKind::kPensieve, model, overrides);
  return RunServingExperiment(engine.get(), trace);
}

void ExpectSummariesIdentical(const ServingSummary& a, const ServingSummary& b) {
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.token_throughput, b.token_throughput);
  EXPECT_EQ(a.mean_normalized_latency, b.mean_normalized_latency);
  EXPECT_EQ(a.p50_normalized_latency, b.p50_normalized_latency);
  EXPECT_EQ(a.p90_normalized_latency, b.p90_normalized_latency);
  EXPECT_EQ(a.p99_normalized_latency, b.p99_normalized_latency);
  EXPECT_EQ(a.engine_stats.recomputed_history_tokens,
            b.engine_stats.recomputed_history_tokens);
  EXPECT_EQ(a.engine_stats.aot_swap_out_tokens,
            b.engine_stats.aot_swap_out_tokens);
  EXPECT_EQ(a.engine_stats.forced_swap_out_tokens,
            b.engine_stats.forced_swap_out_tokens);
  EXPECT_EQ(a.engine_stats.link_faults.InjectedFaults(),
            b.engine_stats.link_faults.InjectedFaults());
  EXPECT_EQ(a.engine_stats.link_faults.retries,
            b.engine_stats.link_faults.retries);
  EXPECT_EQ(a.engine_stats.fault_degraded_admissions,
            b.engine_stats.fault_degraded_admissions);
  EXPECT_EQ(a.engine_stats.fault_recompute_tokens,
            b.engine_stats.fault_recompute_tokens);
}

TEST(EngineFaultTest, ZeroRatesAreBitIdenticalToDefault) {
  const WorkloadTrace trace = SmallTrace();
  EngineOverrides plain;
  plain.cache_scale = 0.15;
  // Same config with the injector armed (nonzero seed, retry budget) but
  // every rate zero: the fast path must draw no randomness and change no
  // schedule call.
  EngineOverrides armed = plain;
  armed.fault_seed = 12345;
  armed.fault_retry.max_attempts = 7;
  const ServingSummary a = RunOnce(plain, trace);
  const ServingSummary b = RunOnce(armed, trace);
  ExpectSummariesIdentical(a, b);
  EXPECT_EQ(b.engine_stats.link_faults.InjectedFaults(), 0);
}

TEST(EngineFaultTest, HeavyFaultsNeverDropRequestsAndAccountFully) {
  const WorkloadTrace trace = SmallTrace();
  EngineOverrides plain;
  plain.cache_scale = 0.15;
  const ServingSummary clean = RunOnce(plain, trace);
  const ServingSummary faulted = RunOnce(FaultyOverrides(0.3, 0.3), trace);

  // Degradation is graceful: every request the clean run completes, the
  // faulted run completes too — faults cost time, never requests.
  EXPECT_EQ(faulted.completed_requests, clean.completed_requests);
  EXPECT_GE(faulted.makespan, clean.makespan);

  const LinkFaultStats& lf = faulted.engine_stats.link_faults;
  EXPECT_GT(lf.InjectedFaults(), 0);
  EXPECT_EQ(lf.injected_timeouts + lf.injected_partials +
                lf.injected_corruptions,
            lf.recovered_faults + lf.unrecovered_faults);
  // Whatever the retries could not recover surfaced through the degradation
  // ladder: corrupt copies rolled back or marked, prefixes recomputed.
  if (lf.unrecovered_faults > 0) {
    EXPECT_GT(faulted.engine_stats.fault_failed_swap_outs +
                  faulted.engine_stats.fault_degraded_admissions +
                  faulted.engine_stats.fault_dropped_chunks,
              0);
  }
}

TEST(EngineFaultTest, SameFaultSeedIsDeterministicAcrossThreadCounts) {
  const WorkloadTrace trace = SmallTrace();
  ThreadPool::SetGlobalThreads(1);
  const ServingSummary t1 = RunOnce(FaultyOverrides(0.2, 0.2), trace);
  const ServingSummary t1_again = RunOnce(FaultyOverrides(0.2, 0.2), trace);
  ThreadPool::SetGlobalThreads(8);
  const ServingSummary t8 = RunOnce(FaultyOverrides(0.2, 0.2), trace);
  ThreadPool::SetGlobalThreads(1);
  ExpectSummariesIdentical(t1, t1_again);
  ExpectSummariesIdentical(t1, t8);
}

}  // namespace
}  // namespace pensieve
