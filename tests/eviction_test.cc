// Tests for eviction policies, the cost estimator, and the cache coordinator.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "src/eviction/cost_estimator.h"
#include "src/eviction/policy.h"
#include "src/model/model_config.h"
#include "src/scheduler/cache_coordinator.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

GpuCostModel Opt13BModel() {
  return GpuCostModel(Opt13BConfig(), A100Spec(1));
}

ChunkCostEstimator Estimator() {
  return ChunkCostEstimator::ProfileFromCostModel(Opt13BModel(), 32, 16384);
}

// --- ChunkCostEstimator --------------------------------------------------------

TEST(CostEstimatorTest, MonotoneInContext) {
  ChunkCostEstimator est = Estimator();
  double prev = 0.0;
  for (int64_t ctx = 32; ctx <= 16384; ctx += 500) {
    const double c = est.Cost(ctx);
    EXPECT_GT(c, prev) << "ctx=" << ctx;
    prev = c;
  }
}

TEST(CostEstimatorTest, InterpolationCloseToModelBetweenKnots) {
  GpuCostModel model = Opt13BModel();
  ChunkCostEstimator est = ChunkCostEstimator::ProfileFromCostModel(model, 32, 16384);
  // 3000 is between the 2048 and 4096 knots; linear interpolation of a
  // linear-ish cost should land within a few percent of the true model.
  const double truth = model.ChunkRecomputeCost(32, 3000);
  EXPECT_NEAR(est.Cost(3000), truth, truth * 0.1);
}

TEST(CostEstimatorTest, ProfileFromKernelsIsMonotone) {
  // Wall-clock profiling of the real CPU kernel: later contexts must cost
  // more (allow generous tolerance — it is a timing measurement).
  ChunkCostEstimator est =
      ChunkCostEstimator::ProfileFromKernels(TinyOptConfig(), 16, 256);
  EXPECT_GT(est.Cost(256), est.Cost(16));
}

TEST(CostEstimatorTest, CostNeverDecreasesWithContext) {
  // The coordinator's victim index assumes Cost(l) is non-decreasing, so
  // check every context length, including the extrapolated ends.
  const auto expect_monotone = [](const ChunkCostEstimator& est, int64_t max_ctx) {
    for (int64_t ctx = 1; ctx < max_ctx; ++ctx) {
      ASSERT_LE(est.Cost(ctx), est.Cost(ctx + 1)) << "ctx=" << ctx;
    }
  };
  expect_monotone(Estimator(), 20000);
  expect_monotone(ChunkCostEstimator::ProfileFromKernels(TinyOptConfig(), 16, 256), 400);
  // A timing dip (the 64-token point measured faster than the 32-token one)
  // is clamped to the running maximum instead of reaching the table.
  const ChunkCostEstimator noisy = ChunkCostEstimator::FromMeasurements(
      32, {{32, 2.0e-6}, {64, 1.5e-6}, {128, 3.0e-6}, {256, 2.5e-6}, {512, 8.0e-6}});
  expect_monotone(noisy, 1024);
  EXPECT_DOUBLE_EQ(noisy.Cost(64), 2.0e-6);
  EXPECT_DOUBLE_EQ(noisy.Cost(256), 3.0e-6);
  EXPECT_DOUBLE_EQ(noisy.Cost(512), 8.0e-6);
}

// --- Policies -------------------------------------------------------------------

ChunkCandidate MakeCandidate(int64_t conv, int64_t chunk, int64_t ctx,
                             double last_active) {
  ChunkCandidate c;
  c.conversation_id = conv;
  c.chunk_index = chunk;
  c.context_len = ctx;
  c.last_active = last_active;
  return c;
}

TEST(PolicyTest, RetentionValuePrefersLeadingChunks) {
  // Same conversation: leading chunks (smaller context) are cheaper to
  // recompute, so they must score lower (evicted first).
  RetentionValuePolicy policy(Estimator());
  const double now = 100.0;
  const double lead = policy.Score(MakeCandidate(1, 0, 32, 50.0), now);
  const double trail = policy.Score(MakeCandidate(1, 9, 320, 50.0), now);
  EXPECT_LT(lead, trail);
}

TEST(PolicyTest, RetentionValuePrefersInactiveConversations) {
  RetentionValuePolicy policy(Estimator());
  const double now = 100.0;
  const double stale = policy.Score(MakeCandidate(1, 0, 320, 10.0), now);
  const double fresh = policy.Score(MakeCandidate(2, 0, 320, 99.0), now);
  EXPECT_LT(stale, fresh);
}

TEST(PolicyTest, RetentionValueTradesCostAgainstRecency) {
  // An expensive chunk of a long-idle conversation can still outrank a
  // cheap chunk of a just-active one — the paper's V = Cost/T ordering.
  RetentionValuePolicy policy(Estimator());
  const double now = 1000.0;
  const double expensive_idle = policy.Score(MakeCandidate(1, 99, 16000, 0.0), now);
  const double cheap_fresh = policy.Score(MakeCandidate(2, 0, 32, 999.9), now);
  EXPECT_LT(expensive_idle, cheap_fresh);
}

TEST(PolicyTest, LruOrdersByLastActive) {
  LruPolicy policy;
  const double now = 10.0;
  EXPECT_LT(policy.Score(MakeCandidate(1, 0, 32, 1.0), now),
            policy.Score(MakeCandidate(2, 0, 32, 5.0), now));
  // Ties broken toward the leading chunk.
  EXPECT_LT(policy.Score(MakeCandidate(1, 0, 32, 1.0), now),
            policy.Score(MakeCandidate(1, 3, 128, 1.0), now));
}

TEST(PolicyTest, CostOnlyIgnoresRecency) {
  CostOnlyPolicy policy(Estimator());
  const double s1 = policy.Score(MakeCandidate(1, 2, 96, 0.0), 100.0);
  const double s2 = policy.Score(MakeCandidate(1, 2, 96, 99.0), 100.0);
  EXPECT_DOUBLE_EQ(s1, s2);
}

TEST(PolicyTest, FactoryCreatesAllKinds) {
  ChunkCostEstimator est = Estimator();
  EXPECT_STREQ(MakeEvictionPolicy(EvictionPolicyKind::kRetentionValue, est)->name(),
               "retention-value");
  EXPECT_STREQ(MakeEvictionPolicy(EvictionPolicyKind::kLru, est)->name(), "lru");
  EXPECT_STREQ(MakeEvictionPolicy(EvictionPolicyKind::kCostOnly, est)->name(),
               "cost-only");
}

// The victim index enters conversations in last_active order and stops at
// the first whose floor exceeds the best entered score (DESIGN.md §15). That
// is exact only if the floor never exceeds Score of an unshared candidate
// and never falls as last_active grows. Checked on random candidates, with
// short contexts and activity within 1 ms of now oversampled, and on an
// estimator whose extrapolated Cost(1) is negative.
TEST(PolicyTest, ScoreFloorBoundsUnsharedScoresAndNeverFalls) {
  const ChunkCostEstimator steep = ChunkCostEstimator::FromMeasurements(
      32, {{32, 1.0e-6}, {64, 1.0e-5}, {128, 2.0e-5}});
  ASSERT_LT(steep.Cost(1), 0.0);
  std::mt19937_64 rng(17);
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  for (const ChunkCostEstimator& est : {Estimator(), steep}) {
    for (EvictionPolicyKind kind : {EvictionPolicyKind::kRetentionValue,
                                    EvictionPolicyKind::kLru, EvictionPolicyKind::kCostOnly}) {
      const std::unique_ptr<EvictionPolicy> policy = MakeEvictionPolicy(kind, est);
      for (int i = 0; i < 20000; ++i) {
        const double now = uniform(0.0, 1000.0);
        const double idle = i % 3 == 0 ? uniform(0.0, 2e-3) : uniform(0.0, now);
        const double last_active = i % 7 == 0 ? now : now - idle;
        const int64_t ctx = i % 2 == 0 ? 1 + static_cast<int64_t>(rng() % 64)
                                       : 1 + static_cast<int64_t>(rng() % 16384);
        const ChunkCandidate c = MakeCandidate(1, (ctx - 1) / 32, ctx, last_active);
        const double floor = policy->ScoreFloor(last_active, now);
        ASSERT_LE(floor, policy->Score(c, now))
            << policy->name() << " ctx=" << ctx << " idle=" << now - last_active;
        const double later = last_active + (i % 5 == 0 ? 1e-12 : uniform(0.0, 10.0));
        ASSERT_LE(floor, policy->ScoreFloor(later, now))
            << policy->name() << " last_active " << last_active << " -> " << later;
      }
    }
  }
}

// --- CacheCoordinator -------------------------------------------------------------

struct CoordinatorFixture {
  explicit CoordinatorFixture(int64_t gpu_blocks = 8, int64_t cpu_blocks = 8,
                              bool use_cpu = true, double target = 0.25)
      : cache(MakeConfig(gpu_blocks, cpu_blocks)), estimator(Estimator()),
        policy(estimator),
        coordinator(&cache, &policy, MakeOptions(use_cpu, target)) {}

  static KvCacheConfig MakeConfig(int64_t gpu_blocks, int64_t cpu_blocks) {
    KvCacheConfig config;
    config.block_size = 4;
    config.num_gpu_blocks = gpu_blocks;
    config.num_cpu_blocks = cpu_blocks;
    return config;
  }
  static CacheCoordinator::Options MakeOptions(bool use_cpu, double target) {
    CacheCoordinator::Options o;
    o.use_cpu_cache = use_cpu;
    o.swap_out_target = target;
    return o;
  }

  TwoTierKvCache cache;
  ChunkCostEstimator estimator;
  RetentionValuePolicy policy;
  CacheCoordinator coordinator;
};

TEST(CoordinatorTest, AotSwapOutReachesTarget) {
  CoordinatorFixture fx(/*gpu_blocks=*/8, /*cpu_blocks=*/8, true, /*target=*/0.5);
  // Fill 7 of 8 GPU blocks across two conversations.
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 16, nullptr).ok());
  ASSERT_TRUE(fx.cache.AppendTokenSlots(2, 12, nullptr).ok());
  fx.cache.Find(1)->set_last_active(0.0);
  fx.cache.Find(2)->set_last_active(5.0);
  EXPECT_EQ(fx.cache.AvailableGpuBlocks(), 1);

  const auto evicted = fx.coordinator.AheadOfTimeEvict(10.0);
  EXPECT_GE(evicted.swapped_out_tokens, 12);  // >= 3 chunks to reach 4 available
  EXPECT_EQ(evicted.dropped_tokens, 0);
  EXPECT_GE(fx.cache.AvailableGpuBlocks(), 4);
  // Swap-out is a copy: the chunks remain GPU-resident (lazy reclamation).
  EXPECT_EQ(fx.cache.Find(1)->TokensOnGpu(), 16);
  fx.cache.CheckInvariants();
}

TEST(CoordinatorTest, AotPrefersInactiveConversationChunks) {
  CoordinatorFixture fx(8, 8, true, 0.4);
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 12, nullptr).ok());
  ASSERT_TRUE(fx.cache.AppendTokenSlots(2, 12, nullptr).ok());
  fx.cache.Find(1)->set_last_active(0.0);    // long idle
  fx.cache.Find(2)->set_last_active(99.0);   // just active
  fx.coordinator.AheadOfTimeEvict(100.0);
  // Conversation 1 should lose GPU-only status first.
  int64_t conv1_swapped = 0;
  int64_t conv2_swapped = 0;
  for (int64_t i = 0; i < 3; ++i) {
    conv1_swapped +=
        fx.cache.Find(1)->chunk(i).location == ChunkLocation::kGpuAndCpu ? 1 : 0;
    conv2_swapped +=
        fx.cache.Find(2)->chunk(i).location == ChunkLocation::kGpuAndCpu ? 1 : 0;
  }
  EXPECT_GT(conv1_swapped, 0);
  EXPECT_GE(conv1_swapped, conv2_swapped);
}

TEST(CoordinatorTest, AotSkipsPinnedConversations) {
  CoordinatorFixture fx(4, 8, true, 1.0);  // target = everything
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 16, nullptr).ok());
  fx.cache.Find(1)->Pin();
  EXPECT_EQ(fx.coordinator.AheadOfTimeEvict(1.0).swapped_out_tokens, 0);
  fx.cache.Find(1)->Unpin();
  // Time advances between scheduler steps; the AOT retry guard only
  // suppresses rescans within the same virtual instant.
  EXPECT_GT(fx.coordinator.AheadOfTimeEvict(2.0).swapped_out_tokens, 0);
}

TEST(CoordinatorTest, EnsureFreeReclaimsCleanCopiesFirst) {
  CoordinatorFixture fx(4, 8);
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 16, nullptr).ok());
  ASSERT_TRUE(fx.cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(fx.cache.SwapOut(1, 1).ok());
  EXPECT_EQ(fx.cache.gpu_allocator().num_free(), 0);

  const auto outcome = fx.coordinator.EnsureFreeGpuBlocks(2, 1.0);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.reclaimed_blocks, 2);
  EXPECT_EQ(outcome.forced_swap_out_tokens, 0);  // clean copies sufficed
  EXPECT_EQ(fx.cache.gpu_allocator().num_free(), 2);
  fx.cache.CheckInvariants();
}

TEST(CoordinatorTest, EnsureFreeForcesSwapOutWhenNoCleanCopies) {
  CoordinatorFixture fx(4, 8);
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 16, nullptr).ok());
  const auto outcome = fx.coordinator.EnsureFreeGpuBlocks(1, 1.0);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.forced_swap_out_tokens, 4);
  EXPECT_EQ(fx.cache.Find(1)->TokensCpuOnly(), 4);
  fx.cache.CheckInvariants();
}

TEST(CoordinatorTest, EnsureFreeDropsInGpuOnlyMode) {
  CoordinatorFixture fx(4, 0, /*use_cpu=*/false);
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 16, nullptr).ok());
  const auto outcome = fx.coordinator.EnsureFreeGpuBlocks(2, 1.0);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.dropped_tokens, 8);
  EXPECT_EQ(fx.cache.Find(1)->LeadingDroppedChunks(), 2);
  fx.cache.CheckInvariants();
}

TEST(CoordinatorTest, EnsureFreeFailsWhenEverythingPinned) {
  CoordinatorFixture fx(4, 8);
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 16, nullptr).ok());
  fx.cache.Find(1)->Pin();
  const auto outcome = fx.coordinator.EnsureFreeGpuBlocks(1, 1.0);
  EXPECT_FALSE(outcome.ok);
  fx.cache.Find(1)->Unpin();
}

TEST(CoordinatorTest, EnsureFreeCpuDropsFrontierChunks) {
  CoordinatorFixture fx(8, 2);
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 8, nullptr).ok());
  ASSERT_TRUE(fx.cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(fx.cache.ReclaimGpu(1, 0).ok());
  ASSERT_TRUE(fx.cache.SwapOut(1, 1).ok());
  ASSERT_TRUE(fx.cache.ReclaimGpu(1, 1).ok());
  EXPECT_EQ(fx.cache.cpu_allocator().num_free(), 0);

  EXPECT_TRUE(fx.coordinator.EnsureFreeCpuBlocks(1, 1.0));
  // The frontier (leading) chunk was dropped, not the trailing one.
  EXPECT_TRUE(fx.cache.Find(1)->chunk(0).Dropped());
  EXPECT_FALSE(fx.cache.Find(1)->chunk(1).Dropped());
  fx.cache.CheckInvariants();
}

TEST(CoordinatorTest, AotDropsInGpuOnlyMode) {
  CoordinatorFixture fx(/*gpu_blocks=*/8, /*cpu_blocks=*/0, /*use_cpu=*/false,
                        /*target=*/0.5);
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 28, nullptr).ok());  // 7 of 8 blocks
  const auto evicted = fx.coordinator.AheadOfTimeEvict(1.0);
  EXPECT_EQ(evicted.swapped_out_tokens, 0);
  EXPECT_GE(evicted.dropped_tokens, 12);  // 3 chunks dropped to reach 4 free
  EXPECT_GE(fx.cache.AvailableGpuBlocks(), 4);
  fx.cache.CheckInvariants();
}

TEST(CoordinatorTest, FullyDroppedConversationIsForgotten) {
  CoordinatorFixture fx(/*gpu_blocks=*/4, /*cpu_blocks=*/0, /*use_cpu=*/false,
                        /*target=*/1.0);  // target: everything free
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 16, nullptr).ok());
  fx.coordinator.AheadOfTimeEvict(1.0);
  // All chunks dropped => the conversation's bookkeeping is erased.
  EXPECT_EQ(fx.cache.Find(1), nullptr);
  fx.cache.CheckInvariants();
}

TEST(CoordinatorTest, ForgettingRespectsEnginePredicate) {
  KvCacheConfig config = CoordinatorFixture::MakeConfig(4, 0);
  TwoTierKvCache cache(config);
  ChunkCostEstimator estimator = Estimator();
  RetentionValuePolicy policy(estimator);
  CacheCoordinator coordinator(
      &cache, &policy, CoordinatorFixture::MakeOptions(false, 1.0),
      /*may_forget=*/[](int64_t) { return false; });
  ASSERT_TRUE(cache.AppendTokenSlots(1, 16, nullptr).ok());
  coordinator.AheadOfTimeEvict(1.0);
  // Chunks dropped but the conversation remains tracked.
  ASSERT_NE(cache.Find(1), nullptr);
  EXPECT_EQ(cache.Find(1)->LeadingDroppedChunks(), 4);
  cache.CheckInvariants();
}

TEST(CoordinatorTest, DropRespectsPrefixOrderAcrossMixedStates) {
  // Conversation with chunk 0 on CPU and chunk 1 on GPU: GPU-freeing drops
  // must never leave a resident chunk behind a dropped one.
  CoordinatorFixture fx(4, 4, /*use_cpu=*/true);
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 16, nullptr).ok());
  for (int round = 0; round < 4; ++round) {
    fx.coordinator.EnsureFreeGpuBlocks(1, static_cast<double>(round + 1));
    fx.cache.CheckInvariants();  // includes the prefix-drop invariant
  }
}

// Classic-LRU granularity drops a whole conversation to free one CPU block,
// so a swap-out pass can lose candidates it seeded: both passes must skip
// them instead of swapping out a chunk that is gone.
CacheCoordinator::Options ConversationGranularity(double target) {
  CacheCoordinator::Options o = CoordinatorFixture::MakeOptions(/*use_cpu=*/true, target);
  o.conversation_granularity = true;
  return o;
}

TEST(CoordinatorTest, AotSkipsCandidatesTheCpuReservationForgot) {
  TwoTierKvCache cache(CoordinatorFixture::MakeConfig(/*gpu_blocks=*/4, /*cpu_blocks=*/1));
  ChunkCostEstimator estimator = Estimator();
  RetentionValuePolicy policy(estimator);
  CacheCoordinator coordinator(&cache, &policy, ConversationGranularity(/*target=*/0.75));
  // Conversation 1: chunk 0 holds the only CPU block, chunk 1 is on the GPU
  // and, idle longest, is the first swap-out candidate. Conversation 2 fills
  // the other three GPU blocks.
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.ReclaimGpu(1, 0).ok());
  ASSERT_TRUE(cache.AppendTokenSlots(2, 12, nullptr).ok());
  cache.Find(1)->set_last_active(0.0);
  cache.Find(2)->set_last_active(9.0);
  // Reserving CPU space drops (and forgets) conversation 1, so its seeded
  // chunk 1 is skipped; conversation 2's chunks are swapped out instead.
  const CacheCoordinator::EvictOutcome evicted = coordinator.AheadOfTimeEvict(10.0);
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_EQ(evicted.dropped_tokens, 0);
  ASSERT_FALSE(evicted.swapped.empty());
  for (const auto& [conv, chunk] : evicted.swapped) {
    EXPECT_EQ(conv, 2);
  }
  EXPECT_EQ(evicted.swapped_out_tokens, 4 * static_cast<int64_t>(evicted.swapped.size()));
  cache.CheckInvariants();
}

// With the CPU tier full of clean copies and no CPU-only chunk to evict, an
// ahead-of-time pass stops: discarding a copy would undo a swap-out already
// paid for, and the next pass would copy the chunk out again. A forced pass
// still discards one to make room.
TEST(CoordinatorTest, AotDiscardsNoCopyWhenTheCpuTierIsFull) {
  CoordinatorFixture fx(/*gpu_blocks=*/8, /*cpu_blocks=*/2, true, /*target=*/0.75);
  ASSERT_TRUE(fx.cache.AppendTokenSlots(1, 16, nullptr).ok());
  ASSERT_TRUE(fx.cache.AppendTokenSlots(2, 16, nullptr).ok());
  for (int64_t chunk : {0, 1}) {
    ASSERT_TRUE(fx.cache.SwapOut(1, chunk).ok());
    // Corrupt copies outlast the forced pass's reclaim step below.
    ASSERT_TRUE(fx.cache.MarkCpuCorrupt(1, chunk).ok());
  }
  fx.cache.Find(1)->set_last_active(0.0);
  fx.cache.Find(2)->set_last_active(5.0);
  ASSERT_EQ(fx.cache.cpu_allocator().num_free(), 0);
  ASSERT_EQ(fx.cache.AvailableGpuBlocks(), 2);  // the target is 6
  std::vector<TwoTierKvCache::EvictEvent> log;
  fx.cache.set_event_log(&log);

  const CacheCoordinator::EvictOutcome evicted = fx.coordinator.AheadOfTimeEvict(10.0);
  EXPECT_EQ(evicted.swapped_out_tokens, 0);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(fx.cache.Find(1)->chunk(0).location, ChunkLocation::kGpuAndCpu);
  EXPECT_EQ(fx.cache.Find(1)->chunk(1).location, ChunkLocation::kGpuAndCpu);

  const CacheCoordinator::FreeOutcome freed = fx.coordinator.EnsureFreeGpuBlocks(1, 11.0);
  EXPECT_TRUE(freed.ok);
  EXPECT_EQ(freed.forced_swap_out_tokens, 4);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.front().op, TwoTierKvCache::EvictOp::kDropCpuCopy);
  fx.cache.set_event_log(nullptr);
  fx.cache.CheckInvariants();
}

TEST(CoordinatorTest, ForcedSwapSkipsAVictimItsOwnCpuReservationDropped) {
  TwoTierKvCache cache(CoordinatorFixture::MakeConfig(/*gpu_blocks=*/2, /*cpu_blocks=*/1));
  ChunkCostEstimator estimator = Estimator();
  RetentionValuePolicy policy(estimator);
  CacheCoordinator coordinator(&cache, &policy, ConversationGranularity(/*target=*/0.25));
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  // Chunk 0 swaps out and takes the only CPU block. Reserving one for chunk
  // 1 then evicts chunk 0, now the CPU frontier, and with it the whole
  // conversation, chunk 1 included: the pass skips chunk 1 and ends with
  // both blocks free.
  const CacheCoordinator::FreeOutcome freed = coordinator.EnsureFreeGpuBlocks(2, 1.0);
  EXPECT_TRUE(freed.ok);
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_EQ(freed.forced_swap_out_tokens, 4);
  ASSERT_EQ(freed.forced_swapped.size(), 1u);
  EXPECT_EQ(freed.forced_swapped[0].second, 0);
  EXPECT_EQ(cache.gpu_allocator().num_free(), 2);
  cache.CheckInvariants();
}

}  // namespace
}  // namespace pensieve
