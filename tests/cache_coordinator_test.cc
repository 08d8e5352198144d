// Tests for the scheduler-side cache coordinator, in particular the
// ahead-of-time eviction retry guard: a pass that cannot reach the free
// target (CPU tier full) must not rescan within the same virtual instant
// unless the available block count changed.

#include <gtest/gtest.h>

#include "src/eviction/policy.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/scheduler/cache_coordinator.h"

namespace pensieve {
namespace {

// 4 GPU blocks, 1 CPU block, 4-token chunks: with a 0.5 free target the
// CPU tier can never hold enough evicted chunks to satisfy a pass. An
// ahead-of-time pass discards no CPU copy to make room, so it swaps one
// chunk out and stops.
KvCacheConfig TinyConfig() {
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = 4;
  config.num_cpu_blocks = 1;
  return config;
}

class AotRetryGuardTest : public ::testing::Test {
 protected:
  AotRetryGuardTest() : cache_(TinyConfig()) {
    CacheCoordinator::Options options;
    options.swap_out_target = 0.5;  // 2 of 4 blocks
    coordinator_ = std::make_unique<CacheCoordinator>(&cache_, &policy_, options);
    for (int64_t id = 1; id <= 4; ++id) {
      EXPECT_TRUE(cache_.AppendTokenSlots(id, 4, nullptr).ok());
    }
  }

  TwoTierKvCache cache_;
  LruPolicy policy_;
  std::unique_ptr<CacheCoordinator> coordinator_;
};

TEST_F(AotRetryGuardTest, FailedPassSkipsRescanWithinSameInstant) {
  // First pass: the single CPU block takes one swap-out, and the pass ends
  // below target, arming the guard.
  const CacheCoordinator::EvictOutcome first = coordinator_->AheadOfTimeEvict(1.0);
  EXPECT_EQ(first.swapped_out_tokens, 4);
  const int64_t after_first = cache_.counters().swapped_out_chunks;
  EXPECT_EQ(after_first, 1);
  EXPECT_LT(cache_.AvailableGpuBlocks(), 2);

  // Same instant, same availability: the guard suppresses the rescan.
  const CacheCoordinator::EvictOutcome second = coordinator_->AheadOfTimeEvict(1.0);
  EXPECT_EQ(second.swapped_out_tokens, 0);
  EXPECT_EQ(cache_.counters().swapped_out_chunks, after_first);
}

TEST_F(AotRetryGuardTest, AvailabilityChangeRetriesWithinSameInstant) {
  (void)coordinator_->AheadOfTimeEvict(1.0);
  const int64_t after_first = cache_.counters().swapped_out_chunks;

  // Discard the surviving CPU copy behind the coordinator's back: available
  // drops from 1 to 0, which must defeat the guard and trigger a rescan.
  for (const auto& [id, state] : cache_.conversations()) {
    if (state.num_chunks() > 0 &&
        state.chunk(0).location == ChunkLocation::kGpuAndCpu) {
      ASSERT_TRUE(cache_.DropCpuCopy(id, 0).ok());
      break;
    }
  }
  ASSERT_EQ(cache_.AvailableGpuBlocks(), 0);
  const CacheCoordinator::EvictOutcome retry = coordinator_->AheadOfTimeEvict(1.0);
  EXPECT_GT(cache_.counters().swapped_out_chunks, after_first);
  EXPECT_GT(retry.swapped_out_tokens, 0);
}

TEST_F(AotRetryGuardTest, TimeAdvanceRetries) {
  (void)coordinator_->AheadOfTimeEvict(1.0);
  const int64_t after_first = cache_.counters().swapped_out_chunks;
  // Forget the conversation holding the CPU copy: its reclaimable GPU block
  // becomes a free one, so availability is unchanged, but the CPU block is
  // free again and a pass could make progress.
  const int64_t available = cache_.AvailableGpuBlocks();
  for (const auto& [id, state] : cache_.conversations()) {
    if (state.chunk(0).location == ChunkLocation::kGpuAndCpu) {
      cache_.Release(id);
      break;
    }
  }
  ASSERT_EQ(cache_.AvailableGpuBlocks(), available);
  ASSERT_EQ(cache_.cpu_allocator().num_free(), 1);
  (void)coordinator_->AheadOfTimeEvict(1.0);
  ASSERT_EQ(cache_.counters().swapped_out_chunks, after_first);

  // Virtual time moved on: the guard no longer applies.
  (void)coordinator_->AheadOfTimeEvict(2.0);
  EXPECT_GT(cache_.counters().swapped_out_chunks, after_first);
}

TEST_F(AotRetryGuardTest, ReachingTargetClearsGuard) {
  (void)coordinator_->AheadOfTimeEvict(1.0);
  const int64_t after_first = cache_.counters().swapped_out_chunks;

  // Free two whole conversations; the target is now met, so the next pass
  // is a no-op success rather than a guarded failure.
  cache_.Release(1);
  cache_.Release(2);
  ASSERT_GE(cache_.AvailableGpuBlocks(), 2);
  const CacheCoordinator::EvictOutcome pass = coordinator_->AheadOfTimeEvict(1.0);
  EXPECT_EQ(pass.swapped_out_tokens, 0);
  EXPECT_EQ(cache_.counters().swapped_out_chunks, after_first);
  cache_.CheckInvariants();
}

TEST(CacheCoordinatorTest, PinnedConversationsAreNeverVictims) {
  TwoTierKvCache cache(TinyConfig());
  LruPolicy policy;
  CacheCoordinator::Options options;
  options.swap_out_target = 0.5;
  CacheCoordinator coordinator(&cache, &policy, options);
  for (int64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(cache.AppendTokenSlots(id, 4, nullptr).ok());
    cache.GetOrCreate(id).Pin();
  }
  const CacheCoordinator::EvictOutcome outcome = coordinator.AheadOfTimeEvict(1.0);
  EXPECT_EQ(outcome.swapped_out_tokens, 0);
  EXPECT_EQ(outcome.dropped_tokens, 0);
  EXPECT_EQ(cache.counters().swapped_out_chunks, 0);
}

}  // namespace
}  // namespace pensieve
