// Tests for the flash (simulated SSD) tier: the append-only segment log and
// its GC, insertion-order retention with pinned victims, the FlashTier facade,
// the TwoTierKvCache demote/promote mechanisms with checksum-based
// corruption degradation, the coordinator's CPU-pressure spill path, and
// engine-level determinism across thread counts with the tier enabled.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/experiment.h"
#include "src/eviction/policy.h"
#include "src/kvcache/flash/flash_tier.h"
#include "src/kvcache/flash/segment_log.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/model/model_config.h"
#include "src/scheduler/cache_coordinator.h"
#include "src/serving/driver.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

const SegmentLog::RelocateFn kNoRelocate =
    [](uint64_t, FlashBlockId, FlashBlockId) {};

// --- SegmentLog --------------------------------------------------------------

TEST(SegmentLogTest, AppendTracksLiveness) {
  SegmentLog log({/*segment_blocks=*/2, /*num_segments=*/3});
  EXPECT_EQ(log.capacity_blocks(), 6);
  EXPECT_EQ(log.free_segments(), 3);
  for (uint64_t key = 1; key <= 3; ++key) {
    std::optional<FlashBlockId> b = log.Append(key, kNoRelocate);
    ASSERT_TRUE(b.has_value());
    EXPECT_TRUE(log.IsLive(*b));
    EXPECT_EQ(log.KeyAt(*b), key);
  }
  EXPECT_EQ(log.live_blocks(), 3);
  EXPECT_EQ(log.stats().user_appends, 3);
  EXPECT_DOUBLE_EQ(log.stats().WriteAmplification(), 1.0);
  // Segment 0 sealed (full), segment 1 open, segment 2 still free.
  EXPECT_EQ(log.free_segments(), 1);
}

TEST(SegmentLogTest, GcZeroLiveSegmentErasesWithoutMoves) {
  SegmentLog log({/*segment_blocks=*/2, /*num_segments=*/3});
  // Fill segment 0 (blocks 0,1) and seal it by spilling into segment 1.
  ASSERT_TRUE(log.Append(1, kNoRelocate).has_value());
  ASSERT_TRUE(log.Append(2, kNoRelocate).has_value());
  ASSERT_TRUE(log.Append(3, kNoRelocate).has_value());
  log.MarkDead(0);
  log.MarkDead(1);

  EXPECT_TRUE(log.GcOnce(kNoRelocate));
  EXPECT_EQ(log.stats().gc_runs, 1);
  EXPECT_EQ(log.stats().zero_live_erases, 1);
  EXPECT_EQ(log.stats().gc_moves, 0);  // nothing live to relocate
  EXPECT_EQ(log.live_blocks(), 1);
  EXPECT_EQ(log.free_segments(), 2);  // segment 0 reclaimed, segment 2 untouched
  EXPECT_DOUBLE_EQ(log.stats().WriteAmplification(), 1.0);
}

TEST(SegmentLogTest, GcUnderFullLogPressure) {
  // Two segments of four blocks, all eight live: even GC cannot make room,
  // so Append must refuse rather than corrupt the log.
  SegmentLog log({/*segment_blocks=*/4, /*num_segments=*/2});
  for (uint64_t key = 1; key <= 8; ++key) {
    ASSERT_TRUE(log.Append(key, kNoRelocate).has_value());
  }
  EXPECT_DOUBLE_EQ(log.Utilization(), 1.0);
  EXPECT_FALSE(log.Append(9, kNoRelocate).has_value());
  EXPECT_FALSE(log.GcOnce(kNoRelocate));  // best victim is fully live

  // Free two blocks in the sealed segment; the next append must reclaim it,
  // relocating the two surviving keys in slot order.
  log.MarkDead(0);  // key 1
  log.MarkDead(1);  // key 2
  std::vector<std::vector<uint64_t>> moves;
  const SegmentLog::RelocateFn record = [&moves](uint64_t key, FlashBlockId from,
                                                 FlashBlockId to) {
    moves.push_back({key, static_cast<uint64_t>(from), static_cast<uint64_t>(to)});
  };
  std::optional<FlashBlockId> b = log.Append(9, record);
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(moves.size(), 2u);
  // Keys 3 and 4 (blocks 2 and 3 of the erased segment) moved to the head
  // of the freshly reopened segment, preserving slot order.
  EXPECT_EQ(moves[0], (std::vector<uint64_t>{3, 2, 0}));
  EXPECT_EQ(moves[1], (std::vector<uint64_t>{4, 3, 1}));
  EXPECT_EQ(log.KeyAt(0), 3u);
  EXPECT_EQ(log.KeyAt(1), 4u);
  EXPECT_EQ(log.KeyAt(*b), 9u);
  EXPECT_EQ(log.stats().gc_moves, 2);
  EXPECT_EQ(log.stats().gc_runs, 1);
  EXPECT_EQ(log.stats().zero_live_erases, 0);
  EXPECT_EQ(log.live_blocks(), 7);
  // Write amplification: 9 user appends + 2 GC relocations.
  EXPECT_DOUBLE_EQ(log.stats().WriteAmplification(), 11.0 / 9.0);
}

// --- Retention ---------------------------------------------------------------

FlashTier SmallTier(int64_t capacity_blocks) {
  FlashTierConfig config;
  config.capacity_blocks = capacity_blocks;
  config.segment_blocks = 2;
  return FlashTier(config);
}

// Inserts `key` with every resident entry evictable, returning the victims.
std::vector<uint64_t> InsertAll(FlashTier* tier, uint64_t key) {
  std::vector<uint64_t> evicted;
  EXPECT_TRUE(tier->Insert(key, [](uint64_t) { return true; }, &evicted));
  return evicted;
}

TEST(FlashRetentionTest, EvictsInInsertionOrder) {
  FlashTier tier = SmallTier(2);
  InsertAll(&tier, 1);
  InsertAll(&tier, 2);
  EXPECT_EQ(InsertAll(&tier, 3), (std::vector<uint64_t>{1}));
  EXPECT_EQ(InsertAll(&tier, 4), (std::vector<uint64_t>{2}));
  // A key that leaves (promotion) and comes back is young again.
  tier.Erase(3);
  InsertAll(&tier, 3);
  EXPECT_EQ(InsertAll(&tier, 5), (std::vector<uint64_t>{4}));
  EXPECT_TRUE(tier.Contains(3));
  EXPECT_EQ(tier.resident_keys(), 2);
}

TEST(FlashRetentionTest, PinnedVictimIsSkipped) {
  FlashTier tier = SmallTier(2);
  InsertAll(&tier, 1);
  InsertAll(&tier, 2);
  std::vector<uint64_t> evicted;
  ASSERT_TRUE(tier.Insert(3, [](uint64_t k) { return k != 1; }, &evicted));
  EXPECT_EQ(evicted, (std::vector<uint64_t>{2}));
  EXPECT_TRUE(tier.Contains(1));
  EXPECT_TRUE(tier.Contains(3));
}

TEST(FlashRetentionTest, AdmitFailsWhenEveryVictimIsPinned) {
  FlashTier tier = SmallTier(1);
  InsertAll(&tier, 1);
  std::vector<uint64_t> evicted;
  EXPECT_FALSE(tier.Insert(2, [](uint64_t) { return false; }, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_TRUE(tier.Contains(1));
  EXPECT_FALSE(tier.Contains(2));
  EXPECT_EQ(tier.live_blocks(), 1);
}

// --- FlashTier facade --------------------------------------------------------

TEST(FlashTierTest, KeyPackingRoundTrips) {
  const uint64_t key = FlashTier::MakeKey(/*conversation_id=*/1234567,
                                          /*chunk_index=*/789);
  EXPECT_EQ(FlashTier::KeyConversation(key), 1234567);
  EXPECT_EQ(FlashTier::KeyChunk(key), 789);
}

// A zero segment size is a configuration error, reported as a failed check
// before the capacity is divided into segments (not as a SIGFPE).
TEST(FlashTierTest, ZeroSegmentBlocksFailsCheck) {
  FlashTierConfig config;
  config.capacity_blocks = 8;
  config.segment_blocks = 0;
  EXPECT_DEATH(FlashTier tier(config), "Check failed: config.segment_blocks > 0");
}

TEST(FlashTierTest, BlockIndexStaysConsistentAcrossGcChurn) {
  FlashTierConfig config;
  config.capacity_blocks = 8;
  config.segment_blocks = 4;
  FlashTier tier(config);
  const auto evictable = [](uint64_t) { return true; };

  // Insert/erase churn well past the physical log capacity: odd keys die
  // right away while even keys linger, so GC victims hold a mix of live and
  // dead blocks and every collection relocates survivors. The key -> block
  // index must track each move.
  std::set<uint64_t> resident;
  for (uint64_t key = 1; key <= 40; ++key) {
    std::vector<uint64_t> evicted;
    ASSERT_TRUE(tier.Insert(key, evictable, &evicted));
    resident.insert(key);
    for (uint64_t victim : evicted) {
      resident.erase(victim);
    }
    if (key % 2 == 0) {
      tier.Erase(key - 1);
      resident.erase(key - 1);
    }
    for (uint64_t live : resident) {
      ASSERT_TRUE(tier.Contains(live)) << "key " << live << " after " << key;
      const FlashBlockId b = tier.BlockOf(live);
      ASSERT_NE(b, kInvalidFlashBlock);
      ASSERT_TRUE(tier.log().IsLive(b));
      ASSERT_EQ(tier.log().KeyAt(b), live);
    }
    ASSERT_EQ(tier.resident_keys(), static_cast<int64_t>(resident.size()));
    ASSERT_EQ(tier.live_blocks(), static_cast<int64_t>(resident.size()));
  }
  EXPECT_GT(tier.log().stats().gc_runs, 0);
  EXPECT_GT(tier.log().stats().gc_moves, 0);
  EXPECT_GE(tier.log().stats().WriteAmplification(), 1.0);
  EXPECT_LE(tier.log().Utilization(), 1.0);
  EXPECT_EQ(tier.BlockOf(12345), kInvalidFlashBlock);
}

TEST(FlashTierTest, InsertEvictsAndKillsVictimBlock) {
  FlashTierConfig config;
  config.capacity_blocks = 2;
  config.segment_blocks = 2;
  FlashTier tier(config);
  const auto evictable = [](uint64_t) { return true; };
  std::vector<uint64_t> evicted;
  ASSERT_TRUE(tier.Insert(1, evictable, &evicted));
  ASSERT_TRUE(tier.Insert(2, evictable, &evicted));
  const FlashBlockId victim_block = tier.BlockOf(1);
  ASSERT_TRUE(tier.Insert(3, evictable, &evicted));
  EXPECT_EQ(evicted, (std::vector<uint64_t>{1}));
  EXPECT_FALSE(tier.Contains(1));
  EXPECT_FALSE(tier.log().IsLive(victim_block));
  EXPECT_EQ(tier.live_blocks(), 2);
}

// --- TwoTierKvCache demote / promote ----------------------------------------

KvCacheConfig NumericFlashConfig() {
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = 4;
  config.num_cpu_blocks = 4;
  config.num_ssd_blocks = 8;
  config.numeric = true;
  config.num_layers = 1;
  config.num_kv_heads = 2;
  config.head_dim = 2;
  return config;
}

// Moves chunk `i` of conversation `id` to the CPU tier.
void MoveToCpu(TwoTierKvCache* cache, ConversationId id, int64_t i) {
  ASSERT_TRUE(cache->SwapOut(id, i).ok());
  ASSERT_TRUE(cache->ReclaimGpu(id, i).ok());
}

TEST(FlashCacheTest, NumericDemotePromoteRoundTripPreservesBytes) {
  TwoTierKvCache cache(NumericFlashConfig());
  std::vector<ContextState::SlotRef> slots;
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, &slots).ok());
  // Distinct bytes per token so any misrouted copy is visible.
  for (int64_t t = 0; t < 8; ++t) {
    std::vector<float> k(4, 1.0f + static_cast<float>(t));
    std::vector<float> v(4, -1.0f - static_cast<float>(t));
    cache.gpu_pool()->WriteToken(slots[static_cast<size_t>(t)].block, 0,
                                 slots[static_cast<size_t>(t)].slot, k.data(),
                                 v.data());
  }
  MoveToCpu(&cache, 1, 0);
  ASSERT_TRUE(cache.DemoteToFlash(1, 0).ok());
  EXPECT_TRUE(cache.Find(1)->chunk(0).OnSsd());
  EXPECT_EQ(cache.counters().demoted_to_flash_chunks, 1);
  EXPECT_TRUE(cache.VerifySsdChecksum(1, 0).ok());
  cache.CheckInvariants();

  ASSERT_TRUE(cache.PromoteFromFlash(1, 0).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kCpu);
  EXPECT_EQ(cache.counters().promoted_from_flash_chunks, 1);
  ASSERT_TRUE(cache.SwapIn(1, 0).ok());
  const BlockId gpu_block = cache.Find(1)->chunk(0).gpu_block;
  for (int64_t t = 0; t < 4; ++t) {
    EXPECT_FLOAT_EQ(cache.gpu_pool()->TokenData(gpu_block, 0, 0, t)[0],
                    1.0f + static_cast<float>(t));
    EXPECT_FLOAT_EQ(cache.gpu_pool()->TokenData(gpu_block, 0, 1, t)[3],
                    -1.0f - static_cast<float>(t));
  }
  cache.CheckInvariants();
}

TEST(FlashCacheTest, SsdCorruptionDegradesToRecompute) {
  TwoTierKvCache cache(NumericFlashConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  MoveToCpu(&cache, 1, 0);
  ASSERT_TRUE(cache.DemoteToFlash(1, 0).ok());
  ASSERT_TRUE(cache.MarkSsdCorrupt(1, 0).ok());

  EXPECT_EQ(cache.VerifySsdChecksum(1, 0).code(), StatusCode::kDataLoss);
  // A corrupted flash copy must never flow back toward the GPU: the promote
  // fails and leaves the chunk where it was.
  EXPECT_EQ(cache.PromoteFromFlash(1, 0).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(cache.Find(1)->chunk(0).OnSsd());
  EXPECT_GT(cache.counters().checksum_failures, 0);

  // The degradation path: drop the poisoned chunk and restore it as a
  // recompute target.
  ASSERT_TRUE(cache.DropChunk(1, 0).ok());
  ASSERT_TRUE(cache.RestoreDropped(1, 0).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kGpu);
  cache.CheckInvariants();
}

TEST(FlashCacheTest, DemoteRequiresContiguousFlashPrefix) {
  TwoTierKvCache cache(NumericFlashConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  MoveToCpu(&cache, 1, 0);
  MoveToCpu(&cache, 1, 1);
  // Demoting chunk 1 while chunk 0 still holds a CPU copy would break the
  // [dropped][ssd][cpu/gpu] layout that prefix drops rely on.
  EXPECT_EQ(cache.DemoteToFlash(1, 1).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cache.DemoteToFlash(1, 0).ok());
  EXPECT_TRUE(cache.DemoteToFlash(1, 1).ok());
  EXPECT_EQ(cache.Find(1)->SsdChunks().size(), 2u);
  cache.CheckInvariants();
}

TEST(FlashCacheTest, FlashEvictionDropsVictimAsPrefix) {
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = 8;
  config.num_cpu_blocks = 8;
  config.num_ssd_blocks = 2;  // room for exactly two chunks
  TwoTierKvCache cache(config);
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  ASSERT_TRUE(cache.AppendTokenSlots(2, 4, nullptr).ok());
  MoveToCpu(&cache, 1, 0);
  MoveToCpu(&cache, 1, 1);
  MoveToCpu(&cache, 2, 0);
  ASSERT_TRUE(cache.DemoteToFlash(1, 0).ok());
  ASSERT_TRUE(cache.DemoteToFlash(1, 1).ok());

  // The third demotion overflows the tier; LRU evicts conversation 1's
  // oldest flash chunk, which comes back as a dropped prefix.
  ASSERT_TRUE(cache.DemoteToFlash(2, 0).ok());
  EXPECT_TRUE(cache.Find(2)->chunk(0).OnSsd());
  EXPECT_EQ(cache.counters().flash_evicted_chunks, 1);
  EXPECT_EQ(cache.counters().flash_evicted_tokens, 4);
  EXPECT_TRUE(cache.Find(1)->chunk(0).Dropped());
  EXPECT_TRUE(cache.Find(1)->chunk(1).OnSsd());
  cache.CheckInvariants();
}

// --- Coordinator spill -------------------------------------------------------

TEST(CoordinatorSpillTest, CpuPressureDemotesInsteadOfDropping) {
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = 8;
  config.num_cpu_blocks = 2;
  config.num_ssd_blocks = 8;
  TwoTierKvCache cache(config);
  LruPolicy policy;
  CacheCoordinator coordinator(&cache, &policy, CacheCoordinator::Options{});

  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  MoveToCpu(&cache, 1, 0);
  MoveToCpu(&cache, 1, 1);
  ASSERT_EQ(cache.cpu_allocator().num_free(), 0);

  EXPECT_TRUE(coordinator.EnsureFreeCpuBlocks(1, /*now=*/1.0));
  EXPECT_GE(cache.cpu_allocator().num_free(), 1);
  // The victim went to flash, not to the floor.
  EXPECT_EQ(cache.counters().demoted_to_flash_chunks, 1);
  EXPECT_EQ(cache.counters().dropped_chunks, 0);
  EXPECT_TRUE(cache.Find(1)->chunk(0).OnSsd());

  CacheCoordinator::SpillOutcome spill = coordinator.TakeSpill();
  EXPECT_EQ(spill.demoted_tokens, 4);
  ASSERT_EQ(spill.demoted.size(), 1u);
  EXPECT_EQ(spill.demoted[0].first, 1);
  EXPECT_EQ(spill.demoted[0].second, 0);
  // TakeSpill drains: a second call reports nothing.
  EXPECT_EQ(coordinator.TakeSpill().demoted_tokens, 0);
  cache.CheckInvariants();
}

// --- Engine-level determinism and accounting --------------------------------

class FlashEngineTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetGlobalThreads(0); }

  static WorkloadTrace SmallTrace() {
    TraceOptions options;
    options.num_conversations = 16;
    options.conversation_rate = 1.0;
    options.mean_think_time = 10.0;
    options.seed = 11;
    return WorkloadTrace(ShareGptProfile(), options);
  }

  // Small caches so the trace spills through all three tiers: the GPU still
  // fits the longest conversation (otherwise the trace is unserveable and
  // the driver aborts) but the CPU tier is far below the working set.
  static EngineOverrides FlashOverrides() {
    EngineOverrides overrides;
    overrides.cache_scale = 0.1;
    overrides.cpu_cache_scale = 0.02;
    overrides.ssd_capacity_gb = 8.0;
    return overrides;
  }

  static ServingSummary Run(const EngineOverrides& overrides) {
    const GpuCostModel cost_model(Opt13BConfig(), A100Spec(1));
    std::unique_ptr<Engine> engine =
        MakeEngine(SystemKind::kPensieve, cost_model, overrides);
    return RunServingExperiment(engine.get(), SmallTrace());
  }

  // Byte-exact digest of everything the serving layer reports.
  static std::string Fingerprint(const ServingSummary& s) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "c=%lld gen=%lld p99=%.17g mean=%.17g mk=%.17g aot=%lld forced=%lld "
        "dropped=%lld rec=%lld dem=%lld prom=%lld ev=%lld hits=%lld "
        "wa=%.17g gc=%lld",
        static_cast<long long>(s.completed_requests),
        static_cast<long long>(s.engine_stats.generated_tokens),
        s.p99_normalized_latency, s.mean_normalized_latency, s.makespan,
        static_cast<long long>(s.engine_stats.aot_swap_out_tokens),
        static_cast<long long>(s.engine_stats.forced_swap_out_tokens),
        static_cast<long long>(s.engine_stats.dropped_tokens),
        static_cast<long long>(s.engine_stats.recomputed_history_tokens),
        static_cast<long long>(s.engine_stats.ssd_demoted_chunks),
        static_cast<long long>(s.engine_stats.ssd_promoted_chunks),
        static_cast<long long>(s.engine_stats.ssd_evicted_chunks),
        static_cast<long long>(s.engine_stats.reused_ssd_tokens),
        s.engine_stats.SsdWriteAmplification(),
        static_cast<long long>(s.engine_stats.ssd_gc_moves));
    return buf;
  }
};

TEST_F(FlashEngineTest, BitIdenticalAcrossThreadCountsWithFlashEnabled) {
  ThreadPool::SetGlobalThreads(1);
  const ServingSummary at1 = Run(FlashOverrides());
  // The run must actually exercise the tier, or the determinism claim is
  // vacuous.
  ASSERT_GT(at1.engine_stats.ssd_demoted_chunks, 0);
  ThreadPool::SetGlobalThreads(8);
  const ServingSummary at8 = Run(FlashOverrides());
  EXPECT_EQ(Fingerprint(at1), Fingerprint(at8));
}

TEST_F(FlashEngineTest, FlashAccountingStaysBalanced) {
  const ServingSummary s = Run(FlashOverrides());
  const EngineStats& st = s.engine_stats;
  // Every chunk that left the tier was either promoted back, evicted by
  // retention, or is still resident; nothing double-counts.
  EXPECT_GE(st.ssd_demoted_chunks,
            st.ssd_promoted_chunks + st.ssd_evicted_chunks);
  EXPECT_GE(st.SsdWriteAmplification(), 1.0);
  EXPECT_GE(st.reused_ssd_tokens, 0);
  EXPECT_EQ(st.ssd_demoted_chunks, st.ssd_user_blocks_written);
}

TEST_F(FlashEngineTest, SsdCapacityZeroDisablesTheTierEntirely) {
  EngineOverrides overrides = FlashOverrides();
  overrides.ssd_capacity_gb = 0.0;
  const ServingSummary s = Run(overrides);
  EXPECT_EQ(s.engine_stats.ssd_demoted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_promoted_chunks, 0);
  EXPECT_EQ(s.engine_stats.ssd_evicted_chunks, 0);
  EXPECT_EQ(s.engine_stats.reused_ssd_tokens, 0);
}

}  // namespace
}  // namespace pensieve
