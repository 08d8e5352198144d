// Unit tests for the paged two-tier KV cache (src/kvcache).

#include <gtest/gtest.h>

#include "src/kvcache/block_allocator.h"
#include "src/kvcache/context_state.h"
#include "src/kvcache/kv_pool.h"
#include "src/kvcache/two_tier_cache.h"

namespace pensieve {
namespace {

// --- BlockAllocator ----------------------------------------------------------

TEST(BlockAllocatorTest, AllocateUntilExhausted) {
  BlockAllocator alloc(3);
  EXPECT_EQ(alloc.capacity(), 3);
  EXPECT_EQ(alloc.num_free(), 3);
  EXPECT_TRUE(alloc.Allocate().has_value());
  EXPECT_TRUE(alloc.Allocate().has_value());
  EXPECT_TRUE(alloc.Allocate().has_value());
  EXPECT_EQ(alloc.num_free(), 0);
  EXPECT_FALSE(alloc.Allocate().has_value());
}

TEST(BlockAllocatorTest, FreeMakesBlockReusable) {
  BlockAllocator alloc(1);
  BlockId b = *alloc.Allocate();
  EXPECT_FALSE(alloc.Allocate().has_value());
  alloc.Free(b);
  EXPECT_EQ(alloc.num_free(), 1);
  EXPECT_EQ(*alloc.Allocate(), b);
}

TEST(BlockAllocatorTest, UniqueBlockIds) {
  BlockAllocator alloc(64);
  std::vector<bool> seen(64, false);
  for (int i = 0; i < 64; ++i) {
    BlockId b = *alloc.Allocate();
    EXPECT_GE(b, 0);
    EXPECT_LT(b, 64);
    EXPECT_FALSE(seen[static_cast<size_t>(b)]);
    seen[static_cast<size_t>(b)] = true;
  }
}

TEST(BlockAllocatorTest, TracksAllocationState) {
  BlockAllocator alloc(4);
  BlockId b = *alloc.Allocate();
  EXPECT_TRUE(alloc.IsAllocated(b));
  alloc.Free(b);
  EXPECT_FALSE(alloc.IsAllocated(b));
  EXPECT_DOUBLE_EQ(alloc.FreeFraction(), 1.0);
}

TEST(BlockAllocatorDeathTest, DoubleFreeAborts) {
  BlockAllocator alloc(2);
  BlockId b = *alloc.Allocate();
  alloc.Free(b);
  EXPECT_DEATH(alloc.Free(b), "double free");
}

TEST(BlockAllocatorTest, ShareAddsReferencesAndFreeDropsThem) {
  BlockAllocator alloc(2);
  BlockId b = *alloc.Allocate();
  EXPECT_EQ(alloc.refcount(b), 1);
  alloc.Share(b);
  alloc.Share(b);
  EXPECT_EQ(alloc.refcount(b), 3);
  EXPECT_EQ(alloc.num_shared(), 1);
  // Intermediate frees return nothing to the free list.
  EXPECT_FALSE(alloc.Free(b));
  EXPECT_FALSE(alloc.Free(b));
  EXPECT_TRUE(alloc.IsAllocated(b));
  EXPECT_EQ(alloc.num_shared(), 0);
  // The last reference actually frees the block.
  EXPECT_TRUE(alloc.Free(b));
  EXPECT_FALSE(alloc.IsAllocated(b));
  EXPECT_EQ(alloc.num_free(), 2);
  // Ledger: 3 acquires (1 allocate + 2 shares) balanced by 3 releases.
  EXPECT_EQ(alloc.total_acquires(), 3);
  EXPECT_EQ(alloc.total_releases(), 3);
  EXPECT_EQ(alloc.live_refs(), 0);
  alloc.CheckAllFree();
}

TEST(BlockAllocatorTest, PeakAllocatedIsAHighWaterMark) {
  BlockAllocator alloc(4);
  BlockId a = *alloc.Allocate();
  BlockId b = *alloc.Allocate();
  alloc.Free(a);
  alloc.Free(b);
  *alloc.Allocate();
  EXPECT_EQ(alloc.peak_allocated(), 2);
}

TEST(BlockAllocatorDeathTest, CheckAllFreeDiesOnOutstandingBlock) {
  BlockAllocator alloc(2);
  *alloc.Allocate();
  EXPECT_DEATH(alloc.CheckAllFree(), "block leak");
}

TEST(BlockAllocatorDeathTest, ShareOfFreeBlockAborts) {
  BlockAllocator alloc(2);
  BlockId b = *alloc.Allocate();
  alloc.Free(b);
  EXPECT_DEATH(alloc.Share(b), "share of unallocated");
}

// --- KvPool -------------------------------------------------------------------

TEST(KvPoolTest, WriteAndReadBack) {
  KvPool pool(/*num_blocks=*/4, /*block_size=*/8, /*num_layers=*/2,
              /*num_kv_heads=*/2, /*head_dim=*/4);
  std::vector<float> k(8, 1.5f);
  std::vector<float> v(8, -2.5f);
  pool.WriteToken(/*block=*/3, /*layer=*/1, /*slot=*/5, k.data(), v.data());
  const float* k_read = pool.TokenData(3, 1, 0, 5);
  const float* v_read = pool.TokenData(3, 1, 1, 5);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(k_read[i], 1.5f);
    EXPECT_FLOAT_EQ(v_read[i], -2.5f);
  }
  // Neighboring slots untouched.
  EXPECT_FLOAT_EQ(pool.TokenData(3, 1, 0, 4)[0], 0.0f);
  EXPECT_FLOAT_EQ(pool.TokenData(3, 0, 0, 5)[0], 0.0f);
}

TEST(KvPoolTest, CopyBlockAcrossPools) {
  KvPool gpu(2, 4, 1, 1, 2);
  KvPool cpu(3, 4, 1, 1, 2);
  std::vector<float> k = {1, 2};
  std::vector<float> v = {3, 4};
  gpu.WriteToken(1, 0, 2, k.data(), v.data());
  KvPool::CopyBlock(gpu, 1, cpu, 0);
  EXPECT_FLOAT_EQ(cpu.TokenData(0, 0, 0, 2)[1], 2.0f);
  EXPECT_FLOAT_EQ(cpu.TokenData(0, 0, 1, 2)[0], 3.0f);
}

// --- ContextState ------------------------------------------------------------

TEST(ContextStateTest, AppendWithinOneChunk) {
  ContextState state(8);
  std::vector<ContextState::SlotRef> slots;
  EXPECT_EQ(state.NumNewChunksForAppend(5), 1);
  state.AppendTokens(5, {BlockId{7}}, &slots);
  EXPECT_EQ(state.kv_len(), 5);
  EXPECT_EQ(state.num_chunks(), 1);
  EXPECT_EQ(state.chunk(0).gpu_block, 7);
  EXPECT_EQ(state.chunk(0).num_tokens, 5);
  ASSERT_EQ(slots.size(), 5u);
  EXPECT_EQ(slots[0].slot, 0);
  EXPECT_EQ(slots[4].slot, 4);
}

TEST(ContextStateTest, AppendSpansChunks) {
  ContextState state(4);
  state.AppendTokens(3, {BlockId{0}}, nullptr);
  EXPECT_EQ(state.NumNewChunksForAppend(6), 2);  // 1 fits, 5 overflow -> 2 chunks
  std::vector<ContextState::SlotRef> slots;
  state.AppendTokens(6, {BlockId{1}, BlockId{2}}, &slots);
  EXPECT_EQ(state.kv_len(), 9);
  EXPECT_EQ(state.num_chunks(), 3);
  EXPECT_EQ(state.chunk(2).num_tokens, 1);
  // First appended token fills slot 3 of the original chunk.
  EXPECT_EQ(slots[0].block, 0);
  EXPECT_EQ(slots[0].slot, 3);
  EXPECT_EQ(slots[1].block, 1);
  EXPECT_EQ(slots[1].slot, 0);
}

TEST(ContextStateTest, ChunkContextLen) {
  ContextState state(4);
  state.AppendTokens(10, {0, 1, 2}, nullptr);
  EXPECT_EQ(state.ChunkContextLen(0), 4);
  EXPECT_EQ(state.ChunkContextLen(1), 8);
  EXPECT_EQ(state.ChunkContextLen(2), 10);
}

TEST(ContextStateTest, ResidencyCounters) {
  ContextState state(4);
  state.AppendTokens(12, {0, 1, 2}, nullptr);
  state.SetLocation(0, ChunkLocation::kDropped);
  state.mutable_chunk(0).gpu_block = kInvalidBlock;
  state.SetLocation(1, ChunkLocation::kCpu);
  state.mutable_chunk(1).cpu_block = 5;
  state.mutable_chunk(1).gpu_block = kInvalidBlock;
  EXPECT_EQ(state.TokensDropped(), 4);
  EXPECT_EQ(state.TokensCpuOnly(), 4);
  EXPECT_EQ(state.TokensOnGpu(), 4);
  EXPECT_EQ(state.LeadingDroppedTokens(), 4);
  EXPECT_EQ(state.LeadingDroppedChunks(), 1);
  EXPECT_LT(state.TokensOnGpu(), state.kv_len());
  EXPECT_EQ(state.CpuOnlyChunks(), std::vector<int64_t>{1});
}

TEST(ContextStateTest, PinCounting) {
  ContextState state(4);
  EXPECT_FALSE(state.pinned());
  state.Pin();
  state.Pin();
  state.Unpin();
  EXPECT_TRUE(state.pinned());
  state.Unpin();
  EXPECT_FALSE(state.pinned());
}

// --- TwoTierKvCache ----------------------------------------------------------

KvCacheConfig SmallConfig(int64_t gpu_blocks = 8, int64_t cpu_blocks = 8) {
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = gpu_blocks;
  config.num_cpu_blocks = cpu_blocks;
  return config;
}

TEST(TwoTierCacheTest, AppendAllocatesGpuBlocks) {
  TwoTierKvCache cache(SmallConfig());
  std::vector<ContextState::SlotRef> slots;
  ASSERT_TRUE(cache.AppendTokenSlots(1, 10, &slots).ok());
  EXPECT_EQ(cache.gpu_allocator().num_allocated(), 3);
  EXPECT_EQ(cache.Find(1)->kv_len(), 10);
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, AppendFailsWhenGpuExhausted) {
  TwoTierKvCache cache(SmallConfig(/*gpu_blocks=*/2));
  EXPECT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  Status s = cache.AppendTokenSlots(2, 1, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // Failed append must not leak partial state.
  EXPECT_EQ(cache.Find(2)->kv_len(), 0);
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, SwapOutReclaimSwapInCycle) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kGpuAndCpu);
  EXPECT_EQ(cache.ReclaimableGpuBlocks(), 1);
  ASSERT_TRUE(cache.ReclaimGpu(1, 0).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kCpu);
  EXPECT_EQ(cache.gpu_allocator().num_allocated(), 0);
  ASSERT_TRUE(cache.SwapIn(1, 0).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kGpuAndCpu);
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, SwapOutRequiresGpuOnlyChunk) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  EXPECT_EQ(cache.SwapOut(1, 0).code(), StatusCode::kFailedPrecondition);
}

TEST(TwoTierCacheTest, SwapOutFailsWhenCpuFull) {
  TwoTierKvCache cache(SmallConfig(/*gpu_blocks=*/8, /*cpu_blocks=*/1));
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  EXPECT_EQ(cache.SwapOut(1, 1).code(), StatusCode::kResourceExhausted);
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, DropCpuCopyRevertsToGpu) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.DropCpuCopy(1, 0).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kGpu);
  EXPECT_EQ(cache.cpu_allocator().num_allocated(), 0);
  EXPECT_EQ(cache.ReclaimableGpuBlocks(), 0);
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, DropChunkEnforcesPrefixInvariant) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 12, nullptr).ok());
  // Dropping a middle chunk before the first is illegal.
  EXPECT_EQ(cache.DropChunk(1, 1).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cache.DropChunk(1, 0).ok());
  ASSERT_TRUE(cache.DropChunk(1, 1).ok());
  EXPECT_EQ(cache.Find(1)->LeadingDroppedTokens(), 8);
  EXPECT_EQ(cache.gpu_allocator().num_allocated(), 1);
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, DropChunkTwiceFails) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  ASSERT_TRUE(cache.DropChunk(1, 0).ok());
  EXPECT_EQ(cache.DropChunk(1, 0).code(), StatusCode::kFailedPrecondition);
}

TEST(TwoTierCacheTest, RestoreDroppedAllocatesFreshBlock) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  ASSERT_TRUE(cache.DropChunk(1, 0).ok());
  ASSERT_TRUE(cache.RestoreDropped(1, 0).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kGpu);
  EXPECT_EQ(cache.Find(1)->chunk(0).num_tokens, 4);  // token count preserved
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, AppendIntoTailWithStaleCpuCopyInvalidatesIt) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 2, nullptr).ok());  // partial tail
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 1, nullptr).ok());
  EXPECT_EQ(cache.Find(1)->chunk(0).location, ChunkLocation::kGpu);
  EXPECT_EQ(cache.cpu_allocator().num_allocated(), 0);
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, AppendIntoCpuResidentTailFails) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 2, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.ReclaimGpu(1, 0).ok());
  EXPECT_EQ(cache.AppendTokenSlots(1, 1, nullptr).code(),
            StatusCode::kFailedPrecondition);
}

TEST(TwoTierCacheTest, ReleaseFreesEverything) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 12, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.SwapOut(1, 1).ok());
  ASSERT_TRUE(cache.ReclaimGpu(1, 1).ok());
  cache.Release(1);
  EXPECT_EQ(cache.gpu_allocator().num_allocated(), 0);
  EXPECT_EQ(cache.cpu_allocator().num_allocated(), 0);
  EXPECT_EQ(cache.Find(1), nullptr);
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, GpuBlockTableCoversChunksInOrder) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 12, nullptr).ok());
  std::vector<BlockId> table = cache.GpuBlockTable(1);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0], cache.Find(1)->chunk(0).gpu_block);
  EXPECT_EQ(table[2], cache.Find(1)->chunk(2).gpu_block);
}

TEST(TwoTierCacheTest, NumericSwapMovesData) {
  KvCacheConfig config = SmallConfig();
  config.numeric = true;
  config.num_layers = 2;
  config.num_kv_heads = 2;
  config.head_dim = 4;
  TwoTierKvCache cache(config);
  std::vector<ContextState::SlotRef> slots;
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, &slots).ok());
  std::vector<float> k(8, 3.0f);
  std::vector<float> v(8, 4.0f);
  cache.gpu_pool()->WriteToken(slots[2].block, 1, slots[2].slot, k.data(), v.data());

  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.ReclaimGpu(1, 0).ok());
  // Round trip: data must survive GPU -> CPU -> (new) GPU block.
  ASSERT_TRUE(cache.SwapIn(1, 0).ok());
  const BlockId gpu_block = cache.Find(1)->chunk(0).gpu_block;
  EXPECT_FLOAT_EQ(cache.gpu_pool()->TokenData(gpu_block, 1, 0, 2)[0], 3.0f);
  EXPECT_FLOAT_EQ(cache.gpu_pool()->TokenData(gpu_block, 1, 1, 2)[7], 4.0f);
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, CountersTrackOperations) {
  TwoTierKvCache cache(SmallConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  ASSERT_TRUE(cache.ReclaimGpu(1, 0).ok());
  ASSERT_TRUE(cache.SwapIn(1, 0).ok());
  ASSERT_TRUE(cache.DropChunk(1, 0).ok());
  ASSERT_TRUE(cache.RestoreDropped(1, 0).ok());
  const auto& counters = cache.counters();
  EXPECT_EQ(counters.swapped_out_chunks, 1);
  EXPECT_EQ(counters.reclaimed_gpu_blocks, 1);
  EXPECT_EQ(counters.swapped_in_chunks, 1);
  EXPECT_EQ(counters.dropped_chunks, 1);
  EXPECT_EQ(counters.restored_chunks, 1);
}

TEST(TwoTierCacheTest, ShutdownLeakAuditBalancedAfterSharedLifecycle) {
  TwoTierKvCache cache(SmallConfig());
  // Exercise allocate, share, copy-on-write and release, then prove the
  // ledger balances: no outstanding blocks, acquires == releases, and the
  // destructor's VerifyNoLeaks audit passes.
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  std::vector<BlockId> published = cache.GpuBlockTable(1);
  cache.PublishSharedPrefix({11, 22}, published);
  cache.AttachSharedPrefix(2, published, 7);  // partial tail view
  ASSERT_TRUE(cache.AppendTokenSlots(2, 2, nullptr).ok());  // forces CoW
  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  cache.VerifyNoLeaks();
  cache.Release(1);
  cache.Release(2);
  EXPECT_EQ(cache.gpu_allocator().num_allocated(), 0);
  EXPECT_EQ(cache.cpu_allocator().num_allocated(), 0);
  EXPECT_EQ(cache.gpu_allocator().live_refs(), 0);
  EXPECT_EQ(cache.gpu_allocator().total_acquires(),
            cache.gpu_allocator().total_releases());
  cache.gpu_allocator().CheckAllFree();
  cache.cpu_allocator().CheckAllFree();
  cache.VerifyNoLeaks();
  cache.CheckInvariants();
}

TEST(TwoTierCacheTest, MultipleConversationsIsolated) {
  TwoTierKvCache cache(SmallConfig(16, 16));
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  ASSERT_TRUE(cache.AppendTokenSlots(2, 8, nullptr).ok());
  ASSERT_TRUE(cache.DropChunk(1, 0).ok());
  EXPECT_EQ(cache.Find(2)->TokensDropped(), 0);
  EXPECT_EQ(cache.Find(1)->TokensDropped(), 4);
  cache.Release(1);
  EXPECT_EQ(cache.Find(2)->kv_len(), 8);
  cache.CheckInvariants();
}

}  // namespace
}  // namespace pensieve
