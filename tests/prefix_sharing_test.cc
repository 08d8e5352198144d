// Tests for cross-conversation shared-prefix dedup: the content-addressed
// prefix trie, refcounted block sharing with copy-on-write in the two-tier
// cache, and the engine-level template attach / publish path.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/hash.h"
#include "src/kvcache/prefix_trie.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/model/model_config.h"
#include "src/serving/pensieve_engine.h"
#include "src/serving/template_chain.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

// --- PrefixTrie --------------------------------------------------------------

TEST(PrefixTrieTest, PublishAndLookupLongestPrefix) {
  PrefixTrie trie;
  EXPECT_EQ(trie.Publish({11, 22, 33}, {BlockId{0}, BlockId{1}, BlockId{2}}), 3);
  EXPECT_EQ(trie.size(), 3);

  std::vector<BlockId> blocks;
  EXPECT_EQ(trie.Lookup({11, 22, 33}, &blocks), 3);
  EXPECT_EQ(blocks, (std::vector<BlockId>{0, 1, 2}));

  blocks.clear();
  EXPECT_EQ(trie.Lookup({11, 22}, &blocks), 2);
  // A longer chain matches its published prefix.
  blocks.clear();
  EXPECT_EQ(trie.Lookup({11, 22, 33, 44}, &blocks), 3);
  // Divergence at depth 1 stops the walk.
  blocks.clear();
  EXPECT_EQ(trie.Lookup({11, 99, 33}, &blocks), 1);
  EXPECT_EQ(blocks, std::vector<BlockId>{0});
  EXPECT_EQ(trie.Lookup({99}, &blocks), 0);
}

TEST(PrefixTrieTest, FirstPublisherWins) {
  PrefixTrie trie;
  trie.Publish({11, 22}, {BlockId{0}, BlockId{1}});
  // Re-publishing the same chain with different blocks creates no nodes and
  // keeps the original blocks (those are the ones readers already share).
  EXPECT_EQ(trie.Publish({11, 22}, {BlockId{5}, BlockId{6}}), 0);
  std::vector<BlockId> blocks;
  EXPECT_EQ(trie.Lookup({11, 22}, &blocks), 2);
  EXPECT_EQ(blocks, (std::vector<BlockId>{0, 1}));
  // Extending an existing chain only creates the new suffix nodes.
  EXPECT_EQ(trie.Publish({11, 22, 33}, {BlockId{7}, BlockId{8}, BlockId{9}}), 1);
  blocks.clear();
  EXPECT_EQ(trie.Lookup({11, 22, 33}, &blocks), 3);
  EXPECT_EQ(blocks, (std::vector<BlockId>{0, 1, 9}));
}

TEST(PrefixTrieTest, InvalidateSeversWholeSubtree) {
  PrefixTrie trie;
  trie.Publish({11, 22, 33}, {BlockId{0}, BlockId{1}, BlockId{2}});
  trie.Publish({11, 44}, {BlockId{0}, BlockId{3}});
  ASSERT_EQ(trie.size(), 4);
  // Killing the depth-1 node takes its descendant with it but leaves the
  // sibling branch alone.
  EXPECT_EQ(trie.InvalidateBlock(BlockId{1}), 2);
  EXPECT_FALSE(trie.ContainsBlock(BlockId{2}));
  std::vector<BlockId> blocks;
  EXPECT_EQ(trie.Lookup({11, 22, 33}, &blocks), 1);
  blocks.clear();
  EXPECT_EQ(trie.Lookup({11, 44}, &blocks), 2);
  // Invalidating an unreferenced block is a no-op.
  EXPECT_EQ(trie.InvalidateBlock(BlockId{77}), 0);
}

// --- TwoTierKvCache sharing --------------------------------------------------

KvCacheConfig SharedConfig(int64_t gpu_blocks = 8, int64_t cpu_blocks = 8) {
  KvCacheConfig config;
  config.block_size = 4;
  config.num_gpu_blocks = gpu_blocks;
  config.num_cpu_blocks = cpu_blocks;
  return config;
}

TEST(PrefixSharingCacheTest, AttachBumpsRefcountWithoutNewBlocks) {
  TwoTierKvCache cache(SharedConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  std::vector<BlockId> published = cache.GpuBlockTable(1);
  ASSERT_EQ(cache.PublishSharedPrefix({11, 22}, published), 2);

  std::vector<BlockId> matched;
  ASSERT_EQ(cache.LookupSharedPrefix({11, 22}, &matched), 2);
  const int64_t allocated_before = cache.gpu_allocator().num_allocated();
  EXPECT_EQ(cache.AttachSharedPrefix(2, matched, 8), 8);
  // The reader's 8 tokens cost zero physical blocks.
  EXPECT_EQ(cache.gpu_allocator().num_allocated(), allocated_before);
  EXPECT_EQ(cache.gpu_allocator().refcount(published[0]), 2);
  EXPECT_EQ(cache.Find(2)->kv_len(), 8);
  EXPECT_EQ(cache.Find(2)->TokensOnGpu(), 8);
  EXPECT_TRUE(cache.SharedGpuBlock(published[0]));
  EXPECT_EQ(cache.counters().shared_attached_tokens, 8);
  EXPECT_EQ(cache.counters().peak_shared_blocks, 2);
  cache.CheckInvariants();
  cache.Release(1);
  cache.Release(2);
}

TEST(PrefixSharingCacheTest, DetachingOneReaderKeepsTheOther) {
  TwoTierKvCache cache(SharedConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  std::vector<BlockId> published = cache.GpuBlockTable(1);
  cache.PublishSharedPrefix({11}, published);
  cache.AttachSharedPrefix(2, published, 4);

  // Releasing the reader frees no physical memory and keeps the trie entry.
  cache.Release(2);
  EXPECT_EQ(cache.gpu_allocator().refcount(published[0]), 1);
  EXPECT_TRUE(cache.prefix_trie().ContainsBlock(published[0]));
  EXPECT_EQ(cache.Find(1)->chunk(0).gpu_block, published[0]);

  // Releasing the last holder frees the block and severs the trie entry, so
  // a later lookup cannot hand out a dangling block.
  cache.Release(1);
  EXPECT_EQ(cache.gpu_allocator().num_allocated(), 0);
  EXPECT_FALSE(cache.prefix_trie().ContainsBlock(published[0]));
  std::vector<BlockId> matched;
  EXPECT_EQ(cache.LookupSharedPrefix({11}, &matched), 0);
  cache.CheckInvariants();
}

TEST(PrefixSharingCacheTest, CowOnDivergenceMidBlock) {
  TwoTierKvCache cache(SharedConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  std::vector<BlockId> published = cache.GpuBlockTable(1);
  cache.PublishSharedPrefix({11}, published);
  // Partial view: 3 of the block's 4 tokens. Writing token 4 must not
  // clobber the publisher's copy.
  cache.AttachSharedPrefix(2, published, 3);
  EXPECT_EQ(cache.AppendBlockDemand(2, 1), 1);  // the copy-on-write block

  std::vector<ContextState::SlotRef> slots;
  ASSERT_TRUE(cache.AppendTokenSlots(2, 1, &slots).ok());
  EXPECT_EQ(cache.counters().cow_copies, 1);
  const BlockId private_block = cache.Find(2)->chunk(0).gpu_block;
  EXPECT_NE(private_block, published[0]);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].block, private_block);
  EXPECT_EQ(slots[0].slot, 3);
  // The shared block is back to a single reference; the publisher's chunk
  // still points at it.
  EXPECT_EQ(cache.gpu_allocator().refcount(published[0]), 1);
  EXPECT_EQ(cache.Find(1)->chunk(0).gpu_block, published[0]);
  EXPECT_FALSE(cache.SharedGpuBlock(published[0]));
  // Subsequent appends are plain appends — one copy per divergence.
  ASSERT_TRUE(cache.AppendTokenSlots(2, 4, nullptr).ok());
  EXPECT_EQ(cache.counters().cow_copies, 1);
  // A private partial tail owes no copy-on-write block.
  ASSERT_TRUE(cache.AppendTokenSlots(2, 1, nullptr).ok());
  EXPECT_EQ(cache.AppendBlockDemand(2, 1), cache.Find(2)->NumNewChunksForAppend(1));
  cache.CheckInvariants();
  cache.Release(1);
  cache.Release(2);
}

TEST(PrefixSharingCacheTest, CowCopiesBytesInNumericMode) {
  KvCacheConfig config = SharedConfig();
  config.numeric = true;
  config.num_layers = 1;
  config.num_kv_heads = 1;
  config.head_dim = 2;
  TwoTierKvCache cache(config);
  std::vector<ContextState::SlotRef> slots;
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, &slots).ok());
  for (int64_t i = 0; i < 4; ++i) {
    std::vector<float> k = {static_cast<float>(i), static_cast<float>(i) + 0.5f};
    std::vector<float> v = {-static_cast<float>(i), 10.0f + static_cast<float>(i)};
    cache.gpu_pool()->WriteToken(slots[i].block, 0, slots[i].slot, k.data(), v.data());
  }
  std::vector<BlockId> published = cache.GpuBlockTable(1);
  cache.PublishSharedPrefix({11}, published);
  cache.AttachSharedPrefix(2, published, 3);

  slots.clear();
  ASSERT_TRUE(cache.AppendTokenSlots(2, 1, &slots).ok());
  const BlockId reader_block = cache.Find(2)->chunk(0).gpu_block;
  ASSERT_NE(reader_block, published[0]);
  // The shared tokens arrived byte-identical in the private copy.
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(cache.gpu_pool()->TokenData(reader_block, 0, 0, i)[0],
                    static_cast<float>(i));
    EXPECT_FLOAT_EQ(cache.gpu_pool()->TokenData(reader_block, 0, 1, i)[1],
                    10.0f + static_cast<float>(i));
  }
  // Divergent token goes only to the private copy.
  std::vector<float> k = {99.0f, 99.0f};
  std::vector<float> v = {99.0f, 99.0f};
  cache.gpu_pool()->WriteToken(slots[0].block, 0, slots[0].slot, k.data(), v.data());
  EXPECT_FLOAT_EQ(cache.gpu_pool()->TokenData(reader_block, 0, 0, 3)[0], 99.0f);
  EXPECT_FLOAT_EQ(cache.gpu_pool()->TokenData(published[0], 0, 0, 3)[0], 3.0f);
  cache.Release(1);
  cache.Release(2);
}

// Copy-on-write end to end on numeric pools: a reader attaches a partial
// view of the publisher's second block and appends into it. Its KV rows must
// equal, bit for bit, those of a conversation that computed the same tokens
// into private blocks, and the publisher's block must not change.
TEST(PrefixSharingCacheTest, CowAppendMatchesPrivateCopyBitwise) {
  KvCacheConfig config = SharedConfig(/*gpu_blocks=*/12);
  config.numeric = true;
  config.num_layers = 2;
  config.num_kv_heads = 2;
  config.head_dim = 3;
  TwoTierKvCache cache(config);
  KvPool& pool = *cache.gpu_pool();
  const int64_t width = config.num_kv_heads * config.head_dim;
  // Token t's K and V rows in layer l: distinct, non-trivial values.
  const auto write = [&](const std::vector<ContextState::SlotRef>& slots, int64_t first) {
    for (size_t s = 0; s < slots.size(); ++s) {
      const int64_t t = first + static_cast<int64_t>(s);
      for (int64_t layer = 0; layer < config.num_layers; ++layer) {
        std::vector<float> k(static_cast<size_t>(width));
        std::vector<float> v(static_cast<size_t>(width));
        for (int64_t j = 0; j < width; ++j) {
          k[static_cast<size_t>(j)] = 0.37f * static_cast<float>(t) - 0.11f * static_cast<float>(j) +
                                      static_cast<float>(layer);
          v[static_cast<size_t>(j)] = 1.0f / (1.0f + static_cast<float>(t + j + 3 * layer));
        }
        pool.WriteToken(slots[s].block, layer, slots[s].slot, k.data(), v.data());
      }
    }
  };
  const ConversationId publisher = 1;
  const ConversationId reader = 2;
  const ConversationId private_copy = 3;
  constexpr int64_t kShared = 6;   // one full block plus half of the next
  constexpr int64_t kAppended = 3;  // two fill the view's block, one spills over

  std::vector<ContextState::SlotRef> slots;
  ASSERT_TRUE(cache.AppendTokenSlots(publisher, 8, &slots).ok());
  write(slots, 0);
  std::vector<BlockId> published = cache.GpuBlockTable(publisher);
  cache.PublishSharedPrefix({11, 22}, published);
  const std::vector<float> source_before(pool.TokenData(published[1], 0, 0, 0),
                                         pool.TokenData(published[1], 0, 0, 0) +
                                             pool.BlockBytes() / sizeof(float));

  // The private copy computes tokens [0, kShared + kAppended) itself.
  slots.clear();
  ASSERT_TRUE(cache.AppendTokenSlots(private_copy, kShared + kAppended, &slots).ok());
  write(slots, 0);

  // The reader attaches [0, kShared) as views and computes only the rest;
  // its first write lands in a copy of the partially viewed block.
  ASSERT_EQ(cache.AttachSharedPrefix(reader, published, kShared), kShared);
  slots.clear();
  ASSERT_TRUE(cache.AppendTokenSlots(reader, kAppended, &slots).ok());
  write(slots, kShared);
  EXPECT_EQ(cache.counters().cow_copies, 1);
  EXPECT_EQ(cache.Find(reader)->chunk(0).gpu_block, published[0]);
  EXPECT_NE(cache.Find(reader)->chunk(1).gpu_block, published[1]);

  const std::vector<BlockId> reader_table = cache.GpuBlockTable(reader);
  const std::vector<BlockId> private_table = cache.GpuBlockTable(private_copy);
  ASSERT_EQ(reader_table.size(), private_table.size());
  for (int64_t t = 0; t < kShared + kAppended; ++t) {
    const size_t chunk = static_cast<size_t>(t / config.block_size);
    const int64_t slot = t % config.block_size;
    for (int64_t layer = 0; layer < config.num_layers; ++layer) {
      for (int kv = 0; kv < 2; ++kv) {
        EXPECT_EQ(std::memcmp(pool.TokenData(reader_table[chunk], layer, kv, slot),
                              pool.TokenData(private_table[chunk], layer, kv, slot),
                              static_cast<size_t>(width) * sizeof(float)),
                  0)
            << "token " << t << " layer " << layer << " kv " << kv;
      }
    }
  }
  // The publisher's block, all layers and slots, is untouched.
  EXPECT_EQ(std::memcmp(pool.TokenData(published[1], 0, 0, 0), source_before.data(),
                        static_cast<size_t>(pool.BlockBytes())),
            0);
  cache.CheckInvariants();
  cache.Release(publisher);
  cache.Release(reader);
  cache.Release(private_copy);
}

TEST(PrefixSharingCacheTest, ReattachDroppedChunkToLivePublishedBlock) {
  TwoTierKvCache cache(SharedConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 8, nullptr).ok());
  std::vector<BlockId> published = cache.GpuBlockTable(1);
  cache.PublishSharedPrefix({11, 22}, published);
  cache.AttachSharedPrefix(2, published, 8);

  // The reader loses its first chunk to eviction, then gets it back as a
  // refcount bump instead of a restore + recompute.
  ASSERT_TRUE(cache.DropChunk(2, 0).ok());
  EXPECT_EQ(cache.gpu_allocator().refcount(published[0]), 1);
  ASSERT_TRUE(cache.ReattachDroppedShared(2, 0, published[0]).ok());
  EXPECT_EQ(cache.gpu_allocator().refcount(published[0]), 2);
  EXPECT_EQ(cache.Find(2)->chunk(0).location, ChunkLocation::kGpu);
  EXPECT_EQ(cache.Find(2)->chunk(0).num_tokens, 4);
  EXPECT_EQ(cache.Find(2)->TokensDropped(), 0);

  // Guard rails: only dropped, full chunks qualify.
  EXPECT_EQ(cache.ReattachDroppedShared(2, 0, published[0]).code(),
            StatusCode::kFailedPrecondition);
  cache.CheckInvariants();
  cache.Release(1);
  cache.Release(2);
}

TEST(PrefixSharingCacheTest, SharedBlockThroughSsdRoundTripByOneReader) {
  KvCacheConfig config = SharedConfig();
  config.num_ssd_blocks = 8;
  config.ssd_segment_blocks = 4;
  TwoTierKvCache cache(config);
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  std::vector<BlockId> published = cache.GpuBlockTable(1);
  cache.PublishSharedPrefix({11}, published);
  cache.AttachSharedPrefix(2, published, 4);

  // Reader 2's chunk rides the full demotion pipeline: its CPU copy and SSD
  // copy are private, so the publisher's view never moves.
  ASSERT_TRUE(cache.SwapOut(2, 0).ok());
  ASSERT_TRUE(cache.ReclaimGpu(2, 0).ok());
  // Reclaim detached reader 2 from the shared block; publisher unaffected.
  EXPECT_EQ(cache.gpu_allocator().refcount(published[0]), 1);
  EXPECT_EQ(cache.Find(1)->chunk(0).gpu_block, published[0]);
  ASSERT_TRUE(cache.DemoteToFlash(2, 0).ok());
  EXPECT_EQ(cache.Find(2)->chunk(0).location, ChunkLocation::kSsd);
  ASSERT_TRUE(cache.PromoteFromFlash(2, 0).ok());
  ASSERT_TRUE(cache.SwapIn(2, 0).ok());
  // The promoted copy lands on a fresh private block.
  EXPECT_NE(cache.Find(2)->chunk(0).gpu_block, published[0]);
  EXPECT_EQ(cache.Find(1)->chunk(0).gpu_block, published[0]);
  EXPECT_TRUE(cache.prefix_trie().ContainsBlock(published[0]));
  cache.CheckInvariants();
  cache.Release(1);
  cache.Release(2);
}

TEST(PrefixSharingCacheTest, CorruptedPrivateCopyDegradesOnlyThatReader) {
  TwoTierKvCache cache(SharedConfig());
  ASSERT_TRUE(cache.AppendTokenSlots(1, 4, nullptr).ok());
  std::vector<BlockId> published = cache.GpuBlockTable(1);
  cache.PublishSharedPrefix({11}, published);
  cache.AttachSharedPrefix(2, published, 4);

  // A fault poisons reader 2's swapped-out CPU copy. Only reader 2 pays:
  // its swap-in fails with DATA_LOSS (degrading to recomputation), while
  // the publisher's data and a third reader's attach stay intact.
  ASSERT_TRUE(cache.SwapOut(2, 0).ok());
  ASSERT_TRUE(cache.ReclaimGpu(2, 0).ok());
  ASSERT_TRUE(cache.MarkCpuCorrupt(2, 0).ok());
  EXPECT_EQ(cache.VerifyCpuChecksum(2, 0).code(), StatusCode::kDataLoss);
  EXPECT_EQ(cache.SwapIn(2, 0).code(), StatusCode::kDataLoss);
  EXPECT_EQ(cache.Find(2)->chunk(0).location, ChunkLocation::kCpu);

  ASSERT_TRUE(cache.SwapOut(1, 0).ok());
  EXPECT_TRUE(cache.VerifyCpuChecksum(1, 0).ok());
  std::vector<BlockId> matched;
  ASSERT_EQ(cache.LookupSharedPrefix({11}, &matched), 1);
  EXPECT_EQ(cache.AttachSharedPrefix(3, matched, 4), 4);
  EXPECT_EQ(cache.Find(3)->TokensOnGpu(), 4);
  cache.CheckInvariants();
  cache.Release(1);
  cache.Release(2);
  cache.Release(3);
}

// --- Engine-level template attach / publish ----------------------------------

GpuCostModel Opt13BModel() {
  return GpuCostModel(Opt13BConfig(), A100Spec(1));
}

Request MakeTemplateRequest(int64_t id, int64_t conv, int64_t prompt,
                            int64_t output, int32_t template_id,
                            int64_t template_prefix_len, double arrival = 0.0) {
  Request r;
  r.request_id = id;
  r.conversation_id = conv;
  r.turn_index = 0;
  r.new_prompt_len = prompt;
  r.history_len = 0;
  r.target_output_len = output;
  r.arrival_time = arrival;
  r.template_id = template_id;
  r.template_prefix_len = template_prefix_len;
  return r;
}

PensieveEngineOptions SharingOptions(int64_t gpu_blocks = 64) {
  PensieveEngineOptions o;
  o.block_size = 32;
  o.num_gpu_blocks = gpu_blocks;
  o.num_cpu_blocks = 256;
  o.max_batch_tokens = 4096;
  return o;
}

std::vector<RequestOutcome> Drain(Engine* engine, double start = 0.0) {
  std::vector<RequestOutcome> outcomes;
  double now = start;
  for (int64_t i = 0; i < 100000 && engine->HasWork(); ++i) {
    StepResult r = engine->Step(now);
    EXPECT_FALSE(r.idle) << "engine idled with pending work";
    if (r.idle) {
      break;
    }
    now += r.duration;
    for (auto& o : r.finished) {
      outcomes.push_back(std::move(o));
    }
  }
  return outcomes;
}

TEST(PrefixSharingEngineTest, SecondConversationAttachesPublishedTemplate) {
  GpuCostModel model = Opt13BModel();
  PensieveEngine engine(model, SharingOptions());
  // Conversation 0 prefills the template the hard way and publishes its
  // three full blocks (96 tokens) at the prefilled transition.
  engine.Enqueue(MakeTemplateRequest(0, 0, 100, 5, /*template_id=*/9,
                                     /*template_prefix_len=*/96),
                 0.0);
  std::vector<RequestOutcome> first = Drain(&engine);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].reused_shared_tokens, 0);
  EXPECT_EQ(first[0].prefill_input_tokens, 100);
  EXPECT_EQ(engine.cache().prefix_trie().size(), 3);

  // Conversation 1 shares the same template: its 96 prefix tokens attach as
  // views, so only the 4 private prompt tokens prefill.
  engine.Enqueue(MakeTemplateRequest(1, 1, 100, 5, 9, 96, 10.0), 10.0);
  std::vector<RequestOutcome> second = Drain(&engine, 10.0);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].reused_shared_tokens, 96);
  EXPECT_EQ(second[0].prefill_input_tokens, 4);
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.dedup_hit_requests, 1);
  EXPECT_EQ(stats.reused_shared_tokens, 96);
  EXPECT_EQ(stats.shared_attached_chunks, 3);
  EXPECT_GE(stats.peak_shared_blocks, 3);
  engine.cache().CheckInvariants();
}

TEST(PrefixSharingEngineTest, DivergenceInsideSharedBlockTriggersCow) {
  GpuCostModel model = Opt13BModel();
  PensieveEngine engine(model, SharingOptions());
  engine.Enqueue(MakeTemplateRequest(0, 0, 100, 5, 9, 96), 0.0);
  Drain(&engine);
  // Prompt 40 < prefix 96: the attach span caps at 39 tokens (one must stay
  // pending), so block 0 attaches full and block 1 as a 7-token partial
  // view. Prefilling the pending token writes into that partial view and
  // must copy-on-write instead of corrupting the publisher's block.
  engine.Enqueue(MakeTemplateRequest(1, 1, 40, 5, 9, 96, 10.0), 10.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine, 10.0);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].reused_shared_tokens, 39);
  EXPECT_EQ(engine.stats().cow_copies, 1);
  engine.cache().CheckInvariants();
  engine.cache().VerifyNoLeaks();
}

TEST(PrefixSharingEngineTest, SharingDisabledNeverTouchesTrie) {
  GpuCostModel model = Opt13BModel();
  PensieveEngineOptions options = SharingOptions();
  options.enable_prefix_sharing = false;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeTemplateRequest(0, 0, 100, 5, 9, 96), 0.0);
  Drain(&engine);
  engine.Enqueue(MakeTemplateRequest(1, 1, 100, 5, 9, 96, 10.0), 10.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine, 10.0);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].reused_shared_tokens, 0);
  EXPECT_EQ(outcomes[0].prefill_input_tokens, 100);
  EXPECT_EQ(engine.stats().dedup_hit_requests, 0);
  EXPECT_EQ(engine.cache().prefix_trie().size(), 0);
}

TEST(PrefixSharingEngineTest, RefcountLedgerBalancedAcrossManyTemplates) {
  GpuCostModel model = Opt13BModel();
  PensieveEngine engine(model, SharingOptions(/*gpu_blocks=*/128));
  int64_t id = 0;
  // First wave: one publisher per template.
  for (int64_t conv = 0; conv < 3; ++conv) {
    engine.Enqueue(MakeTemplateRequest(id++, conv, 80, 4,
                                       static_cast<int32_t>(conv), 64,
                                       0.05 * static_cast<double>(conv)),
                   0.0);
  }
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  // Second wave: nine readers across the three published templates.
  for (int64_t conv = 3; conv < 12; ++conv) {
    engine.Enqueue(MakeTemplateRequest(id++, conv, 80, 4,
                                       static_cast<int32_t>(conv % 3), 64,
                                       10.0 + 0.05 * static_cast<double>(conv)),
                   10.0);
  }
  std::vector<RequestOutcome> second = Drain(&engine, 10.0);
  outcomes.insert(outcomes.end(), second.begin(), second.end());
  EXPECT_EQ(outcomes.size(), 12u);
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.dedup_hit_requests, 9);
  EXPECT_EQ(stats.reused_shared_tokens, 9 * 64);
  // Every acquire is balanced by a release or a live chunk view.
  EXPECT_EQ(stats.kv_block_acquires, stats.kv_block_releases + stats.kv_blocks_live);
  engine.cache().CheckInvariants();
  engine.cache().VerifyNoLeaks();
}

// --- Hash-chain determinism ---------------------------------------------------

TEST(TemplatePrefixMixTest, DeterministicAndTemplateSensitive) {
  EXPECT_EQ(TemplatePrefixMix(3, 17), TemplatePrefixMix(3, 17));
  EXPECT_NE(TemplatePrefixMix(3, 17), TemplatePrefixMix(4, 17));
  EXPECT_NE(TemplatePrefixMix(3, 17), TemplatePrefixMix(3, 18));
}

// The trie key of a template's first num_blocks blocks, hashed from token 0.
std::vector<uint64_t> DirectTemplateChain(int32_t template_id, int64_t num_blocks,
                                          int64_t block_size) {
  std::vector<uint64_t> chain;
  uint64_t h = kFnv1a64OffsetBasis;
  for (int64_t pos = 0; pos < num_blocks * block_size; ++pos) {
    const uint64_t tok = TemplatePrefixMix(template_id, pos);
    h = Fnv1a64(&tok, sizeof(tok), h);
    if ((pos + 1) % block_size == 0) {
      chain.push_back(h);
    }
  }
  return chain;
}

TEST(TemplateChainsTest, MemoizedPrefixesEqualDirectComputation) {
  constexpr int64_t kBlockSize = 32;
  constexpr int64_t kWindow = 16;  // a 512-token template
  const std::vector<int32_t> templates = {0, 3, 7, 1 << 20};
  TemplateChains short_first(kBlockSize);
  TemplateChains long_first(kBlockSize);
  for (int32_t id : templates) {
    for (int64_t blocks = 0; blocks <= kWindow; ++blocks) {
      EXPECT_EQ(short_first.Get(id, blocks), DirectTemplateChain(id, blocks, kBlockSize))
          << "template " << id << ", " << blocks << " blocks";
      const int64_t reversed = kWindow - blocks;
      EXPECT_EQ(long_first.Get(id, reversed), DirectTemplateChain(id, reversed, kBlockSize))
          << "template " << id << ", " << reversed << " blocks";
    }
  }
  // Chains of different templates differ from the first block on.
  EXPECT_NE(short_first.Get(0, 1), short_first.Get(3, 1));
}

}  // namespace
}  // namespace pensieve
