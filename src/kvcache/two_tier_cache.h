// Two-tier (GPU + CPU) paged KV cache (paper §4.3).
//
// This class owns the block allocators for both tiers, the per-conversation
// ContextState map, and — in numeric mode — the real KV pools whose contents
// the swap operations copy. It implements the *mechanisms* (swap out/in,
// lazy GPU reclamation, prefix dropping, dropped-chunk restore); *policy*
// (which chunk, when) lives in src/eviction and the engine's cache
// coordinator.
//
// Chunk lifecycle:
//
//             SwapOut              ReclaimGpu
//   kGpu  ------------> kGpuAndCpu -----------> kCpu
//    ^                      |  ^                 |
//    |   DropCpuCopy        |  |     SwapIn      |
//    +----------------------+  +-----------------+
//    |                                            DropChunk
//    +-- RestoreDropped <-- kDropped <------------+
//
// kGpuAndCpu is the paper's lazy-reclamation state: the chunk was copied to
// the CPU ahead of time, but its GPU slot is only actually released
// (ReclaimGpu) when the scheduler hands that slot to another conversation.
//
// With the flash tier enabled (num_ssd_blocks > 0) a third level sits behind
// the CPU: DemoteToFlash (kCpu -> kSsd) spills CPU-pressure victims into the
// log-structured SSD instead of dropping them, PromoteFromFlash
// (kSsd -> kCpu) stages them back on the restore path, and flash-tier
// evictions drop kSsd chunks as context prefixes.

#ifndef PENSIEVE_SRC_KVCACHE_TWO_TIER_CACHE_H_
#define PENSIEVE_SRC_KVCACHE_TWO_TIER_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/kvcache/block.h"
#include "src/kvcache/block_allocator.h"
#include "src/kvcache/context_state.h"
#include "src/kvcache/flash/flash_tier.h"
#include "src/kvcache/kv_pool.h"
#include "src/kvcache/prefix_trie.h"

namespace pensieve {

using ConversationId = int64_t;

struct KvCacheConfig {
  int64_t block_size = kDefaultBlockSize;
  int64_t num_gpu_blocks = 0;
  int64_t num_cpu_blocks = 0;
  // Flash (SSD) tier behind the CPU tier; 0 disables it, preserving exact
  // two-tier behavior.
  int64_t num_ssd_blocks = 0;
  int64_t ssd_segment_blocks = 64;
  // Int8 KV quantization at the tier boundary: GPU copies stay fp32,
  // swap-out quantizes into the CPU tier (per-block amax scale, checksums
  // over the quantized bytes), swap-in dequantizes back, and flash copies
  // stay quantized end to end. Read once, to pick the cache's KV codec; off
  // keeps every copy and checksum fp32 (pinned by feature_golden_test).
  bool kv_quant = false;
  // Per-block byte sizes in the serving substrate (e.g. fp16 KV vs int8 +
  // scale), used to account CPU/SSD capacity in *compressed* bytes: when
  // kv_quant is on and both are set, the num_cpu_blocks / num_ssd_blocks
  // budgets are scaled up by raw/quant so the same byte budget holds ~2x
  // the conversations. Zero leaves the budgets untouched.
  int64_t kv_raw_block_bytes = 0;
  int64_t kv_quant_block_bytes = 0;
  // Numeric mode: allocate real pools with this geometry.
  bool numeric = false;
  int64_t num_layers = 1;
  int64_t num_kv_heads = 1;
  int64_t head_dim = 1;
};

class TwoTierKvCache {
 public:
  explicit TwoTierKvCache(const KvCacheConfig& config);
  // Shutdown leak audit: every allocator reference must be reachable from a
  // chunk view. Aborts with a diagnostic on leaked blocks, which previously
  // died silently with the pool.
  ~TwoTierKvCache();

  int64_t block_size() const { return config_.block_size; }

  BlockAllocator& gpu_allocator() { return gpu_allocator_; }
  const BlockAllocator& gpu_allocator() const { return gpu_allocator_; }
  BlockAllocator& cpu_allocator() { return cpu_allocator_; }
  const BlockAllocator& cpu_allocator() const { return cpu_allocator_; }

  // Null in simulated mode.
  KvPool* gpu_pool() { return gpu_pool_.get(); }
  const KvPool* gpu_pool() const { return gpu_pool_.get(); }
  KvPool* cpu_pool() { return cpu_pool_.get(); }

  // Flash tier (null when num_ssd_blocks == 0). The cache is the one owner
  // of whether the tier exists; the coordinator and engine ask it here.
  bool flash_enabled() const { return flash_ != nullptr; }
  const FlashTier* flash_tier() const { return flash_.get(); }

  ContextState& GetOrCreate(ConversationId id);
  ContextState* Find(ConversationId id);
  const ContextState* Find(ConversationId id) const;
  // Frees every block owned by the conversation and forgets it.
  void Release(ConversationId id);

  // All conversations currently tracked (for eviction scans).
  const std::unordered_map<ConversationId, ContextState>& conversations() const {
    return conversations_;
  }

  // The conversations holding at least one chunk in `location` (kGpu,
  // kGpuAndCpu or kCpu), in no particular order. Kept current on every
  // location change, so an eviction pass visits only conversations that
  // can offer a candidate (DESIGN.md §15).
  struct Holder {
    ConversationId id;
    ContextState* state;
  };
  const std::vector<Holder>& Holders(ChunkLocation location) const;

  // GPU blocks that could be reclaimed instantly because a clean CPU copy
  // exists (kGpuAndCpu chunks).
  int64_t ReclaimableGpuBlocks() const { return reclaimable_gpu_blocks_; }
  // Free + instantly reclaimable.
  int64_t AvailableGpuBlocks() const {
    return gpu_allocator_.num_free() + reclaimable_gpu_blocks_;
  }

  // --- Append path -------------------------------------------------------
  // Appends n token slots on the GPU, allocating new blocks as needed (the
  // caller must have ensured availability; fails with RESOURCE_EXHAUSTED
  // otherwise, leaving state unchanged). If the tail chunk is partial and
  // carries a CPU copy, the copy is invalidated (freed). If the tail chunk
  // is a partial view of a *shared* block, the first appended token triggers
  // copy-on-write: the view moves to a freshly allocated private block
  // (contents copied in numeric mode) before any slot is handed out.
  Status AppendTokenSlots(ConversationId id, int64_t n,
                          std::vector<ContextState::SlotRef>* slots);
  // GPU blocks AppendTokenSlots would consume for an n-token append: new
  // chunks plus a possible copy-on-write block for a shared partial tail.
  // Identical to ContextState::NumNewChunksForAppend when sharing is off.
  int64_t AppendBlockDemand(ConversationId id, int64_t n) const;

  // --- Shared-prefix dedup -----------------------------------------------
  // Always live: whether a conversation uses them is the engine's choice
  // (PensieveEngineOptions::enable_prefix_sharing), made before any call.
  //
  // Longest published run matching the content-hash chain; appends the
  // backing GPU blocks to *blocks. Returns matched block count.
  int64_t LookupSharedPrefix(const std::vector<uint64_t>& chain,
                             std::vector<BlockId>* blocks) const;
  // Publishes a conversation's full, GPU-resident prefix blocks under the
  // chain (weak references; first publisher wins). Returns new trie nodes.
  int64_t PublishSharedPrefix(const std::vector<uint64_t>& chain,
                              const std::vector<BlockId>& blocks);
  // Publishes the conversation's leading run of full, GPU-resident chunks,
  // at most chain.size() of them, under the chain. A chunk evicted or still
  // partial ends the run early. Returns new trie nodes (0 for an unknown
  // conversation).
  int64_t PublishLeadingChunks(ConversationId id, const std::vector<uint64_t>& chain);
  // Attaches `tokens` tokens of shared prefix to a *fresh* conversation as
  // views over `blocks` (refcounts bumped, no prefill needed). The final
  // view may be partial; a later append into it goes through copy-on-write.
  // Returns the tokens attached.
  int64_t AttachSharedPrefix(ConversationId id, const std::vector<BlockId>& blocks,
                             int64_t tokens);
  // Re-attaches a *dropped* full chunk to a still-published shared block,
  // replacing the RestoreDropped + recompute path with a refcount bump.
  Status ReattachDroppedShared(ConversationId id, int64_t chunk_index, BlockId block);
  // True when more than one view holds the block (detaching one reader
  // frees no physical memory, and a later restore is a re-attach).
  bool SharedGpuBlock(BlockId block) const;
  // Chunk indices a shared view can occupy: [0, window). A published block
  // holds one block of a content-hash chain that starts at token 0, so every
  // view of it sits at the same chunk index, below the longest chain ever
  // published or attached. Zero while sharing is off. The coordinator's
  // victim index scans this window for views (DESIGN.md §15).
  int64_t shared_prefix_window() const { return shared_prefix_window_; }
  const PrefixTrie& prefix_trie() const { return trie_; }

  // --- Swap / drop mechanisms --------------------------------------------
  // kGpu -> kGpuAndCpu. Copies data in numeric mode.
  Status SwapOut(ConversationId id, int64_t chunk_index);
  // kGpuAndCpu -> kCpu. Frees the GPU block (no data movement needed).
  Status ReclaimGpu(ConversationId id, int64_t chunk_index);
  // kCpu -> kGpuAndCpu. Allocates a GPU block; copies data in numeric mode.
  Status SwapIn(ConversationId id, int64_t chunk_index);
  // kGpuAndCpu -> kGpu. Frees the (still valid) CPU copy.
  Status DropCpuCopy(ConversationId id, int64_t chunk_index);
  // {kCpu, kGpu, kGpuAndCpu} -> kDropped, freeing all blocks. Only legal if
  // every earlier chunk is already dropped (drop-from-the-front invariant).
  Status DropChunk(ConversationId id, int64_t chunk_index);
  // kDropped -> kGpu with a freshly allocated (zeroed in numeric mode) GPU
  // block; the caller then recomputes the chunk's KV into it.
  Status RestoreDropped(ConversationId id, int64_t chunk_index);
  // Drops every non-dropped chunk up to and including `chunk_index`
  // (front-to-back, so each DropChunk call is legal). Adds the dropped
  // tokens to *dropped_tokens when non-null.
  Status DropThroughPrefix(ConversationId id, int64_t chunk_index,
                           int64_t* dropped_tokens = nullptr);

  // --- Flash (SSD) tier ---------------------------------------------------
  // kCpu -> kSsd: verifies the CPU copy's checksum, admits the chunk into
  // the flash tier (evicting lower-value flash chunks, which are dropped as
  // context prefixes of their conversations), copies data in numeric mode
  // and frees the CPU block. Only legal when every earlier chunk is already
  // dropped or on SSD, so a conversation's flash run stays a contiguous
  // extension of its dropped prefix — which is what makes flash-tier
  // evictions expressible as prefix drops.
  Status DemoteToFlash(ConversationId id, int64_t chunk_index);
  // kSsd -> kCpu: verifies the flash checksum (DATA_LOSS leaves the chunk
  // untouched, so corruption degrades to recomputation), allocates a CPU
  // block, copies data in numeric mode and releases the flash block. Promote
  // the *last* chunk of a flash run first to keep the run contiguous.
  Status PromoteFromFlash(ConversationId id, int64_t chunk_index);
  // Poisons a chunk's flash copy (the demotion transfer failed after the
  // state transition). Numeric mode also flips a bit in the flash pool.
  Status MarkSsdCorrupt(ConversationId id, int64_t chunk_index);
  // OK if the flash copy matches its recorded checksum, DATA_LOSS if
  // corrupted, FAILED_PRECONDITION when the chunk is not on SSD.
  Status VerifySsdChecksum(ConversationId id, int64_t chunk_index);

  // --- Checksums / fault handling ----------------------------------------
  // Every CPU copy carries a checksum recorded when the copy was created
  // (SwapOut / ImportCpuResident) and re-verified before it is trusted
  // again. SwapIn verifies internally and fails with DATA_LOSS — leaving
  // the chunk untouched — so a corrupted copy can only ever degrade to
  // recomputation, never flow back to the GPU.
  //
  // Poisons a chunk's CPU copy (fault injection observed the transfer that
  // produced it fail after the state transition). Numeric mode also flips a
  // bit in the backing pool so the real hash mismatches.
  Status MarkCpuCorrupt(ConversationId id, int64_t chunk_index);
  // Returns OK if the chunk's CPU copy still matches its recorded checksum,
  // DATA_LOSS if it was corrupted, FAILED_PRECONDITION if there is no CPU
  // copy to verify.
  Status VerifyCpuChecksum(ConversationId id, int64_t chunk_index);

  // --- Cluster migration --------------------------------------------------
  // Adopts a conversation migrated from another replica: `kv_len` tokens of
  // chunk bookkeeping whose trailing `resident_tokens` arrive as CPU-tier
  // copies (migrated KV lands in host memory); the leading remainder is
  // dropped. When the CPU tier lacks blocks the resident region shrinks
  // from the front (oldest KV is the cheapest to lose). The conversation
  // must not already be tracked. Returns the tokens actually materialized
  // in the CPU tier.
  int64_t ImportCpuResident(ConversationId id, int64_t kv_len,
                            int64_t resident_tokens);

  // Same adoption, but the resident region lands directly in the GPU tier
  // (a layer-pipelined handoff stream writes into the decode replica's KV
  // pool, so no swap-in is owed before first use). Chunks that cannot get a
  // GPU block degrade to CPU-tier copies; when both tiers are exhausted the
  // remaining leading region stays dropped. Returns the tokens materialized
  // in either tier.
  int64_t ImportGpuResident(ConversationId id, int64_t kv_len,
                            int64_t resident_tokens);

  // Frees exactly one GPU block by downgrading some kGpuAndCpu chunk chosen
  // by the caller. Convenience for the coordinator: equivalent to
  // ReclaimGpu.
  // (No extra method needed; coordinator calls ReclaimGpu directly.)

  // --- Cross-replica CPU-tier spill (DESIGN.md §14) -----------------------
  // Reserves real CPU-tier blocks to hold a peer replica's spilled KV.
  // All-or-nothing: returns `blocks` when the reservation succeeded, 0 when
  // the tier is short. Reserved blocks hold allocator references without a
  // chunk view; the leak audit accounts them separately.
  int64_t ReserveForeignCpuBlocks(int64_t blocks);
  // Returns `blocks` previously reserved blocks to the free list (the stash
  // was fetched back or invalidated).
  void ReleaseForeignCpuBlocks(int64_t blocks);
  int64_t foreign_cpu_blocks() const {
    return static_cast<int64_t>(foreign_cpu_blocks_.size());
  }

  // kDropped -> kCpu: re-adopts one chunk of a fetched-back spill segment as
  // a fresh CPU copy (checksummed like any SwapOut product). Only legal at
  // the trailing edge of the dropped prefix — the chunk right before the
  // first resident chunk — and only when that resident chunk is not on SSD
  // (a flash run must stay a contiguous extension of the dropped prefix).
  // Walk backward from the frontier to adopt a multi-chunk segment.
  Status RestoreDroppedToCpu(ConversationId id, int64_t chunk_index);

  // Builds the GPU block table covering the conversation's chunks
  // [first_chunk, num_chunks); every such chunk must be GPU-resident.
  std::vector<BlockId> GpuBlockTable(ConversationId id, int64_t first_chunk = 0) const;

  // --- Mechanism log ------------------------------------------------------
  // When a log is set, every successful eviction-side mechanism call
  // appends one event, so tests can compare the exact (conversation, chunk)
  // sequence two coordinators act on.
  enum class EvictOp : uint8_t { kSwapOut, kReclaimGpu, kDropCpuCopy, kDropChunk, kDemote };
  struct EvictEvent {
    EvictOp op;
    ConversationId conversation;
    int64_t chunk_index;
    bool operator==(const EvictEvent&) const = default;
  };
  void set_event_log(std::vector<EvictEvent>* log) { event_log_ = log; }

  // --- Introspection / stats ---------------------------------------------
  struct Counters {
    int64_t swapped_out_chunks = 0;
    int64_t swapped_in_chunks = 0;
    int64_t dropped_chunks = 0;
    int64_t restored_chunks = 0;
    int64_t reclaimed_gpu_blocks = 0;
    int64_t checksum_verifications = 0;
    int64_t checksum_failures = 0;
    int64_t corrupt_marked_chunks = 0;
    // Flash-tier traffic.
    int64_t demoted_to_flash_chunks = 0;
    int64_t promoted_from_flash_chunks = 0;
    int64_t flash_evicted_chunks = 0;
    int64_t flash_evicted_tokens = 0;
    // Shared-prefix dedup traffic.
    int64_t shared_attached_chunks = 0;
    int64_t shared_attached_tokens = 0;
    int64_t cow_copies = 0;
    int64_t peak_shared_blocks = 0;
    // KV quantization traffic: blocks quantized crossing the GPU->CPU
    // boundary and the cumulative bytes that compression kept off the
    // CPU/SSD tiers.
    int64_t quantized_blocks = 0;
    int64_t quant_bytes_saved = 0;
  };
  const Counters& counters() const { return counters_; }

  // Internal-consistency audit used by tests: verifies allocator/refcount
  // agreement and the drop-prefix invariant. Aborts on violation.
  void CheckInvariants() const;

  // Leak audit (also run by the destructor): every live allocator reference
  // in both tiers is held by exactly one chunk view. Unlike CheckInvariants
  // this is legal mid-operation and with conversations still resident.
  void VerifyNoLeaks() const;

 private:
  ContextState& MustFind(ConversationId id);
  // Status-returning lookup used by the swap/drop mechanisms so bad ids or
  // chunk indices report instead of aborting (fault paths must compose).
  Status FindChunk(ConversationId id, int64_t chunk_index, ContextState** state);
  // Checksum of the chunk's CPU copy: real hash in numeric mode, synthetic
  // per-chunk tag in simulated mode.
  uint32_t ComputeCpuChecksum(ConversationId id, int64_t chunk_index,
                              const Chunk& c) const;
  uint32_t ComputeSsdChecksum(ConversationId id, int64_t chunk_index,
                              const Chunk& c) const;
  // Drops the chunks behind flash-tier evictions, each as a prefix drop of
  // its conversation (intermediate flash chunks go down with their victim).
  void DropFlashVictims(const std::vector<uint64_t>& evicted);
  // Drops one reference to a GPU block; when the last reference goes, the
  // block returns to the free list and any trie entry anchored on it (plus
  // descendants) is invalidated — trie references are weak.
  void ReleaseGpuBlock(BlockId block);
  // Every location change of a cache-owned chunk: ContextState::SetLocation
  // plus the holder lists.
  void SetLocation(ConversationId id, ContextState& state, int64_t i,
                   ChunkLocation location);
  // Adds or removes the conversation from `location`'s holder list to match
  // its chunk count there (no-op for untracked locations).
  void SyncHolder(ConversationId id, ContextState& state, ChunkLocation location);
  void LogEvent(EvictOp op, ConversationId id, int64_t chunk_index) {
    if (event_log_ != nullptr) {
      event_log_->push_back(EvictEvent{op, id, chunk_index});
    }
  }

  // The tier-boundary KV codec, picked once from config.kv_quant: how
  // SwapOut writes the CPU copy and what one crossing adds to the
  // quantization counters. SwapIn always dequantizes, which is a plain copy
  // for a block that was never quantized.
  struct KvCodec {
    void (*encode)(const KvPool&, BlockId, KvPool&, BlockId) = &KvPool::CopyBlock;
    int64_t quantized_blocks = 0;  // per crossing: 1 under int8, 0 under fp32
    int64_t saved_bytes = 0;       // per crossing
  };

  KvCacheConfig config_;
  KvCodec codec_;
  BlockAllocator gpu_allocator_;
  BlockAllocator cpu_allocator_;
  std::unique_ptr<KvPool> gpu_pool_;
  std::unique_ptr<KvPool> cpu_pool_;
  std::unique_ptr<FlashTier> flash_;
  std::unordered_map<ConversationId, ContextState> conversations_;
  PrefixTrie trie_;
  int64_t reclaimable_gpu_blocks_ = 0;
  int64_t shared_prefix_window_ = 0;
  // Holder lists for kGpu, kGpuAndCpu and kCpu (indexed by ChunkLocation).
  static constexpr size_t kNumHeldLocations = 3;
  std::array<std::vector<Holder>, kNumHeldLocations> holders_;
  std::vector<EvictEvent>* event_log_ = nullptr;
  // CPU blocks reserved for peer replicas' spilled KV (no chunk view; freed
  // on release or at destruction).
  std::vector<BlockId> foreign_cpu_blocks_;
  Counters counters_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_KVCACHE_TWO_TIER_CACHE_H_
