// Per-conversation cached-context bookkeeping.
//
// A conversation's processed context is an ordered list of chunks (paper
// §4.3). Pensieve always evicts/drops from the leading end, so a typical
// layout is: [dropped prefix][CPU-resident middle][GPU-resident tail]
// (paper Figure 5). The drop-from-the-front invariant is enforced by the
// two-tier cache mechanism; swap state (GPU/CPU) may interleave freely.

#ifndef PENSIEVE_SRC_KVCACHE_CONTEXT_STATE_H_
#define PENSIEVE_SRC_KVCACHE_CONTEXT_STATE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/kvcache/block.h"

namespace pensieve {

// The eviction queries with at most one candidate chunk per conversation:
// chunks that can only leave a conversation front first.
enum class Frontier {
  kGpuDrop,   // first non-dropped chunk, if it is on the GPU (DropChunk target)
  kCpuEvict,  // first chunk past the dropped/SSD prefix, if CPU-only
  kFirstGpu,  // first GPU-resident chunk (drop the prefix through it)
};

class ContextState {
 public:
  explicit ContextState(int64_t block_size) : block_size_(block_size) {}

  int64_t block_size() const { return block_size_; }

  int64_t num_chunks() const { return static_cast<int64_t>(chunks_.size()); }
  const Chunk& chunk(int64_t i) const { return chunks_[static_cast<size_t>(i)]; }
  // Block ids and checksums are edited in place; the location is not:
  // every residency change goes through SetLocation.
  Chunk& mutable_chunk(int64_t i) { return chunks_[static_cast<size_t>(i)]; }
  const std::vector<Chunk>& chunks() const { return chunks_; }

  // The one place a chunk's location changes. Keeps the frontier offsets
  // and per-location counts current (O(1) to read) and the lower-bound hints
  // valid. A state owned by a TwoTierKvCache changes location only through
  // the cache, which also tracks which conversations hold each location.
  void SetLocation(int64_t i, ChunkLocation location);
  // Number of chunks currently in `location`.
  int64_t ChunksAt(ChunkLocation location) const {
    return count_at_[static_cast<size_t>(location)];
  }

  // Total KV tokens represented (including dropped ones).
  int64_t kv_len() const { return kv_len_; }

  // First token position covered by chunk i.
  int64_t ChunkStartToken(int64_t i) const { return i * block_size_; }
  // Context length "seen" by the last token of chunk i (causal attention):
  // all tokens up to and including the chunk itself.
  int64_t ChunkContextLen(int64_t i) const {
    return ChunkStartToken(i) + chunk(i).num_tokens;
  }

  // Length of the contiguous dropped prefix, in tokens and in chunks.
  int64_t LeadingDroppedTokens() const {
    return leading_dropped_ == num_chunks() ? kv_len_ : ChunkStartToken(leading_dropped_);
  }
  int64_t LeadingDroppedChunks() const { return leading_dropped_; }
  // The "CPU frontier": length of the contiguous prefix of chunks that are
  // dropped or demoted to the flash tier. The first chunk past it is the
  // oldest chunk still holding a CPU/GPU copy — the next demotion (or drop)
  // candidate. Equal to LeadingDroppedChunks() when no flash tier exists.
  int64_t LeadingDroppedOrSsdChunks() const { return leading_dropped_or_ssd_; }

  // Index of the first chunk in `location`, or num_chunks() if none. Starts
  // from a lower-bound hint that SetLocation lowers and this call advances,
  // so repeated queries skip the evicted prefix instead of rewalking it.
  int64_t FirstChunkAt(ChunkLocation location) const {
    int64_t& hint = first_at_hint_[static_cast<size_t>(location)];
    while (hint < num_chunks() && chunk(hint).location != location) {
      ++hint;
    }
    return hint;
  }
  // Index of the first chunk past `after` in `location`, or num_chunks().
  int64_t NextChunkAt(ChunkLocation location, int64_t after) const;
  // This conversation's candidate for a frontier query, or num_chunks()
  // when it has none.
  int64_t FrontierChunk(Frontier kind) const {
    const int64_t n = num_chunks();
    switch (kind) {
      case Frontier::kGpuDrop:
        return leading_dropped_ < n && chunk(leading_dropped_).OnGpu() ? leading_dropped_ : n;
      case Frontier::kCpuEvict:
        return leading_dropped_or_ssd_ < n &&
                       chunk(leading_dropped_or_ssd_).location == ChunkLocation::kCpu
                   ? leading_dropped_or_ssd_
                   : n;
      case Frontier::kFirstGpu:
        return std::min(FirstChunkAt(ChunkLocation::kGpu),
                        FirstChunkAt(ChunkLocation::kGpuAndCpu));
    }
    return n;
  }

  // Recomputes the frontier offsets, counts and hints from the chunks and
  // aborts on disagreement (a location changed behind SetLocation's back).
  void CheckFrontiers() const;

  // Token counts by residency.
  int64_t TokensOnGpu() const;
  int64_t TokensCpuOnly() const;
  int64_t TokensDropped() const;

  // Chunk indices (ascending) that are CPU-only: these must be swapped in
  // before the conversation's next request can run.
  std::vector<int64_t> CpuOnlyChunks() const;
  // Chunk indices (ascending) demoted to the flash tier: these must be
  // promoted back to the CPU tier (then swapped in) before the
  // conversation's next request can run.
  std::vector<int64_t> SsdChunks() const;

  // Appends bookkeeping for `n` more tokens; newly needed chunks are created
  // with the provided GPU blocks. The caller supplies exactly
  // NumNewChunksForAppend(n) block ids. Returns per-token (block, slot)
  // positions via *slots if non-null.
  struct SlotRef {
    int64_t chunk_index;
    BlockId block;
    int64_t slot;
  };
  int64_t NumNewChunksForAppend(int64_t n) const {
    PENSIEVE_CHECK_GE(n, 0);
    const int64_t room = chunks_.empty() ? 0 : block_size_ - chunks_.back().num_tokens;
    const int64_t overflow = n - room;
    return overflow <= 0 ? 0 : (overflow + block_size_ - 1) / block_size_;
  }
  void AppendTokens(int64_t n, const std::vector<BlockId>& new_gpu_blocks,
                    std::vector<SlotRef>* slots);

  // Appends a chunk that *views* an already-populated (shared) GPU block:
  // the tokens count as processed KV without any prefill. The caller owns
  // refcounting on `block`. A partial view (tokens < block_size) is legal
  // only as the final attached chunk — the next append into it goes through
  // the cache's copy-on-write path. Requires a full (or empty) tail.
  void AttachSharedChunk(BlockId block, int64_t tokens);

  // Rebuilds bookkeeping for `kv_len` migrated-in tokens: chunks start in
  // the dropped state (no blocks); the cache then materializes CPU copies
  // for whatever suffix actually arrived. Only legal on an empty state.
  void InitializeImported(int64_t kv_len);

  // Last-activity timestamp (seconds); drives the eviction policy's T.
  double last_active() const { return last_active_; }
  void set_last_active(double t) {
    if (t != last_active_) {
      last_active_ = t;
      MarkStale();
    }
  }

  // Pins prevent eviction while a request is actively using the context.
  void Pin() {
    if (pin_count_++ == 0) {
      MarkStale();
    }
  }
  void Unpin() {
    if (--pin_count_ == 0) {
      MarkStale();
    }
  }
  bool pinned() const { return pin_count_ > 0; }
  // Changed since the owning cache last re-scanned its holder entries.
  bool stale() const { return stale_slot_ >= 0; }

 private:
  friend class TwoTierKvCache;  // maintains holder_slot_ and the stale list

  // Every change that can alter an eviction candidate (location, tokens,
  // pin, last_active) lands here. A state owned by a TwoTierKvCache joins
  // the cache's stale list once, so the cache re-scans this conversation's
  // holder entries before the next eviction pass reads them; a standalone
  // state has no list.
  void MarkStale() {
    if (stale_list_ != nullptr && stale_slot_ < 0) {
      stale_slot_ = static_cast<int64_t>(stale_list_->size());
      stale_list_->push_back(this);
    }
  }

  int64_t block_size_;
  std::vector<Chunk> chunks_;
  int64_t kv_len_ = 0;
  int64_t leading_dropped_ = 0;
  int64_t leading_dropped_or_ssd_ = 0;
  std::array<int64_t, kNumChunkLocations> count_at_{};
  // Per ChunkLocation: no chunk before this index is in that location.
  mutable std::array<int64_t, kNumChunkLocations> first_at_hint_{};
  // This conversation's index in TwoTierKvCache's holder list of each
  // location it holds a chunk in, or -1.
  std::array<int64_t, kNumChunkLocations> holder_slot_ = {-1, -1, -1, -1, -1};
  // The owning cache's stale list and this state's index in it, or -1.
  std::vector<ContextState*>* stale_list_ = nullptr;
  int64_t stale_slot_ = -1;
  double last_active_ = 0.0;
  int pin_count_ = 0;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_KVCACHE_CONTEXT_STATE_H_
