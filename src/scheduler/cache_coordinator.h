// Scheduler-side cache policy application (paper §4.3).
//
// The TwoTierKvCache provides mechanisms; this coordinator decides *which*
// chunks move, consulting the eviction policy:
//
//  * Ahead-of-time swap-out (§4.3.2): when free+reclaimable GPU slots fall
//    below a threshold, copy the lowest-retention GPU chunks to the CPU so
//    their slots become reclaimable for free later.
//  * GPU allocation pressure: reclaim clean-copy slots first (instant),
//    force-swap (synchronous PCIe stall) second, drop (recompute later)
//    last.
//  * CPU pressure: drop the lowest-retention frontier chunks (the paper
//    drops from the leading end of a conversation because leading tokens
//    are cheapest to recompute).
//
// Pinned conversations (those with a request in the running batch) are never
// victimized. Every choice follows one order, ascending (score, conversation
// id, chunk index), found by merging per-conversation frontiers through a
// heap instead of rescanning every chunk (DESIGN.md §15).

#ifndef PENSIEVE_SRC_SCHEDULER_CACHE_COORDINATOR_H_
#define PENSIEVE_SRC_SCHEDULER_CACHE_COORDINATOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/eviction/policy.h"
#include "src/kvcache/two_tier_cache.h"

namespace pensieve {

class CacheCoordinator {
 public:
  struct Options {
    // false = the Pensieve (GPU cache) variant: evicted chunks are dropped
    // rather than swapped to the CPU tier.
    bool use_cpu_cache = true;
    // Ahead-of-time swap-out keeps free+reclaimable above this fraction
    // (paper uses a 25% trigger).
    double swap_out_target = 0.25;
    // Classic-LRU granularity (the Figure 14 baseline): once a conversation
    // is chosen for dropping, its *entire* cached history is dropped, as in
    // CachedAttention (paper Table 3), instead of Pensieve's chunk-level
    // dropping.
    bool conversation_granularity = false;
  };

  // `may_forget` (optional) is consulted before erasing a fully-dropped
  // conversation's bookkeeping: the engine returns false while a request for
  // that conversation is still queued or running.
  CacheCoordinator(TwoTierKvCache* cache, const EvictionPolicy* policy, Options options,
                   std::function<bool(ConversationId)> may_forget = nullptr);

  struct FreeOutcome {
    bool ok = false;
    int64_t reclaimed_blocks = 0;
    // Tokens force-swapped synchronously (the engine charges their PCIe
    // transfer as a stall: ahead-of-time swapping failed to keep up).
    int64_t forced_swap_out_tokens = 0;
    int64_t dropped_tokens = 0;
    // The (conversation, chunk) pairs behind forced_swap_out_tokens. The
    // chunks are kCpu once this returns; if the engine's d2h transfer for
    // them fails, it marks each one corrupt so a later swap-in degrades to
    // recomputation instead of restoring garbage.
    std::vector<std::pair<ConversationId, int64_t>> forced_swapped;
  };
  // Makes at least `n` blocks available on the GPU free list.
  FreeOutcome EnsureFreeGpuBlocks(int64_t n, double now);

  // Ahead-of-time eviction toward the target free fraction. With the CPU
  // tier enabled this swaps out lowest-retention GPU chunks (returning the
  // tokens to schedule on the device-to-host link); in GPU-cache-only mode
  // it drops lowest-retention frontier chunks instead (the paper's
  // "Pensieve (GPU cache)" variant discards evicted tokens).
  struct EvictOutcome {
    int64_t swapped_out_tokens = 0;
    int64_t dropped_tokens = 0;
    // The (conversation, chunk) pairs behind swapped_out_tokens. The chunks
    // are still kGpuAndCpu (reclamation is lazy); if the engine's d2h
    // transfer for them fails, it rolls the copies back with DropCpuCopy —
    // nothing is lost, the chunks simply stay unevicted.
    std::vector<std::pair<ConversationId, int64_t>> swapped;
  };
  EvictOutcome AheadOfTimeEvict(double now);

  // Frees at least `n` CPU blocks by dropping low-retention chunks — or,
  // when the cache has a flash tier, demoting them to it instead.
  bool EnsureFreeCpuBlocks(int64_t n, double now);

  // Demotions performed since the last call (any coordinator entry point may
  // spill under CPU pressure). The engine drains this after each call and
  // charges the chunks' SSD writes as background traffic; on a failed
  // transfer it marks them corrupt.
  struct SpillOutcome {
    int64_t demoted_tokens = 0;
    // Demotions refused (flash full of pinned chunks / corrupt CPU copy)
    // that fell back to dropping.
    int64_t failed_demotes = 0;
    // The (conversation, chunk) pairs now kSsd.
    std::vector<std::pair<ConversationId, int64_t>> demoted;
  };
  SpillOutcome TakeSpill();

  const Options& options() const { return options_; }

 private:
  struct Victim {
    ConversationId conversation;
    int64_t chunk_index;
    double score;
  };
  // The single victim order: ascending score, ties broken by conversation id
  // and then chunk index, so no choice depends on hash-map iteration order.
  // (Spelled out rather than as a std::tie comparison, which compiles to a
  // slower three-way compare; scores are never NaN.)
  static bool VictimBefore(const Victim& a, const Victim& b) {
    if (a.score != b.score) {
      return a.score < b.score;
    }
    if (a.conversation != b.conversation) {
      return a.conversation < b.conversation;
    }
    return a.chunk_index < b.chunk_index;
  }
  struct VictimAfter {
    bool operator()(const Victim& a, const Victim& b) const { return VictimBefore(b, a); }
  };
  // Min-queue in victim order: the victim index (DESIGN.md §15). A seed
  // stays unordered until its second pop: most passes take one victim, and
  // one scan for it costs less than heapifying every candidate. Any correct
  // min-queue pops the same sequence, since the order is total.
  class VictimHeap {
   public:
    VictimHeap() = default;
    explicit VictimHeap(std::vector<Victim> seed) : items_(std::move(seed)) {}

    bool empty() const { return items_.empty(); }
    void push(const Victim& victim) {
      items_.push_back(victim);
      if (heap_) {
        std::push_heap(items_.begin(), items_.end(), VictimAfter{});
      }
    }
    // Removes and returns the first victim; the queue must not be empty.
    Victim pop() {
      if (!heap_ && popped_) {
        std::make_heap(items_.begin(), items_.end(), VictimAfter{});
        heap_ = true;
      }
      Victim first;
      if (heap_) {
        std::pop_heap(items_.begin(), items_.end(), VictimAfter{});
        first = items_.back();
      } else {
        const auto it = std::min_element(items_.begin(), items_.end(), VictimBefore);
        first = *it;
        *it = items_.back();
        popped_ = true;
      }
      items_.pop_back();
      return first;
    }

   private:
    std::vector<Victim> items_;
    bool popped_ = false;
    bool heap_ = false;
  };

  // A snapshot pass over every chunk in one location (kGpu or kGpuAndCpu).
  // Within a conversation, unshared chunks score in index order, so the heap
  // holds one cursor per conversation over its unshared chunks plus each
  // shared view (a view can score below the unshared chunks in front of it).
  struct LocationPass {
    VictimHeap heap;
    // The views seeded at pass start, sorted. They keep their seed-time
    // entries and the cursor steps over them even after one loses its other
    // reader mid-pass (a view never gains one).
    std::vector<std::pair<ConversationId, int64_t>> views;

    bool empty() const { return heap.empty(); }
    bool SeededView(ConversationId id, int64_t chunk_index) const {
      return std::binary_search(views.begin(), views.end(), std::pair{id, chunk_index});
    }
  };
  LocationPass SeedLocation(ChunkLocation location, double now) const;
  // Pops the next candidate; a popped cursor is replaced by its
  // conversation's next unshared chunk in `location`, skipping the pass's
  // views and chunks a nested DropCpuCopy moved there after the pass started.
  Victim PopLocation(ChunkLocation location, double now, LocationPass* pass) const;

  // Queries with at most one candidate per conversation
  // (ContextState::FrontierChunk); kFirstGpu serves step 3b.
  VictimHeap SeedFrontier(Frontier kind, double now) const;
  // (Re-)enters a conversation whose candidate this coordinator just changed.
  void PushFrontier(Frontier kind, ConversationId id, double now, VictimHeap* heap) const;
  // Pops until an entry is still its conversation's candidate at its
  // recorded score. Superseded entries are discarded; an entry whose shared
  // block lost its other readers (the score can only rise) is re-pushed.
  std::optional<Victim> PopFrontier(Frontier kind, double now, VictimHeap* heap) const;

  double Score(ConversationId id, const ContextState& state, int64_t chunk_index,
               double now) const;

  // Drops a kGpuDrop victim: its frontier chunk, or with
  // conversation_granularity its whole history. Returns the tokens dropped,
  // or nullopt when DropChunk refused.
  std::optional<int64_t> DropFrontierVictim(const Victim& victim);
  // Demotes (into the cache's flash tier, if any) or drops one kCpuEvict
  // victim, recording the spill. False when the drop failed.
  bool EvictCpuFrontierChunk(const Victim& victim);

  // The one swap-out loop (ahead-of-time and forced): copies kGpu chunks to
  // the CPU in victim order until `target` blocks are available. With
  // `reclaim` it measures the free list and frees each copied chunk's GPU
  // block (the forced path); otherwise it measures AvailableGpuBlocks() and
  // leaves the copies kGpuAndCpu (lazy reclamation). Appends the chunks to
  // `*chunks` and returns their tokens.
  int64_t SwapOutPass(int64_t target, bool reclaim, double now,
                      std::vector<std::pair<ConversationId, int64_t>>* chunks);

  // Drops every cached chunk of a conversation (classic-LRU granularity).
  void DropWholeConversation(ConversationId id);

  // Erases a conversation whose chunks are all dropped (pure bookkeeping at
  // that point) so eviction scans stay proportional to *resident*
  // conversations, unless the engine still has a request for it in flight.
  void MaybeForget(ConversationId id);

  TwoTierKvCache* cache_;
  const EvictionPolicy* policy_;
  Options options_;
  std::function<bool(ConversationId)> may_forget_;
  SpillOutcome pending_spill_;
  // State of the SwapOutPass in progress, shared with the
  // EnsureFreeCpuBlocks calls nested in it.
  struct SwapPass {
    // Chunks the nested CPU-pressure fallback turned back into kGpu: they
    // were no candidates when the pass started.
    std::set<std::pair<ConversationId, int64_t>> copies_dropped;
    // The CPU-frontier heap, seeded by the first nested call and kept up to
    // date across the rest (virtual time does not move within a pass).
    std::optional<VictimHeap> cpu_frontier;
  };
  std::optional<SwapPass> swap_pass_;
  // Retry guard for ahead-of-time eviction: when a pass could not reach the
  // target (e.g. CPU tier full), skip further passes within the same virtual
  // instant unless the available block count changed.
  static constexpr double kNeverFailed = -1.0;
  double aot_failed_at_ = kNeverFailed;
  int64_t aot_last_failed_available_ = -1;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SCHEDULER_CACHE_COORDINATOR_H_
