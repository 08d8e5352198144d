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
// heap instead of rescanning every chunk; conversations enter the heap in
// last_active order, only while the policy's floor says one could still win
// (DESIGN.md §15).

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
  // tokens to schedule on the device-to-host link), making CPU room only by
  // evicting CPU-only chunks: it stops rather than discard a clean copy; in
  // GPU-cache-only mode it drops lowest-retention frontier chunks instead
  // (the paper's "Pensieve (GPU cache)" variant discards evicted tokens).
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
  // when the cache has a flash tier, demoting them to it instead — and then
  // by discarding clean CPU copies (not inside an ahead-of-time pass).
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
  // Min-queue in victim order. Any correct min-queue pops the same
  // sequence, since the order is total.
  class VictimHeap {
   public:
    bool empty() const { return items_.empty(); }
    // The first victim; the queue must not be empty.
    const Victim& top() const { return items_.front(); }
    void push(const Victim& victim) {
      items_.push_back(victim);
      std::push_heap(items_.begin(), items_.end(), VictimAfter{});
    }
    // Removes and returns the first victim; the queue must not be empty.
    Victim pop() {
      std::pop_heap(items_.begin(), items_.end(), VictimAfter{});
      const Victim first = items_.back();
      items_.pop_back();
      return first;
    }

   private:
    std::vector<Victim> items_;
  };

  // A pass's walk over one holder list's recency index (the victim index,
  // DESIGN.md §15): the entries it has not entered yet. It resumes after
  // the last entry it took, so entries may come and go behind it.
  struct RecencyScan {
    ChunkLocation location = ChunkLocation::kGpu;
    size_t next = 0;
    int64_t version = -1;
    bool took = false;
    double last_active = 0.0;
    ConversationId last_id = 0;
  };
  // The scan's next entry if its conversation can still score at most the
  // best victim entered so far (ties go to the scan: its conversation may
  // have the smaller id), and the scan moves past it; otherwise null.
  const TwoTierKvCache::RecencyEntry* TakeIfFloorAllows(RecencyScan* scan,
                                                        const VictimHeap& heap,
                                                        double now) const;

  // A snapshot pass over every chunk in one location (kGpu or kGpuAndCpu).
  // Within a conversation, unshared chunks score in index order, so the heap
  // holds one cursor per entered conversation over its unshared chunks plus
  // each shared view (a view can score below the unshared chunks in front
  // of it, and below the recency floor, so views are entered at seed time).
  struct LocationPass {
    VictimHeap heap;
    RecencyScan scan;
    // The RefreshHolders pass the seed ran: an entry not re-scanned or
    // marked stale since still carries its seed-time cursor.
    int64_t seeded_at = 0;
    // The views seeded at pass start, sorted. They keep their seed-time
    // entries and the cursor steps over them even after one loses its other
    // reader mid-pass (a view never gains one).
    std::vector<std::pair<ConversationId, int64_t>> views;

    bool SeededView(ConversationId id, int64_t chunk_index) const {
      return std::binary_search(views.begin(), views.end(), std::pair{id, chunk_index});
    }
  };
  LocationPass SeedLocation(ChunkLocation location, double now) const;
  // Pops the next candidate, or nullopt when the pass has none left. A
  // popped cursor is replaced by its conversation's next unshared chunk in
  // `location`, skipping the pass's views and chunks a nested DropCpuCopy
  // moved there after the pass started.
  std::optional<Victim> PopLocation(ChunkLocation location, double now,
                                    LocationPass* pass) const;
  // The first chunk of `state` in `location` past `after` (-1: from the
  // start) that is the pass's: not a seeded view, not a dropped copy.
  int64_t NextCursor(ChunkLocation location, ConversationId id, const ContextState& state,
                     int64_t after, const LocationPass& pass) const;

  // A query with at most one candidate per conversation
  // (ContextState::FrontierChunk); kFirstGpu serves step 3b. Entries are
  // re-checked on pop, so the pass sees each conversation as it is then.
  struct FrontierPass {
    Frontier kind = Frontier::kCpuEvict;
    VictimHeap heap;
    // The lists that carry the query's candidates; none when no entry can
    // yield one.
    std::vector<RecencyScan> scans;
  };
  FrontierPass SeedFrontier(Frontier kind, double now) const;
  // (Re-)enters a conversation whose candidate this coordinator just changed.
  void PushFrontier(ConversationId id, double now, FrontierPass* pass) const;
  // Pops until an entry is still its conversation's candidate at its
  // recorded score. Superseded entries are discarded; an entry whose shared
  // block lost its other readers (the score can only rise) is re-pushed.
  std::optional<Victim> PopFrontier(double now, FrontierPass* pass) const;

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
    // A forced pass; only it lets CPU pressure discard clean copies.
    bool reclaim = false;
    // Chunks the nested CPU-pressure fallback turned back into kGpu: they
    // were no candidates when the pass started.
    std::set<std::pair<ConversationId, int64_t>> copies_dropped;
    // The CPU-frontier pass, seeded by the first nested call and kept up to
    // date across the rest (virtual time does not move within a pass).
    std::optional<FrontierPass> cpu_frontier;
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
