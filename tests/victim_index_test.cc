// Differential test for the coordinator's victim index: on seeded random
// cache layouts (every ChunkLocation, pinned conversations, SSD prefixes,
// corrupt CPU copies, shared template views including an unshared chunk 0
// in front of a shared chunk 1, and views that lose their other reader
// mid-pass), every CacheCoordinator entry point must act on exactly the
// (conversation, chunk) sequence of a brute-force oracle that rescans and
// sorts every chunk, with the same tie-break. CheckInvariants runs between
// calls and recomputes the cache's holder entries, so each change Mutate
// makes straight through ContextState (pins, last_active, appends) must
// reach the cache's stale list.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/eviction/cost_estimator.h"
#include "src/eviction/policy.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/model/model_config.h"
#include "src/scheduler/cache_coordinator.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

constexpr int64_t kBlock = 4;

// How often the oracle took the paths the index has to special-case; the
// test requires each to be exercised.
struct Coverage {
  // Snapshot passes: a nested CPU-pressure fallback discarded a CPU copy,
  // turning a chunk that was no candidate into kGpu mid-pass.
  int64_t copies_dropped_in_swap_pass = 0;
  // Snapshot passes: a stale candidate was skipped while the CPU tier was
  // full (reserving space for it first would have evicted something).
  int64_t stale_skips_with_cpu_full = 0;
  // Step 3b ran after a step-3 frontier drop in the same call.
  int64_t deep_drops_after_frontier_drop = 0;
  // Snapshot passes: a candidate that was a shared view at pass start lost
  // its other reader before the pass reached it, while an unshared candidate
  // in front of it in the same conversation was still pending (so the
  // index's cursor had yet to step over the view's index).
  int64_t views_unshared_mid_pass = 0;
  // The index's cached holder entries (DESIGN.md §15), counted on the
  // index's transcripts only. An entry an entry point's refresh kept as an
  // earlier call had scanned it (reused, not re-walked):
  int64_t entries_reused_across_calls = 0;
  // An in-window entry re-scanned in a call because a share crossing after
  // the previous call's last refresh moved the share epoch:
  int64_t window_rescans_after_crossing = 0;
  // A conversation with holder entries released in a call (its emptying
  // drop put it on the stale list; CheckInvariants shows it taken off):
  int64_t released_stale_entries = 0;
  // The recency scan (DESIGN.md §15), derived from the state before a call
  // and the call's mechanism log. A call that took victims from a holder
  // list of at least 64 unpinned entries with spread and tied last_active:
  int64_t crowded_passes = 0;
  // Two swap-outs at one score where the later one's conversation is
  // entered first (older, or a view) and the earlier one's floor equals
  // that score: only entering on a floor equal to the best score lets the
  // smaller id go first.
  int64_t tied_floor_entries = 0;
  // A victim of a conversation active less than 1 ms before the call, under
  // the retention value (its T is clamped, and so is its floor):
  int64_t sub_ms_victims = 0;
  // A swap pass's CPU reservation discarded a copy of a conversation the
  // scan had not reached (its floor exceeds every score popped by then),
  // and the pass later swapped that conversation out:
  int64_t changed_before_reached = 0;
};
Coverage coverage;

// The reference semantics: every pass rescans every chunk of every unpinned
// conversation and orders candidates by (score, conversation, chunk).
// Ahead-of-time and forced swap-out fix their candidate list at pass start.
class BruteForceCoordinator {
 public:
  using Options = CacheCoordinator::Options;

  BruteForceCoordinator(TwoTierKvCache* cache, const EvictionPolicy* policy,
                        Options options, std::function<bool(ConversationId)> may_forget)
      : cache_(cache), policy_(policy), options_(options),
        may_forget_(std::move(may_forget)) {}

  CacheCoordinator::EvictOutcome AheadOfTimeEvict(double now) {
    CacheCoordinator::EvictOutcome outcome;
    const int64_t capacity = cache_->gpu_allocator().capacity();
    if (capacity == 0) {
      return outcome;
    }
    const int64_t target =
        static_cast<int64_t>(options_.swap_out_target * static_cast<double>(capacity));
    if (cache_->AvailableGpuBlocks() >= target) {
      failed_at_ = -1.0;
      return outcome;
    }
    if (now == failed_at_ && cache_->AvailableGpuBlocks() == failed_available_) {
      return outcome;
    }
    if (!options_.use_cpu_cache) {
      while (cache_->AvailableGpuBlocks() < target) {
        const std::optional<Victim> drop = PickFrontier(now);
        if (!drop.has_value()) {
          break;
        }
        const std::optional<int64_t> tokens = DropFrontier(*drop);
        if (!tokens.has_value()) {
          break;
        }
        outcome.dropped_tokens += *tokens;
      }
    } else {
      in_swap_pass_ = true;
      keep_copies_ = true;
      const std::vector<Victim> candidates = AllAt(ChunkLocation::kGpu, now);
      ViewWatch watch(cache_, candidates);
      const int64_t deficit = target - cache_->AvailableGpuBlocks();
      (void)EnsureFreeCpuBlocks(std::min(deficit, cache_->cpu_allocator().capacity()), now);
      for (size_t p = 0; p < candidates.size(); ++p) {
        const Victim& v = candidates[p];
        watch.Check(p);
        if (cache_->AvailableGpuBlocks() >= target) {
          break;
        }
        if (!StillAt(v, ChunkLocation::kGpu)) {
          coverage.stale_skips_with_cpu_full += cache_->cpu_allocator().num_free() == 0;
          continue;
        }
        if (cache_->cpu_allocator().num_free() == 0 && !EnsureFreeCpuBlocks(1, now)) {
          break;
        }
        const ContextState* state = cache_->Find(v.conversation);
        if (state == nullptr) {
          continue;
        }
        const int64_t tokens = state->chunk(v.chunk_index).num_tokens;
        if (cache_->SwapOut(v.conversation, v.chunk_index).ok()) {
          outcome.swapped_out_tokens += tokens;
          outcome.swapped.emplace_back(v.conversation, v.chunk_index);
        }
      }
      in_swap_pass_ = false;
      keep_copies_ = false;
    }
    if (cache_->AvailableGpuBlocks() < target) {
      failed_available_ = cache_->AvailableGpuBlocks();
      failed_at_ = now;
    }
    return outcome;
  }

  bool EnsureFreeCpuBlocks(int64_t n, double now) {
    while (cache_->cpu_allocator().num_free() < n) {
      std::optional<Victim> best;
      for (const auto& [id, state] : cache_->conversations()) {
        if (state.pinned()) {
          continue;
        }
        int64_t f = 0;
        while (f < state.num_chunks() &&
               (state.chunk(f).Dropped() || state.chunk(f).OnSsd())) {
          ++f;
        }
        if (f < state.num_chunks() && state.chunk(f).location == ChunkLocation::kCpu) {
          Keep(&best, Victim{id, f, Score(id, state, f, now)});
        }
      }
      if (best.has_value()) {
        if (options_.conversation_granularity) {
          DropWhole(best->conversation);
        } else if (!EvictCpuChunk(*best)) {
          return false;
        }
        MaybeForget(best->conversation);
        continue;
      }
      if (keep_copies_) {
        return false;  // ahead-of-time swap-out discards no copy
      }
      std::optional<Victim> dual;
      for (const Victim& v : AllAt(ChunkLocation::kGpuAndCpu, now)) {
        Keep(&dual, v);
      }
      if (!dual.has_value() || !cache_->DropCpuCopy(dual->conversation, dual->chunk_index).ok()) {
        return false;
      }
      coverage.copies_dropped_in_swap_pass += in_swap_pass_;
    }
    return true;
  }

  CacheCoordinator::FreeOutcome EnsureFreeGpuBlocks(int64_t n, double now) {
    CacheCoordinator::FreeOutcome outcome;
    if (cache_->gpu_allocator().num_free() < n) {
      const std::vector<Victim> reclaimable = AllAt(ChunkLocation::kGpuAndCpu, now);
      ViewWatch watch(cache_, reclaimable);
      for (size_t p = 0; p < reclaimable.size(); ++p) {
        const Victim& v = reclaimable[p];
        watch.Check(p);
        if (cache_->gpu_allocator().num_free() >= n) {
          break;
        }
        if (cache_->ReclaimGpu(v.conversation, v.chunk_index).ok()) {
          ++outcome.reclaimed_blocks;
        }
      }
    }
    if (options_.use_cpu_cache && cache_->gpu_allocator().num_free() < n) {
      in_swap_pass_ = true;
      const std::vector<Victim> swappable = AllAt(ChunkLocation::kGpu, now);
      ViewWatch watch(cache_, swappable);
      const int64_t deficit = n - cache_->gpu_allocator().num_free();
      (void)EnsureFreeCpuBlocks(std::min(deficit, cache_->cpu_allocator().capacity()), now);
      for (size_t p = 0; p < swappable.size(); ++p) {
        const Victim& v = swappable[p];
        watch.Check(p);
        if (cache_->gpu_allocator().num_free() >= n) {
          break;
        }
        if (!StillAt(v, ChunkLocation::kGpu)) {
          coverage.stale_skips_with_cpu_full += cache_->cpu_allocator().num_free() == 0;
          continue;
        }
        if (cache_->cpu_allocator().num_free() == 0 && !EnsureFreeCpuBlocks(1, now)) {
          break;
        }
        if (!StillAt(v, ChunkLocation::kGpu)) {
          continue;
        }
        const int64_t tokens = cache_->Find(v.conversation)->chunk(v.chunk_index).num_tokens;
        if (!cache_->SwapOut(v.conversation, v.chunk_index).ok() ||
            !cache_->ReclaimGpu(v.conversation, v.chunk_index).ok()) {
          continue;
        }
        outcome.forced_swap_out_tokens += tokens;
        outcome.forced_swapped.emplace_back(v.conversation, v.chunk_index);
      }
      in_swap_pass_ = false;
    }
    bool dropped_frontier = false;
    while (cache_->gpu_allocator().num_free() < n) {
      if (const std::optional<Victim> drop = PickFrontier(now)) {
        const std::optional<int64_t> tokens = DropFrontier(*drop);
        if (!tokens.has_value()) {
          return outcome;
        }
        outcome.dropped_tokens += *tokens;
        dropped_frontier = true;
        continue;
      }
      if (cache_->flash_enabled()) {
        std::optional<Victim> deep;
        for (const auto& [id, state] : cache_->conversations()) {
          if (state.pinned()) {
            continue;
          }
          int64_t i = 0;
          while (i < state.num_chunks() && !state.chunk(i).OnGpu()) {
            ++i;
          }
          if (i < state.num_chunks()) {
            Keep(&deep, Victim{id, i, Score(id, state, i, now)});
          }
        }
        int64_t dropped = 0;
        if (deep.has_value() &&
            cache_->DropThroughPrefix(deep->conversation, deep->chunk_index, &dropped).ok()) {
          outcome.dropped_tokens += dropped;
          MaybeForget(deep->conversation);
          coverage.deep_drops_after_frontier_drop += dropped_frontier;
          continue;
        }
      }
      return outcome;
    }
    outcome.ok = true;
    return outcome;
  }

  CacheCoordinator::SpillOutcome TakeSpill() { return std::exchange(spill_, {}); }

 private:
  struct Victim {
    ConversationId conversation;
    int64_t chunk_index;
    double score;
    bool operator<(const Victim& o) const {
      return std::tie(score, conversation, chunk_index) <
             std::tie(o.score, o.conversation, o.chunk_index);
    }
  };

  // Coverage only: watches a snapshot pass (candidates in visiting order)
  // for views_unshared_mid_pass.
  class ViewWatch {
   public:
    ViewWatch(const TwoTierKvCache* cache, const std::vector<Victim>& candidates)
        : cache_(cache), candidates_(candidates), counted_(candidates.size(), false) {
      for (const Victim& v : candidates) {
        was_shared_.push_back(Shared(v).value_or(false));
      }
    }

    // Called before the pass visits candidates_[next].
    void Check(size_t next) {
      for (size_t q = next; q < candidates_.size(); ++q) {
        const Victim& view = candidates_[q];
        if (!was_shared_[q] || counted_[q] || Shared(view).value_or(true)) {
          continue;
        }
        counted_[q] = true;
        for (size_t r = next; r < candidates_.size(); ++r) {
          const Victim& v = candidates_[r];
          if (!was_shared_[r] && v.conversation == view.conversation &&
              v.chunk_index < view.chunk_index) {
            ++coverage.views_unshared_mid_pass;
            break;
          }
        }
      }
    }

   private:
    // Whether the candidate's chunk is a shared view; nullopt once it has
    // left the GPU (or its conversation is forgotten).
    std::optional<bool> Shared(const Victim& v) const {
      const ContextState* state = cache_->Find(v.conversation);
      if (state == nullptr || !state->chunk(v.chunk_index).OnGpu()) {
        return std::nullopt;
      }
      return cache_->SharedGpuBlock(state->chunk(v.chunk_index).gpu_block);
    }

    const TwoTierKvCache* cache_;
    const std::vector<Victim>& candidates_;
    std::vector<bool> was_shared_;
    std::vector<bool> counted_;
  };

  static void Keep(std::optional<Victim>* best, const Victim& v) {
    if (!best->has_value() || v < **best) {
      *best = v;
    }
  }

  double Score(ConversationId id, const ContextState& state, int64_t i, double now) const {
    ChunkCandidate c;
    c.conversation_id = id;
    c.chunk_index = i;
    c.context_len = state.ChunkContextLen(i);
    c.last_active = state.last_active();
    c.shared = state.chunk(i).OnGpu() && cache_->SharedGpuBlock(state.chunk(i).gpu_block);
    return policy_->Score(c, now);
  }

  // Every chunk in `location` of every unpinned conversation, sorted.
  std::vector<Victim> AllAt(ChunkLocation location, double now) const {
    std::vector<Victim> all;
    for (const auto& [id, state] : cache_->conversations()) {
      if (state.pinned()) {
        continue;
      }
      for (int64_t i = 0; i < state.num_chunks(); ++i) {
        if (state.chunk(i).location == location) {
          all.push_back(Victim{id, i, Score(id, state, i, now)});
        }
      }
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  bool StillAt(const Victim& v, ChunkLocation location) const {
    const ContextState* state = cache_->Find(v.conversation);
    return state != nullptr && state->chunk(v.chunk_index).location == location;
  }

  std::optional<Victim> PickFrontier(double now) const {
    std::optional<Victim> best;
    for (const auto& [id, state] : cache_->conversations()) {
      int64_t f = 0;
      while (f < state.num_chunks() && state.chunk(f).Dropped()) {
        ++f;
      }
      if (!state.pinned() && f < state.num_chunks() && state.chunk(f).OnGpu()) {
        Keep(&best, Victim{id, f, Score(id, state, f, now)});
      }
    }
    return best;
  }

  std::optional<int64_t> DropFrontier(const Victim& v) {
    const ContextState* state = cache_->Find(v.conversation);
    int64_t tokens = 0;
    if (options_.conversation_granularity) {
      tokens = state->TokensOnGpu() + state->TokensCpuOnly();
      DropWhole(v.conversation);
    } else {
      tokens = state->chunk(v.chunk_index).num_tokens;
      if (!cache_->DropChunk(v.conversation, v.chunk_index).ok()) {
        return std::nullopt;
      }
    }
    MaybeForget(v.conversation);
    return tokens;
  }

  bool EvictCpuChunk(const Victim& v) {
    const Chunk& chunk = cache_->Find(v.conversation)->chunk(v.chunk_index);
    const int64_t tokens = chunk.num_tokens;
    if (cache_->flash_enabled()) {
      if (cache_->DemoteToFlash(v.conversation, v.chunk_index).ok()) {
        spill_.demoted_tokens += tokens;
        spill_.demoted.emplace_back(v.conversation, v.chunk_index);
        return true;
      }
      ++spill_.failed_demotes;
    }
    return cache_->DropThroughPrefix(v.conversation, v.chunk_index).ok();
  }

  void DropWhole(ConversationId id) {
    const ContextState* state = cache_->Find(id);
    for (int64_t i = 0; i < state->num_chunks(); ++i) {
      if (!state->chunk(i).Dropped() && !cache_->DropChunk(id, i).ok()) {
        break;
      }
    }
  }

  void MaybeForget(ConversationId id) {
    const ContextState* state = cache_->Find(id);
    if (state == nullptr || state->pinned()) {
      return;
    }
    for (const Chunk& c : state->chunks()) {
      if (!c.Dropped()) {
        return;
      }
    }
    if (may_forget_ == nullptr || may_forget_(id)) {
      cache_->Release(id);
    }
  }

  TwoTierKvCache* cache_;
  const EvictionPolicy* policy_;
  Options options_;
  std::function<bool(ConversationId)> may_forget_;
  CacheCoordinator::SpillOutcome spill_;
  double failed_at_ = -1.0;
  int64_t failed_available_ = -1;
  bool in_swap_pass_ = false;
  bool keep_copies_ = false;
};

KvCacheConfig LayoutConfig(int64_t cpu_blocks = 40, bool flash = true) {
  KvCacheConfig config;
  config.block_size = kBlock;
  config.num_gpu_blocks = 96;
  config.num_cpu_blocks = cpu_blocks;
  config.num_ssd_blocks = flash ? 24 : 0;
  config.ssd_segment_blocks = 4;
  return config;
}

// Brings chunk i of a conversation (all earlier chunks already placed) to
// `target`; steps the cache refuses (a full tier) leave it where it is.
void Place(TwoTierKvCache* cache, ConversationId id, int64_t i, ChunkLocation target) {
  if (target == ChunkLocation::kGpu) {
    return;
  }
  if (target == ChunkLocation::kDropped) {
    (void)cache->DropChunk(id, i);
    return;
  }
  if (!cache->SwapOut(id, i).ok() || target == ChunkLocation::kGpuAndCpu) {
    return;
  }
  if (!cache->ReclaimGpu(id, i).ok() || target == ChunkLocation::kCpu) {
    return;
  }
  (void)cache->DemoteToFlash(id, i);
}

// A seeded random layout. Conversation ids are scattered so the tie-break,
// not hash-map order, decides; last_active takes three values so scores tie.
void BuildLayout(uint64_t seed, bool copies_only, TwoTierKvCache* cache) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  const int64_t conversations = uniform(4, 14);
  const std::vector<uint64_t> chain = {11, 22, 33};
  bool published = false;
  for (int64_t k = 0; k < conversations; ++k) {
    const ConversationId id = 1 + (k * 37 + static_cast<int64_t>(seed) * 11) % 101;
    if (cache->Find(id) != nullptr) {
      continue;
    }
    std::vector<BlockId> blocks;
    if (published && uniform(0, 2) > 0 && cache->LookupSharedPrefix(chain, &blocks) > 0) {
      // A template reader: views over the publisher's still-live blocks.
      cache->AttachSharedPrefix(id, blocks, static_cast<int64_t>(blocks.size()) * kBlock);
      (void)cache->AppendTokenSlots(id, uniform(0, 5 * kBlock), nullptr);
      if (uniform(0, 2) == 0) {
        // Detach the reader from block 0 only: the publisher's chunk 0 is
        // then unshared while its chunk 1 stays shared.
        (void)cache->DropChunk(id, 0);
      }
    } else {
      if (!cache->AppendTokenSlots(id, uniform(1, 9 * kBlock), nullptr).ok()) {
        continue;
      }
      const ContextState* state = cache->Find(id);
      if (!published && state->num_chunks() >= 4) {
        std::vector<BlockId> prefix = cache->GpuBlockTable(id, 0);
        prefix.resize(chain.size());
        cache->PublishSharedPrefix(chain, prefix);
        published = true;
      }
    }
    ContextState& state = *cache->Find(id);
    state.set_last_active(static_cast<double>(uniform(1, 3)));
    const int64_t n = state.num_chunks();
    const int64_t dropped = uniform(0, 3) == 0 ? uniform(0, n / 2) : 0;
    const int64_t ssd = !copies_only && uniform(0, 2) == 0 ? uniform(0, 3) : 0;
    for (int64_t i = 0; i < n; ++i) {
      ChunkLocation target = ChunkLocation::kGpu;
      if (i < dropped) {
        target = ChunkLocation::kDropped;
      } else if (i < dropped + ssd) {
        target = ChunkLocation::kSsd;
      } else {
        switch (uniform(0, 3)) {
          case 0: target = ChunkLocation::kGpuAndCpu; break;
          case 1: target = copies_only ? ChunkLocation::kGpuAndCpu : ChunkLocation::kCpu; break;
          default: break;
        }
      }
      Place(cache, id, i, target);
      if (state.chunk(i).HasCpuCopy() && uniform(0, 9) == 0) {
        (void)cache->MarkCpuCorrupt(id, i);
      }
    }
    if (uniform(0, 5) == 0) {
      state.Pin();
    }
  }
  cache->CheckInvariants();
}

// Changes applied between entry-point calls: new tokens, fresh activity and
// pin flips, so the frontier offsets and hints see state they did not build.
void Mutate(std::mt19937_64* rng, TwoTierKvCache* cache) {
  std::vector<ConversationId> ids;
  for (const auto& [id, state] : cache->conversations()) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (ConversationId id : ids) {
    ContextState& state = *cache->Find(id);
    switch ((*rng)() % 6) {
      case 0:
        (void)cache->AppendTokenSlots(id, static_cast<int64_t>((*rng)() % 9), nullptr);
        break;
      case 1:
        state.set_last_active(state.last_active() + static_cast<double>((*rng)() % 3));
        break;
      case 2:
        if (state.pinned()) {
          state.Unpin();
        } else {
          state.Pin();
        }
        break;
      case 3:
        for (int64_t i : state.CpuOnlyChunks()) {
          (void)cache->SwapIn(id, i);
        }
        break;
      default:
        break;
    }
  }
}

// A crowded layout for the recency scan: 64 to 90 conversations, so one
// holder list holds far more entries than a pass enters. last_active takes
// tied values spread over time, three of them within 1 ms of the first
// call's now (4.0); a quarter of the conversations hold one token, whose
// chunk scores exactly the floor under cost-only, and under retention value
// when idle for less than 1 ms. A template publisher and readers add views,
// and corrupt CPU copies outlast a forced pass's reclaim step.
void BuildCrowdedLayout(uint64_t seed, bool copies_only, TwoTierKvCache* cache) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  constexpr double kActive[] = {1.0, 2.0, 2.0, 3.0, 4.0 - 6e-4, 4.0 - 2e-4, 4.0};
  const int64_t conversations = uniform(64, 90);
  const std::vector<uint64_t> chain = {11, 22, 33};
  bool published = false;
  for (int64_t k = 0; k < conversations; ++k) {
    const ConversationId id = (k * 53 + static_cast<int64_t>(seed) * 7) % 229;
    if (cache->Find(id) != nullptr) {
      continue;
    }
    std::vector<BlockId> blocks;
    if (!published) {
      if (!cache->AppendTokenSlots(id, 4 * kBlock, nullptr).ok()) {
        continue;
      }
      std::vector<BlockId> prefix = cache->GpuBlockTable(id, 0);
      prefix.resize(chain.size());
      cache->PublishSharedPrefix(chain, prefix);
      published = true;
    } else if (uniform(0, 3) == 0 && cache->LookupSharedPrefix(chain, &blocks) > 0) {
      cache->AttachSharedPrefix(id, blocks, static_cast<int64_t>(blocks.size()) * kBlock);
    } else {
      const int64_t tokens = uniform(0, 3) == 0 ? 1 : uniform(2, 3 * kBlock);
      if (!cache->AppendTokenSlots(id, tokens, nullptr).ok()) {
        continue;
      }
    }
    ContextState& state = *cache->Find(id);
    state.set_last_active(kActive[uniform(0, 6)]);
    const int64_t n = state.num_chunks();
    const int64_t dropped = uniform(0, 5) == 0 ? uniform(0, n / 2) : 0;
    for (int64_t i = 0; i < n; ++i) {
      ChunkLocation target = ChunkLocation::kGpu;
      if (i < dropped) {
        target = ChunkLocation::kDropped;
      } else if (!copies_only && i == dropped && uniform(0, 5) == 0) {
        target = ChunkLocation::kSsd;
      } else {
        switch (uniform(0, 3)) {
          case 0: target = ChunkLocation::kGpuAndCpu; break;
          case 1: target = copies_only ? ChunkLocation::kGpuAndCpu : ChunkLocation::kCpu; break;
          default: break;
        }
      }
      Place(cache, id, i, target);
      // A corrupt copy survives a forced pass's reclaim step, so the pass's
      // CPU reservation can discard it mid-pass.
      if (state.chunk(i).HasCpuCopy() && uniform(0, 3) == 0) {
        (void)cache->MarkCpuCorrupt(id, i);
      }
    }
    if (uniform(0, 7) == 0) {
      state.Pin();
    }
  }
  cache->CheckInvariants();
}

// Mutate, then re-stamp about a quarter of the conversations as active
// within 1 ms before the next call, at two tied instants.
void MutateCrowded(std::mt19937_64* rng, TwoTierKvCache* cache, double next_now) {
  Mutate(rng, cache);
  std::vector<ConversationId> ids;
  for (const auto& [id, state] : cache->conversations()) {
    ids.push_back(id);
  }
  for (ConversationId id : ids) {
    if ((*rng)() % 4 == 0) {
      cache->Find(id)->set_last_active(next_now - ((*rng)() % 2 == 0 ? 3e-4 : 7e-4));
    }
  }
}

struct Scenario {
  KvCacheConfig config;
  // Every third seed gets a small CPU tier and no CPU-only chunks, so CPU
  // pressure falls back to discarding clean copies mid-pass.
  int64_t copies_only_cpu_blocks;
  void (*build)(uint64_t seed, bool copies_only, TwoTierKvCache* cache);
  void (*mutate)(std::mt19937_64* rng, TwoTierKvCache* cache, double next_now);
};

Scenario RandomScenario() {
  return Scenario{LayoutConfig(), 8, &BuildLayout,
                  [](std::mt19937_64* rng, TwoTierKvCache* cache, double) { Mutate(rng, cache); }};
}

Scenario CrowdedScenario() {
  KvCacheConfig config = LayoutConfig(64);
  config.num_gpu_blocks = 400;
  return Scenario{config, 8, &BuildCrowdedLayout, &MutateCrowded};
}

struct Variant {
  EvictionPolicyKind policy;
  CacheCoordinator::Options options;
  // Whether the cache has a flash tier; the coordinator (and the oracle)
  // demote into it exactly when it does.
  bool flash;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  for (EvictionPolicyKind kind : {EvictionPolicyKind::kRetentionValue, EvictionPolicyKind::kLru,
                                  EvictionPolicyKind::kCostOnly,
                                  EvictionPolicyKind::kConversationLru}) {
    // Modes: GPU cache only (drops), CPU tier, CPU + flash demotion.
    for (int mode = 0; mode < 3; ++mode) {
      CacheCoordinator::Options o;
      o.swap_out_target = 0.6;
      o.use_cpu_cache = mode != 0;
      o.conversation_granularity = kind == EvictionPolicyKind::kConversationLru;
      variants.push_back({kind, o, /*flash=*/mode == 2});
    }
  }
  return variants;
}

constexpr ChunkLocation kHeldLocations[] = {ChunkLocation::kGpu, ChunkLocation::kGpuAndCpu,
                                           ChunkLocation::kCpu};

// Watches one entry-point call for the holder-entry coverage counters,
// reading only the entries and the cache's refresh and epoch counts.
class HolderWatch {
 public:
  explicit HolderWatch(const TwoTierKvCache& cache)
      : cache_(cache),
        passes_before_(cache.refresh_passes()),
        crossed_(cache.share_epoch() != cache.scanned_epoch()) {
    for (ChunkLocation location : kHeldLocations) {
      for (const TwoTierKvCache::Holder& holder : cache.Holders(location)) {
        // Only a crossing can make the first refresh re-scan an in-window
        // entry whose conversation is not stale.
        entries_[{location, holder.id}] = {
            holder.scanned_at, crossed_ && holder.in_window && !holder.state->stale()};
      }
    }
  }

  // Called after the entry point returns.
  void Count() const {
    if (cache_.refresh_passes() == passes_before_) {
      return;
    }
    // Every entry point refreshes before it changes any conversation, so an
    // entry scanned by the call's first refresh was scanned for what it was
    // when the call began.
    const int64_t first_pass = passes_before_ + 1;
    bool window_rescan = false;
    for (ChunkLocation location : kHeldLocations) {
      for (const TwoTierKvCache::Holder& holder : cache_.Holders(location)) {
        const auto it = entries_.find({location, holder.id});
        if (it == entries_.end()) {
          continue;
        }
        coverage.entries_reused_across_calls +=
            it->second.scanned_at > 0 && it->second.scanned_at == holder.scanned_at;
        window_rescan = window_rescan ||
                        (it->second.rescan_owed_to_crossing && holder.scanned_at == first_pass);
      }
    }
    coverage.window_rescans_after_crossing += window_rescan;
    // The drop that empties a conversation marks it stale right before the
    // release, and CheckInvariants matches the stale list to the states
    // after every call.
    std::set<ConversationId> released;
    for (const auto& [key, entry] : entries_) {
      if (cache_.Find(key.second) == nullptr) {
        released.insert(key.second);
      }
    }
    coverage.released_stale_entries += static_cast<int64_t>(released.size());
  }

 private:
  struct Entry {
    int64_t scanned_at;
    bool rescan_owed_to_crossing;
  };
  const TwoTierKvCache& cache_;
  const int64_t passes_before_;
  const bool crossed_;
  std::map<std::pair<ChunkLocation, ConversationId>, Entry> entries_;
};

// Watches one entry-point call for the recency-scan coverage counters,
// from the state before the call and the call's mechanism log.
class ScanWatch {
 public:
  ScanWatch(const TwoTierKvCache& cache, const EvictionPolicy& policy, double now)
      : policy_(policy), now_(now) {
    for (const auto& [id, state] : cache.conversations()) {
      Conv& conv = convs_[id];
      conv.last_active = state.last_active();
      conv.pinned = state.pinned();
      for (int64_t i = 0; i < state.num_chunks(); ++i) {
        const ChunkCandidate c = cache.Candidate(id, state, i);
        conv.chunks.push_back({state.chunk(i).location, c.shared, policy.Score(c, now)});
      }
    }
    for (ChunkLocation location : kHeldLocations) {
      std::vector<double> active;
      for (const auto& [id, conv] : convs_) {
        if (!conv.pinned && conv.Holds(location)) {
          active.push_back(conv.last_active);
        }
      }
      std::sort(active.begin(), active.end());
      const auto distinct = std::unique(active.begin(), active.end()) - active.begin();
      crowded_ = crowded_ || (active.size() >= 64 && distinct >= 2 &&
                              distinct < static_cast<std::ptrdiff_t>(active.size()));
    }
  }

  void Count(const std::vector<TwoTierKvCache::EvictEvent>& log) const {
    using Op = TwoTierKvCache::EvictOp;
    if (log.empty()) {
      return;
    }
    coverage.crowded_passes += crowded_;
    const bool retention = std::string(policy_.name()) == "retention-value";
    std::vector<const TwoTierKvCache::EvictEvent*> swaps;
    for (const auto& e : log) {
      coverage.sub_ms_victims += retention && now_ - convs_.at(e.conversation).last_active < 1e-3;
      if (e.op == Op::kSwapOut) {
        swaps.push_back(&e);
      }
    }
    for (size_t i = 0; i < swaps.size(); ++i) {
      for (size_t j = i + 1; j < swaps.size(); ++j) {
        const Conv& b = convs_.at(swaps[i]->conversation);
        const Conv& c = convs_.at(swaps[j]->conversation);
        const Chunk& bc = b.chunks[static_cast<size_t>(swaps[i]->chunk_index)];
        const Chunk& cc = c.chunks[static_cast<size_t>(swaps[j]->chunk_index)];
        coverage.tied_floor_entries +=
            bc.score == cc.score && swaps[i]->conversation < swaps[j]->conversation &&
            policy_.ScoreFloor(b.last_active, now_) == bc.score &&
            (c.last_active < b.last_active || cc.shared);
      }
    }
    // A copy discarded by a swap pass's CPU reservation is followed by the
    // swap-out of the victim popped before it (or, if that one turned stale,
    // of a later one, at a score no lower).
    for (size_t i = 0; i < log.size(); ++i) {
      if (log[i].op != Op::kDropCpuCopy) {
        continue;
      }
      size_t next = i + 1;
      while (next < log.size() && log[next].op != Op::kSwapOut) {
        ++next;
      }
      if (next == log.size()) {
        continue;
      }
      const Conv& popped = convs_.at(log[next].conversation);
      const Chunk& victim = popped.chunks[static_cast<size_t>(log[next].chunk_index)];
      const Conv& changed = convs_.at(log[i].conversation);
      if (victim.shared || changed.pinned || !changed.Holds(ChunkLocation::kGpu) ||
          log[i].conversation == log[next].conversation ||
          policy_.ScoreFloor(changed.last_active, now_) <= victim.score) {
        continue;
      }
      for (size_t later = next + 1; later < log.size(); ++later) {
        if (log[later].op == Op::kSwapOut && log[later].conversation == log[i].conversation) {
          ++coverage.changed_before_reached;
          break;
        }
      }
    }
  }

 private:
  struct Chunk {
    ChunkLocation location;
    bool shared;
    double score;
  };
  struct Conv {
    double last_active = 0.0;
    bool pinned = false;
    std::vector<Chunk> chunks;
    bool Holds(ChunkLocation location) const {
      return std::any_of(chunks.begin(), chunks.end(),
                         [&](const Chunk& c) { return c.location == location; });
    }
  };
  const EvictionPolicy& policy_;
  const double now_;
  std::map<ConversationId, Conv> convs_;
  bool crowded_ = false;
};

std::string Describe(const std::vector<TwoTierKvCache::EvictEvent>& log) {
  std::ostringstream out;
  for (const auto& e : log) {
    out << static_cast<int>(e.op) << ":" << e.conversation << "/" << e.chunk_index << " ";
  }
  return out.str();
}

// Runs one seeded scenario against a coordinator type and returns its
// transcript: the mechanism log plus every outcome field, one line per call.
template <typename Coordinator>
std::vector<std::string> Transcript(uint64_t seed, const Variant& variant,
                                    const Scenario& scenario = RandomScenario()) {
  const ChunkCostEstimator estimator = ChunkCostEstimator::ProfileFromCostModel(
      GpuCostModel(Opt13BConfig(), A100Spec(1)), kBlock, 4096);
  const std::unique_ptr<EvictionPolicy> policy = MakeEvictionPolicy(variant.policy, estimator);
  const bool copies_only = seed % 3 == 0;
  KvCacheConfig config = scenario.config;
  if (copies_only) {
    config.num_cpu_blocks = scenario.copies_only_cpu_blocks;
  }
  if (!variant.flash) {
    config.num_ssd_blocks = 0;
  }
  TwoTierKvCache cache(config);
  scenario.build(seed, copies_only, &cache);
  std::vector<TwoTierKvCache::EvictEvent> log;
  cache.set_event_log(&log);
  Coordinator coordinator(&cache, policy.get(), variant.options,
                          [](ConversationId id) { return id % 3 != 0; });
  std::mt19937_64 rng(seed * 7919 + 1);
  std::vector<std::string> transcript;
  for (int round = 0; round < 12; ++round) {
    const double now = 4.0 + round;
    std::optional<HolderWatch> watch;
    std::optional<ScanWatch> scan_watch;
    if constexpr (std::is_same_v<Coordinator, CacheCoordinator>) {
      watch.emplace(cache);
      scan_watch.emplace(cache, *policy, now);
    }
    std::ostringstream line;
    switch (rng() % 3) {
      case 0: {
        const auto o = coordinator.AheadOfTimeEvict(now);
        line << "aot " << o.swapped_out_tokens << " " << o.dropped_tokens;
        break;
      }
      case 1: {
        const int64_t n = cache.gpu_allocator().num_free() + 1 + static_cast<int64_t>(rng() % 48);
        const auto o = coordinator.EnsureFreeGpuBlocks(n, now);
        line << "gpu " << n << " " << o.ok << " " << o.reclaimed_blocks << " "
             << o.forced_swap_out_tokens << " " << o.dropped_tokens;
        break;
      }
      default: {
        const int64_t n = cache.cpu_allocator().num_free() + 1 + static_cast<int64_t>(rng() % 12);
        line << "cpu " << n << " " << coordinator.EnsureFreeCpuBlocks(n, now);
        break;
      }
    }
    if (watch.has_value()) {
      watch->Count();
      scan_watch->Count(log);
    }
    const auto spill = coordinator.TakeSpill();
    line << " spill " << spill.demoted_tokens << " " << spill.failed_demotes;
    line << " | " << Describe(log);
    log.clear();
    transcript.push_back(line.str());
    cache.CheckInvariants();
    scenario.mutate(&rng, &cache, now + 1.0);
    cache.CheckInvariants();
  }
  cache.set_event_log(nullptr);
  return transcript;
}

TEST(VictimIndexTest, MatchesBruteForceOracleOnRandomLayouts) {
  const std::vector<Variant> variants = Variants();
  int64_t compared_events = 0;
  coverage = Coverage{};
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    for (size_t v = 0; v < variants.size(); ++v) {
      const std::vector<std::string> expected =
          Transcript<BruteForceCoordinator>(seed, variants[v]);
      const std::vector<std::string> actual = Transcript<CacheCoordinator>(seed, variants[v]);
      ASSERT_EQ(expected.size(), actual.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i], actual[i]) << "seed " << seed << ", variant " << v
                                          << ", call " << i;
        compared_events += static_cast<int64_t>(
            std::count(expected[i].begin(), expected[i].end(), '/'));
      }
    }
  }
  // The layouts must actually exercise the coordinator, including every path
  // the index special-cases.
  EXPECT_GT(compared_events, 10000);
  EXPECT_GT(coverage.copies_dropped_in_swap_pass, 0);
  EXPECT_GT(coverage.stale_skips_with_cpu_full, 0);
  EXPECT_GT(coverage.deep_drops_after_frontier_drop, 0);
  EXPECT_GT(coverage.views_unshared_mid_pass, 0);
  EXPECT_GT(coverage.entries_reused_across_calls, 0);
  EXPECT_GT(coverage.window_rescans_after_crossing, 0);
  EXPECT_GT(coverage.released_stale_entries, 0);
}

// The same comparison on crowded layouts, where a pass enters only the
// conversations whose recency floor can still win. Each case the scan's
// stop rule and snapshot have to get right must occur.
TEST(VictimIndexTest, RecencyScanMatchesBruteForceOracleOnCrowdedLayouts) {
  const std::vector<Variant> variants = Variants();
  int64_t compared_events = 0;
  coverage = Coverage{};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (size_t v = 0; v < variants.size(); ++v) {
      const std::vector<std::string> expected =
          Transcript<BruteForceCoordinator>(seed, variants[v], CrowdedScenario());
      const std::vector<std::string> actual =
          Transcript<CacheCoordinator>(seed, variants[v], CrowdedScenario());
      ASSERT_EQ(expected.size(), actual.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i], actual[i]) << "seed " << seed << ", variant " << v
                                          << ", call " << i;
        compared_events += static_cast<int64_t>(
            std::count(expected[i].begin(), expected[i].end(), '/'));
      }
    }
  }
  EXPECT_GT(compared_events, 10000);
  EXPECT_GT(coverage.crowded_passes, 0);
  EXPECT_GT(coverage.tied_floor_entries, 0);
  EXPECT_GT(coverage.sub_ms_victims, 0);
  EXPECT_GT(coverage.changed_before_reached, 0);
}

// The case the shared-prefix window exists for: with the reader detached
// from block 0, the publisher's shared chunk 1 scores 0 and must be swapped
// out before its unshared chunk 0.
TEST(VictimIndexTest, SharedChunkBehindUnsharedChunkGoesFirst) {
  TwoTierKvCache cache(LayoutConfig(40, /*flash=*/false));
  const ConversationId publisher = 1;
  const ConversationId reader = 2;
  ASSERT_TRUE(cache.AppendTokenSlots(publisher, 4 * kBlock, nullptr).ok());
  std::vector<BlockId> prefix = cache.GpuBlockTable(publisher, 0);
  prefix.resize(2);
  cache.PublishSharedPrefix({1, 2}, prefix);
  std::vector<BlockId> blocks;
  ASSERT_EQ(cache.LookupSharedPrefix({1, 2}, &blocks), 2);
  cache.AttachSharedPrefix(reader, blocks, 2 * kBlock);
  ASSERT_TRUE(cache.DropChunk(reader, 0).ok());
  cache.GetOrCreate(reader).Pin();
  ASSERT_FALSE(cache.SharedGpuBlock(cache.Find(publisher)->chunk(0).gpu_block));
  ASSERT_TRUE(cache.SharedGpuBlock(cache.Find(publisher)->chunk(1).gpu_block));

  const RetentionValuePolicy policy(ChunkCostEstimator::ProfileFromCostModel(
      GpuCostModel(Opt13BConfig(), A100Spec(1)), kBlock, 4096));
  CacheCoordinator::Options options;
  options.swap_out_target = (cache.gpu_allocator().num_free() + 2.0) /
                            static_cast<double>(cache.gpu_allocator().capacity());
  CacheCoordinator coordinator(&cache, &policy, options);
  const CacheCoordinator::EvictOutcome outcome = coordinator.AheadOfTimeEvict(10.0);
  ASSERT_EQ(outcome.swapped.size(), 2u);
  EXPECT_EQ(outcome.swapped[0], std::make_pair(publisher, int64_t{1}));
  EXPECT_EQ(outcome.swapped[1], std::make_pair(publisher, int64_t{0}));
}

// An entry scanned while the shared-prefix window was smaller than its
// chunks: publishing grows the window and an attach then shares the
// publisher's blocks, so the next refresh must re-scan the entry although
// it was not marked in-window. Its two shared chunks become views, scored 0,
// and go before its unshared chunks.
TEST(VictimIndexTest, WindowGrowthRescansEntriesScannedOutsideIt) {
  TwoTierKvCache cache(LayoutConfig(40, /*flash=*/false));
  const ConversationId publisher = 1;
  const ConversationId reader = 2;
  ASSERT_TRUE(cache.AppendTokenSlots(publisher, 4 * kBlock, nullptr).ok());
  cache.RefreshHolders();  // scanned with the window at 0
  ASSERT_EQ(cache.Holders(ChunkLocation::kGpu).size(), 1u);
  EXPECT_FALSE(cache.Holders(ChunkLocation::kGpu)[0].in_window);
  std::vector<BlockId> prefix = cache.GpuBlockTable(publisher, 0);
  prefix.resize(2);
  cache.PublishSharedPrefix({1, 2}, prefix);
  std::vector<BlockId> blocks;
  ASSERT_EQ(cache.LookupSharedPrefix({1, 2}, &blocks), 2);
  cache.AttachSharedPrefix(reader, blocks, 2 * kBlock);
  cache.GetOrCreate(reader).Pin();
  cache.RefreshHolders();
  cache.CheckInvariants();
  for (const TwoTierKvCache::Holder& holder : cache.Holders(ChunkLocation::kGpu)) {
    if (holder.id == publisher) {
      ASSERT_EQ(holder.views.size(), 2u);
      EXPECT_TRUE(holder.views[0].shared && holder.views[1].shared);
      ASSERT_TRUE(holder.cursor.has_value());
      EXPECT_EQ(holder.cursor->chunk_index, 2);
    }
  }

  const RetentionValuePolicy policy(ChunkCostEstimator::ProfileFromCostModel(
      GpuCostModel(Opt13BConfig(), A100Spec(1)), kBlock, 4096));
  CacheCoordinator::Options options;
  options.swap_out_target = (cache.gpu_allocator().num_free() + 3.0) /
                            static_cast<double>(cache.gpu_allocator().capacity());
  CacheCoordinator coordinator(&cache, &policy, options);
  const CacheCoordinator::EvictOutcome outcome = coordinator.AheadOfTimeEvict(10.0);
  ASSERT_EQ(outcome.swapped.size(), 3u);
  EXPECT_EQ(outcome.swapped[0], std::make_pair(publisher, int64_t{0}));
  EXPECT_EQ(outcome.swapped[1], std::make_pair(publisher, int64_t{1}));
  EXPECT_EQ(outcome.swapped[2], std::make_pair(publisher, int64_t{2}));
}

// Step 3b (drop the prefix through the first GPU chunk) runs, its victim's
// new frontier is then a step-3 frontier drop, and 3b must afterwards still
// see that conversation's next GPU chunk. Conversation 7 is long idle, so
// its chunks go first: 3b through chunk 1, frontier chunk 2, 3b through 4.
TEST(VictimIndexTest, DeepDropSeesConversationAfterFrontierDrop) {
  KvCacheConfig config = LayoutConfig();
  config.num_gpu_blocks = 8;
  TwoTierKvCache cache(config);
  const ConversationId recent = 3;
  const ConversationId idle = 7;
  ASSERT_TRUE(cache.AppendTokenSlots(recent, 3 * kBlock, nullptr).ok());
  ASSERT_TRUE(cache.AppendTokenSlots(idle, 5 * kBlock, nullptr).ok());
  for (const auto& [id, chunk] : {std::pair{recent, 0}, {idle, 0}, {idle, 3}}) {
    ASSERT_TRUE(cache.SwapOut(id, chunk).ok());
    ASSERT_TRUE(cache.ReclaimGpu(id, chunk).ok());
  }
  cache.GetOrCreate(recent).set_last_active(90.0);
  cache.GetOrCreate(idle).set_last_active(1.0);
  ASSERT_EQ(cache.gpu_allocator().num_free(), 3);

  const RetentionValuePolicy policy(ChunkCostEstimator::ProfileFromCostModel(
      GpuCostModel(Opt13BConfig(), A100Spec(1)), kBlock, 4096));
  CacheCoordinator::Options options;
  options.use_cpu_cache = false;
  CacheCoordinator coordinator(&cache, &policy, options);
  std::vector<TwoTierKvCache::EvictEvent> log;
  cache.set_event_log(&log);
  const CacheCoordinator::FreeOutcome outcome = coordinator.EnsureFreeGpuBlocks(6, 100.0);
  cache.set_event_log(nullptr);
  ASSERT_TRUE(outcome.ok);
  using Op = TwoTierKvCache::EvictOp;
  const std::vector<TwoTierKvCache::EvictEvent> expected = {
      {Op::kDropChunk, idle, 0}, {Op::kDropChunk, idle, 1}, {Op::kDropChunk, idle, 2},
      {Op::kDropChunk, idle, 3}, {Op::kDropChunk, idle, 4}};
  EXPECT_EQ(log, expected);
}

}  // namespace
}  // namespace pensieve
