#include "src/scheduler/cache_coordinator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace pensieve {

CacheCoordinator::CacheCoordinator(TwoTierKvCache* cache, const EvictionPolicy* policy,
                                   Options options,
                                   std::function<bool(ConversationId)> may_forget)
    : cache_(cache), policy_(policy), options_(options),
      may_forget_(std::move(may_forget)) {
  PENSIEVE_CHECK(cache != nullptr);
  PENSIEVE_CHECK(policy != nullptr);
}

void CacheCoordinator::MaybeForget(ConversationId id) {
  const ContextState* state = cache_->Find(id);
  if (state == nullptr || state->pinned() ||
      state->LeadingDroppedChunks() < state->num_chunks()) {
    return;
  }
  if (may_forget_ != nullptr && !may_forget_(id)) {
    return;
  }
  cache_->Release(id);
}

double CacheCoordinator::Score(ConversationId id, const ContextState& state,
                               int64_t chunk_index, double now) const {
  return policy_->Score(cache_->Candidate(id, state, chunk_index), now);
}

CacheCoordinator::LocationPass CacheCoordinator::SeedLocation(ChunkLocation location,
                                                              double now) const {
  cache_->RefreshHolders();
  const std::vector<TwoTierKvCache::Holder>& holders = cache_->Holders(location);
  LocationPass pass;
  std::vector<Victim> seed;
  seed.reserve(holders.size());
  for (const TwoTierKvCache::Holder& holder : holders) {
    for (const ChunkCandidate& view : holder.views) {
      pass.views.emplace_back(holder.id, view.chunk_index);
      seed.push_back(Victim{holder.id, view.chunk_index, policy_->Score(view, now)});
    }
    if (const std::optional<ChunkCandidate>& cursor = holder.cursor) {
      seed.push_back(Victim{holder.id, cursor->chunk_index, policy_->Score(*cursor, now)});
    }
  }
  std::sort(pass.views.begin(), pass.views.end());
  pass.heap = VictimHeap(std::move(seed));
  return pass;
}

CacheCoordinator::Victim CacheCoordinator::PopLocation(ChunkLocation location, double now,
                                                       LocationPass* pass) const {
  const Victim top = pass->heap.pop();
  const ContextState* state = cache_->Find(top.conversation);
  if (state == nullptr || pass->SeededView(top.conversation, top.chunk_index)) {
    return top;  // forgotten, or a view (the cursor is elsewhere)
  }
  int64_t next = state->NextChunkAt(location, top.chunk_index);
  while (next < state->num_chunks() &&
         (pass->SeededView(top.conversation, next) ||
          (swap_pass_.has_value() &&
           swap_pass_->copies_dropped.count({top.conversation, next}) > 0))) {
    next = state->NextChunkAt(location, next);
  }
  if (next < state->num_chunks()) {
    pass->heap.push(Victim{top.conversation, next, Score(top.conversation, *state, next, now)});
  }
  return top;
}

CacheCoordinator::VictimHeap CacheCoordinator::SeedFrontier(Frontier kind,
                                                            double now) const {
  cache_->RefreshHolders();
  std::vector<Victim> seed;
  // Only conversations holding a chunk the query can return are visited,
  // each once: an entry carries the frontier candidate of the list that
  // visits it.
  const auto visit = [&](ChunkLocation location) {
    for (const TwoTierKvCache::Holder& holder : cache_->Holders(location)) {
      if (const std::optional<ChunkCandidate>& chunk = holder.frontier;
          chunk.has_value() && (kind != Frontier::kGpuDrop || holder.droppable)) {
        seed.push_back(Victim{holder.id, chunk->chunk_index, policy_->Score(*chunk, now)});
      }
    }
  };
  if (kind == Frontier::kCpuEvict) {
    seed.reserve(cache_->Holders(ChunkLocation::kCpu).size());
    visit(ChunkLocation::kCpu);
  } else {
    seed.reserve(cache_->Holders(ChunkLocation::kGpu).size() +
                 cache_->Holders(ChunkLocation::kGpuAndCpu).size());
    visit(ChunkLocation::kGpu);
    visit(ChunkLocation::kGpuAndCpu);
  }
  return VictimHeap(std::move(seed));
}

void CacheCoordinator::PushFrontier(Frontier kind, ConversationId id, double now,
                                    VictimHeap* heap) const {
  const ContextState* state = cache_->Find(id);
  if (state == nullptr || state->pinned()) {
    return;
  }
  if (const int64_t chunk = state->FrontierChunk(kind); chunk < state->num_chunks()) {
    heap->push(Victim{id, chunk, Score(id, *state, chunk, now)});
  }
}

std::optional<CacheCoordinator::Victim> CacheCoordinator::PopFrontier(
    Frontier kind, double now, VictimHeap* heap) const {
  while (!heap->empty()) {
    const Victim top = heap->pop();
    const ContextState* state = cache_->Find(top.conversation);
    if (state == nullptr || state->pinned() ||
        state->FrontierChunk(kind) != top.chunk_index) {
      continue;
    }
    const double score = Score(top.conversation, *state, top.chunk_index, now);
    if (score != top.score) {
      PENSIEVE_CHECK_GT(score, top.score) << "a victim's score fell during a pass";
      heap->push(Victim{top.conversation, top.chunk_index, score});
      continue;
    }
    return top;
  }
  return std::nullopt;
}

std::optional<int64_t> CacheCoordinator::DropFrontierVictim(const Victim& victim) {
  const ContextState* state = cache_->Find(victim.conversation);
  int64_t tokens = 0;
  if (options_.conversation_granularity) {
    tokens = state->TokensOnGpu() + state->TokensCpuOnly();
    DropWholeConversation(victim.conversation);
  } else {
    tokens = state->chunk(victim.chunk_index).num_tokens;
    if (!cache_->DropChunk(victim.conversation, victim.chunk_index).ok()) {
      return std::nullopt;
    }
  }
  MaybeForget(victim.conversation);
  return tokens;
}

CacheCoordinator::EvictOutcome CacheCoordinator::AheadOfTimeEvict(double now) {
  EvictOutcome outcome;
  const int64_t capacity = cache_->gpu_allocator().capacity();
  if (capacity == 0) {
    return outcome;
  }
  const int64_t target_blocks =
      static_cast<int64_t>(options_.swap_out_target * static_cast<double>(capacity));
  if (cache_->AvailableGpuBlocks() >= target_blocks) {
    aot_failed_at_ = kNeverFailed;
    return outcome;
  }
  // Retry guard: a pass that could not reach the target (CPU tier full,
  // everything pinned) is only retried when virtual time has advanced or
  // the available count changed — at most one rescan per scheduler step.
  if (now == aot_failed_at_ && cache_->AvailableGpuBlocks() == aot_last_failed_available_) {
    return outcome;
  }
  if (!options_.use_cpu_cache) {
    // GPU-cache-only variant: evicted chunks are simply dropped, frontier
    // first (only frontier chunks are legal drop targets).
    VictimHeap frontier = SeedFrontier(Frontier::kGpuDrop, now);
    while (cache_->AvailableGpuBlocks() < target_blocks) {
      const std::optional<Victim> drop = PopFrontier(Frontier::kGpuDrop, now, &frontier);
      if (!drop.has_value()) {
        break;
      }
      const std::optional<int64_t> dropped = DropFrontierVictim(*drop);
      if (!dropped.has_value()) {
        break;  // would re-pick the same victim forever
      }
      outcome.dropped_tokens += *dropped;
      PushFrontier(Frontier::kGpuDrop, drop->conversation, now, &frontier);
    }
  } else {
    // Swap out GPU-only chunks of unpinned conversations in ascending
    // retention order until the target is met.
    outcome.swapped_out_tokens =
        SwapOutPass(target_blocks, /*reclaim=*/false, now, &outcome.swapped);
  }
  if (cache_->AvailableGpuBlocks() < target_blocks) {
    aot_last_failed_available_ = cache_->AvailableGpuBlocks();
    aot_failed_at_ = now;
  }
  return outcome;
}

int64_t CacheCoordinator::SwapOutPass(
    int64_t target, bool reclaim, double now,
    std::vector<std::pair<ConversationId, int64_t>>* chunks) {
  // A reclaiming pass frees each block it copies; an ahead-of-time one only
  // makes it reclaimable.
  const auto available = [&] {
    return reclaim ? cache_->gpu_allocator().num_free() : cache_->AvailableGpuBlocks();
  };
  // The candidates are the kGpu chunks at pass start.
  swap_pass_.emplace();
  LocationPass candidates = SeedLocation(ChunkLocation::kGpu, now);
  // Reserve CPU space for the whole deficit in one pass; fall back to
  // per-chunk frees only if that could not be satisfied.
  (void)EnsureFreeCpuBlocks(
      std::min<int64_t>(target - available(), cache_->cpu_allocator().capacity()), now);
  int64_t tokens = 0;
  while (!candidates.empty() && available() < target) {
    const Victim v = PopLocation(ChunkLocation::kGpu, now, &candidates);
    // A CPU-pressure drop in this pass (a whole conversation, under
    // conversation granularity) may have changed or forgotten the candidate:
    // skip it rather than reserve CPU space for it. Null when skipped.
    const auto still_on_gpu = [&]() -> const ContextState* {
      const ContextState* state = cache_->Find(v.conversation);
      if (state == nullptr || state->chunk(v.chunk_index).location != ChunkLocation::kGpu) {
        return nullptr;
      }
      return state;
    };
    if (still_on_gpu() == nullptr) {
      continue;
    }
    if (cache_->cpu_allocator().num_free() == 0 && !EnsureFreeCpuBlocks(1, now)) {
      break;
    }
    const ContextState* state = still_on_gpu();
    if (state == nullptr) {
      continue;
    }
    // A kGpu chunk with a free CPU block swaps out, and its fresh copy is
    // clean, so neither step can fail.
    tokens += state->chunk(v.chunk_index).num_tokens;
    PENSIEVE_CHECK_OK(cache_->SwapOut(v.conversation, v.chunk_index));
    if (reclaim) {
      PENSIEVE_CHECK_OK(cache_->ReclaimGpu(v.conversation, v.chunk_index));
      if (swap_pass_->cpu_frontier.has_value()) {
        // The now CPU-only chunk may be its conversation's CPU frontier.
        PushFrontier(Frontier::kCpuEvict, v.conversation, now, &*swap_pass_->cpu_frontier);
      }
    }
    chunks->emplace_back(v.conversation, v.chunk_index);
  }
  swap_pass_.reset();
  return tokens;
}

void CacheCoordinator::DropWholeConversation(ConversationId id) {
  const ContextState* state = cache_->Find(id);
  PENSIEVE_CHECK(state != nullptr);
  (void)cache_->DropThroughPrefix(id, state->num_chunks() - 1);
}

bool CacheCoordinator::EvictCpuFrontierChunk(const Victim& victim) {
  const ContextState* state = cache_->Find(victim.conversation);
  const Chunk& chunk = state->chunk(victim.chunk_index);
  if (cache_->flash_enabled()) {
    const int64_t tokens = chunk.num_tokens;
    if (cache_->DemoteToFlash(victim.conversation, victim.chunk_index).ok()) {
      pending_spill_.demoted_tokens += tokens;
      pending_spill_.demoted.emplace_back(victim.conversation, victim.chunk_index);
      return true;
    }
    ++pending_spill_.failed_demotes;
    // Flash full of pinned chunks, or the CPU copy failed its checksum:
    // fall through to dropping.
  }
  // DropThroughPrefix also takes down any SSD chunks of this conversation
  // when flash admission stalls mid-conversation.
  return cache_->DropThroughPrefix(victim.conversation, victim.chunk_index).ok();
}

bool CacheCoordinator::EnsureFreeCpuBlocks(int64_t n, double now) {
  if (cache_->cpu_allocator().num_free() >= n) {
    return true;
  }
  // Prefer evicting frontier chunks that live only on the CPU: that frees a
  // CPU block and loses the least valuable data per the policy. With the
  // flash tier enabled they are demoted to SSD instead of dropped. The
  // frontier is the first chunk past the dropped/SSD prefix, so
  // conversations whose oldest resident data already sits on flash remain
  // eligible.
  VictimHeap local;
  VictimHeap* frontier = &local;
  if (!swap_pass_.has_value()) {
    local = SeedFrontier(Frontier::kCpuEvict, now);
  } else {
    if (!swap_pass_->cpu_frontier.has_value()) {
      swap_pass_->cpu_frontier = SeedFrontier(Frontier::kCpuEvict, now);
    }
    frontier = &*swap_pass_->cpu_frontier;
  }
  // Fallback, seeded on first use: discard clean CPU copies (the chunks stay
  // on the GPU). Nothing it does creates a CPU-only frontier again.
  std::optional<LocationPass> copies;
  while (cache_->cpu_allocator().num_free() < n) {
    if (const std::optional<Victim> best = PopFrontier(Frontier::kCpuEvict, now, frontier)) {
      if (options_.conversation_granularity) {
        DropWholeConversation(best->conversation);
      } else if (!EvictCpuFrontierChunk(*best)) {
        return false;  // would re-pick the same victim forever
      }
      MaybeForget(best->conversation);
      PushFrontier(Frontier::kCpuEvict, best->conversation, now, frontier);
      continue;
    }
    if (!copies.has_value()) {
      copies = SeedLocation(ChunkLocation::kGpuAndCpu, now);
    }
    if (copies->empty()) {
      return false;
    }
    const Victim dual = PopLocation(ChunkLocation::kGpuAndCpu, now, &*copies);
    if (!cache_->DropCpuCopy(dual.conversation, dual.chunk_index).ok()) {
      return false;
    }
    if (swap_pass_.has_value()) {
      swap_pass_->copies_dropped.insert({dual.conversation, dual.chunk_index});
    }
  }
  return true;
}

CacheCoordinator::SpillOutcome CacheCoordinator::TakeSpill() {
  SpillOutcome spill = std::move(pending_spill_);
  pending_spill_ = SpillOutcome{};
  return spill;
}

CacheCoordinator::FreeOutcome CacheCoordinator::EnsureFreeGpuBlocks(int64_t n,
                                                                    double now) {
  FreeOutcome outcome;
  // 1. Instant reclamation of clean copies, lowest retention first.
  if (cache_->gpu_allocator().num_free() < n) {
    LocationPass reclaimable = SeedLocation(ChunkLocation::kGpuAndCpu, now);
    while (!reclaimable.empty() && cache_->gpu_allocator().num_free() < n) {
      const Victim v = PopLocation(ChunkLocation::kGpuAndCpu, now, &reclaimable);
      if (!cache_->ReclaimGpu(v.conversation, v.chunk_index).ok()) {
        continue;  // e.g. the CPU copy was corrupted by a faulted transfer
      }
      ++outcome.reclaimed_blocks;
    }
  }
  // 2. Forced swap-out (ahead-of-time swapping fell behind): pays a
  // synchronous PCIe stall, charged by the engine.
  if (options_.use_cpu_cache && cache_->gpu_allocator().num_free() < n) {
    outcome.forced_swap_out_tokens =
        SwapOutPass(n, /*reclaim=*/true, now, &outcome.forced_swapped);
  }
  if (cache_->gpu_allocator().num_free() >= n) {
    outcome.ok = true;
    return outcome;
  }
  // 3. Last resort (and the only path in GPU-cache-only mode): drop the
  // lowest-retention frontier chunk that still occupies GPU memory.
  VictimHeap frontier = SeedFrontier(Frontier::kGpuDrop, now);
  // 3b, seeded on first use (SSD tier only): a conversation whose oldest
  // resident chunks were demoted to flash holds its GPU blocks behind a
  // kSsd/kCpu prefix that the frontier-only DropChunk cannot reach — pre-
  // flash, CPU-pressure drops kept such prefixes kDropped and the
  // conversation visible. Pick the best conversation by its first
  // GPU-resident chunk and drop the whole prefix through it.
  std::optional<VictimHeap> deep;
  while (cache_->gpu_allocator().num_free() < n) {
    if (const std::optional<Victim> drop = PopFrontier(Frontier::kGpuDrop, now, &frontier)) {
      const std::optional<int64_t> dropped = DropFrontierVictim(*drop);
      if (!dropped.has_value()) {
        outcome.ok = false;  // would re-pick the same victim forever
        return outcome;
      }
      outcome.dropped_tokens += *dropped;
      PushFrontier(Frontier::kGpuDrop, drop->conversation, now, &frontier);
      if (deep.has_value()) {
        PushFrontier(Frontier::kFirstGpu, drop->conversation, now, &*deep);
      }
      continue;
    }
    if (cache_->flash_enabled()) {
      if (!deep.has_value()) {
        deep = SeedFrontier(Frontier::kFirstGpu, now);
      }
      if (const std::optional<Victim> d = PopFrontier(Frontier::kFirstGpu, now, &*deep)) {
        int64_t dropped = 0;
        if (cache_->DropThroughPrefix(d->conversation, d->chunk_index, &dropped).ok()) {
          outcome.dropped_tokens += dropped;
          MaybeForget(d->conversation);
          PushFrontier(Frontier::kGpuDrop, d->conversation, now, &frontier);
          PushFrontier(Frontier::kFirstGpu, d->conversation, now, &*deep);
          continue;
        }
      }
    }
    // Nothing evictable: every conversation with GPU-resident chunks is
    // pinned by the running batch.
    outcome.ok = false;
    return outcome;
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace pensieve
