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

const TwoTierKvCache::RecencyEntry* CacheCoordinator::TakeIfFloorAllows(
    RecencyScan* scan, const VictimHeap& heap, double now) const {
  const std::vector<TwoTierKvCache::RecencyEntry>& index = cache_->Recency(scan->location);
  if (const int64_t version = cache_->recency_version(scan->location);
      scan->version != version) {
    // Entries came or went: resume after the last one taken.
    scan->version = version;
    scan->next = scan->took ? cache_->RecencyPositionAfter(scan->location, scan->last_active,
                                                           scan->last_id)
                            : 0;
  }
  if (scan->next == index.size()) {
    return nullptr;
  }
  const TwoTierKvCache::RecencyEntry& entry = index[scan->next];
  if (!heap.empty() && policy_->ScoreFloor(entry.last_active, now) > heap.top().score) {
    return nullptr;
  }
  ++scan->next;
  scan->took = true;
  scan->last_active = entry.last_active;
  scan->last_id = entry.id;
  return &entry;
}

CacheCoordinator::LocationPass CacheCoordinator::SeedLocation(ChunkLocation location,
                                                              double now) const {
  cache_->RefreshHolders();
  LocationPass pass;
  pass.scan.location = location;
  pass.seeded_at = cache_->refresh_passes();
  if (cache_->shared_entries(location) > 0) {
    for (const TwoTierKvCache::Holder& holder : cache_->Holders(location)) {
      for (const ChunkCandidate& view : holder.views) {
        pass.views.emplace_back(holder.id, view.chunk_index);
        pass.heap.push(Victim{holder.id, view.chunk_index, policy_->Score(view, now)});
      }
    }
    std::sort(pass.views.begin(), pass.views.end());
  }
  return pass;
}

int64_t CacheCoordinator::NextCursor(ChunkLocation location, ConversationId id,
                                     const ContextState& state, int64_t after,
                                     const LocationPass& pass) const {
  int64_t next = state.NextChunkAt(location, after);
  while (next < state.num_chunks() &&
         (pass.SeededView(id, next) ||
          (swap_pass_.has_value() && swap_pass_->copies_dropped.count({id, next}) > 0))) {
    next = state.NextChunkAt(location, next);
  }
  return next;
}

std::optional<CacheCoordinator::Victim> CacheCoordinator::PopLocation(
    ChunkLocation location, double now, LocationPass* pass) const {
  // Enter conversations while the next one could hold a better victim.
  while (const TwoTierKvCache::RecencyEntry* entry =
             TakeIfFloorAllows(&pass->scan, pass->heap, now)) {
    const ContextState& state = *entry->state;
    const TwoTierKvCache::Holder& holder = cache_->HolderOf(location, state);
    if (!state.stale() && holder.scanned_at <= pass->seeded_at) {
      if (const std::optional<ChunkCandidate>& cursor = holder.cursor) {
        pass->heap.push(
            Victim{entry->id, cursor->chunk_index, policy_->Score(*cursor, now)});
      }
    } else if (const int64_t cursor = NextCursor(location, entry->id, state, -1, *pass);
               cursor < state.num_chunks()) {
      // Changed since the seed: its seed-time cursor is the first chunk the
      // pass did not add and did not seed as a view.
      pass->heap.push(Victim{entry->id, cursor, Score(entry->id, state, cursor, now)});
    }
  }
  if (pass->heap.empty()) {
    return std::nullopt;
  }
  const Victim top = pass->heap.pop();
  const ContextState* state = cache_->Find(top.conversation);
  if (state == nullptr || pass->SeededView(top.conversation, top.chunk_index)) {
    return top;  // forgotten, or a view (the cursor is elsewhere)
  }
  const int64_t next = NextCursor(location, top.conversation, *state, top.chunk_index, *pass);
  if (next < state->num_chunks()) {
    pass->heap.push(Victim{top.conversation, next, Score(top.conversation, *state, next, now)});
  }
  return top;
}

CacheCoordinator::FrontierPass CacheCoordinator::SeedFrontier(Frontier kind,
                                                              double now) const {
  cache_->RefreshHolders();
  FrontierPass pass;
  pass.kind = kind;
  if (kind == Frontier::kGpuDrop && cache_->droppable_entries() == 0) {
    return pass;  // no entry can yield a candidate: nothing to walk
  }
  // Only conversations holding a chunk the query can return are visited,
  // each once: an entry carries the frontier candidate of the list that
  // visits it. Shared candidates go in now; the rest wait for the scans.
  const auto visit = [&](ChunkLocation location) {
    pass.scans.push_back(RecencyScan{location});
    if (cache_->shared_entries(location) == 0) {
      return;
    }
    for (const TwoTierKvCache::Holder& holder : cache_->Holders(location)) {
      if (const std::optional<ChunkCandidate>& chunk = holder.frontier;
          chunk.has_value() && chunk->shared && (kind != Frontier::kGpuDrop || holder.droppable)) {
        pass.heap.push(Victim{holder.id, chunk->chunk_index, policy_->Score(*chunk, now)});
      }
    }
  };
  if (kind == Frontier::kCpuEvict) {
    visit(ChunkLocation::kCpu);
  } else {
    visit(ChunkLocation::kGpu);
    visit(ChunkLocation::kGpuAndCpu);
  }
  return pass;
}

void CacheCoordinator::PushFrontier(ConversationId id, double now, FrontierPass* pass) const {
  const ContextState* state = cache_->Find(id);
  if (state == nullptr || state->pinned()) {
    return;
  }
  if (const int64_t chunk = state->FrontierChunk(pass->kind); chunk < state->num_chunks()) {
    pass->heap.push(Victim{id, chunk, Score(id, *state, chunk, now)});
  }
}

std::optional<CacheCoordinator::Victim> CacheCoordinator::PopFrontier(
    double now, FrontierPass* pass) const {
  while (true) {
    for (RecencyScan& scan : pass->scans) {
      while (const TwoTierKvCache::RecencyEntry* entry =
                 TakeIfFloorAllows(&scan, pass->heap, now)) {
        // The entry's candidate as of its last scan: the seed's, or a later
        // one's if the pass changed the conversation, which the pop re-checks
        // like any other (a change that moves a candidate also pushes it).
        const TwoTierKvCache::Holder& holder = cache_->HolderOf(scan.location, *entry->state);
        if (const std::optional<ChunkCandidate>& chunk = holder.frontier;
            chunk.has_value() && !chunk->shared &&
            (pass->kind != Frontier::kGpuDrop || holder.droppable)) {
          pass->heap.push(Victim{entry->id, chunk->chunk_index, policy_->Score(*chunk, now)});
        }
      }
    }
    if (pass->heap.empty()) {
      return std::nullopt;
    }
    const Victim top = pass->heap.pop();
    const ContextState* state = cache_->Find(top.conversation);
    if (state == nullptr || state->pinned() ||
        state->FrontierChunk(pass->kind) != top.chunk_index) {
      continue;
    }
    const double score = Score(top.conversation, *state, top.chunk_index, now);
    if (score != top.score) {
      PENSIEVE_CHECK_GT(score, top.score) << "a victim's score fell during a pass";
      pass->heap.push(Victim{top.conversation, top.chunk_index, score});
      continue;
    }
    return top;
  }
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
    FrontierPass frontier = SeedFrontier(Frontier::kGpuDrop, now);
    while (cache_->AvailableGpuBlocks() < target_blocks) {
      const std::optional<Victim> drop = PopFrontier(now, &frontier);
      if (!drop.has_value()) {
        break;
      }
      const std::optional<int64_t> dropped = DropFrontierVictim(*drop);
      if (!dropped.has_value()) {
        break;  // would re-pick the same victim forever
      }
      outcome.dropped_tokens += *dropped;
      PushFrontier(drop->conversation, now, &frontier);
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
  swap_pass_->reclaim = reclaim;
  LocationPass candidates = SeedLocation(ChunkLocation::kGpu, now);
  // Reserve CPU space for the whole deficit in one pass; fall back to
  // per-chunk frees only if that could not be satisfied.
  (void)EnsureFreeCpuBlocks(
      std::min<int64_t>(target - available(), cache_->cpu_allocator().capacity()), now);
  int64_t tokens = 0;
  while (available() < target) {
    const std::optional<Victim> popped = PopLocation(ChunkLocation::kGpu, now, &candidates);
    if (!popped.has_value()) {
      break;
    }
    const Victim& v = *popped;
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
        PushFrontier(v.conversation, now, &*swap_pass_->cpu_frontier);
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
  FrontierPass local;
  FrontierPass* frontier = &local;
  if (!swap_pass_.has_value()) {
    local = SeedFrontier(Frontier::kCpuEvict, now);
  } else {
    if (!swap_pass_->cpu_frontier.has_value()) {
      swap_pass_->cpu_frontier = SeedFrontier(Frontier::kCpuEvict, now);
    }
    frontier = &*swap_pass_->cpu_frontier;
  }
  // Fallback, seeded on first use: discard clean CPU copies (the chunks stay
  // on the GPU). Nothing it does creates a CPU-only frontier again. An
  // ahead-of-time pass never takes it: each discard would undo a swap-out
  // already paid for, and the pass would copy the chunk out again next step.
  const bool discard_copies = !swap_pass_.has_value() || swap_pass_->reclaim;
  std::optional<LocationPass> copies;
  while (cache_->cpu_allocator().num_free() < n) {
    if (const std::optional<Victim> best = PopFrontier(now, frontier)) {
      if (options_.conversation_granularity) {
        DropWholeConversation(best->conversation);
      } else if (!EvictCpuFrontierChunk(*best)) {
        return false;  // would re-pick the same victim forever
      }
      MaybeForget(best->conversation);
      PushFrontier(best->conversation, now, frontier);
      continue;
    }
    if (!discard_copies) {
      return false;
    }
    if (!copies.has_value()) {
      copies = SeedLocation(ChunkLocation::kGpuAndCpu, now);
    }
    const std::optional<Victim> dual = PopLocation(ChunkLocation::kGpuAndCpu, now, &*copies);
    if (!dual.has_value() || !cache_->DropCpuCopy(dual->conversation, dual->chunk_index).ok()) {
      return false;
    }
    if (swap_pass_.has_value()) {
      swap_pass_->copies_dropped.insert({dual->conversation, dual->chunk_index});
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
    while (cache_->gpu_allocator().num_free() < n) {
      const std::optional<Victim> v = PopLocation(ChunkLocation::kGpuAndCpu, now, &reclaimable);
      if (!v.has_value()) {
        break;
      }
      if (!cache_->ReclaimGpu(v->conversation, v->chunk_index).ok()) {
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
  FrontierPass frontier = SeedFrontier(Frontier::kGpuDrop, now);
  // 3b, seeded on first use (SSD tier only): a conversation whose oldest
  // resident chunks were demoted to flash holds its GPU blocks behind a
  // kSsd/kCpu prefix that the frontier-only DropChunk cannot reach — pre-
  // flash, CPU-pressure drops kept such prefixes kDropped and the
  // conversation visible. Pick the best conversation by its first
  // GPU-resident chunk and drop the whole prefix through it.
  std::optional<FrontierPass> deep;
  while (cache_->gpu_allocator().num_free() < n) {
    if (const std::optional<Victim> drop = PopFrontier(now, &frontier)) {
      const std::optional<int64_t> dropped = DropFrontierVictim(*drop);
      if (!dropped.has_value()) {
        outcome.ok = false;  // would re-pick the same victim forever
        return outcome;
      }
      outcome.dropped_tokens += *dropped;
      PushFrontier(drop->conversation, now, &frontier);
      if (deep.has_value()) {
        PushFrontier(drop->conversation, now, &*deep);
      }
      continue;
    }
    if (cache_->flash_enabled()) {
      if (!deep.has_value()) {
        deep = SeedFrontier(Frontier::kFirstGpu, now);
      }
      if (const std::optional<Victim> d = PopFrontier(now, &*deep)) {
        int64_t dropped = 0;
        if (cache_->DropThroughPrefix(d->conversation, d->chunk_index, &dropped).ok()) {
          outcome.dropped_tokens += dropped;
          MaybeForget(d->conversation);
          PushFrontier(d->conversation, now, &frontier);
          PushFrontier(d->conversation, now, &*deep);
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
