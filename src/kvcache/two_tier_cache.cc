#include "src/kvcache/two_tier_cache.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"

namespace pensieve {

namespace {

// Capacity accounting in compressed bytes: with kv_quant on, the same CPU /
// SSD byte budget holds raw/quant times more blocks, so the block budgets
// are scaled up before any allocator or pool is sized.
KvCacheConfig ApplyKvQuantCapacity(KvCacheConfig config) {
  if (config.kv_quant && config.kv_raw_block_bytes > 0 &&
      config.kv_quant_block_bytes > 0) {
    config.num_cpu_blocks =
        config.num_cpu_blocks * config.kv_raw_block_bytes / config.kv_quant_block_bytes;
    config.num_ssd_blocks =
        config.num_ssd_blocks * config.kv_raw_block_bytes / config.kv_quant_block_bytes;
  }
  return config;
}

}  // namespace

TwoTierKvCache::TwoTierKvCache(const KvCacheConfig& config)
    : config_(ApplyKvQuantCapacity(config)),
      gpu_allocator_(config_.num_gpu_blocks),
      cpu_allocator_(config_.num_cpu_blocks) {
  if (config_.numeric) {
    gpu_pool_ = std::make_unique<KvPool>(config_.num_gpu_blocks, config_.block_size,
                                         config_.num_layers, config_.num_kv_heads,
                                         config_.head_dim);
    cpu_pool_ = std::make_unique<KvPool>(config_.num_cpu_blocks, config_.block_size,
                                         config_.num_layers, config_.num_kv_heads,
                                         config_.head_dim);
  }
  if (config_.num_ssd_blocks > 0) {
    FlashTierConfig flash;
    flash.capacity_blocks = config_.num_ssd_blocks;
    flash.segment_blocks = config_.ssd_segment_blocks;
    flash.numeric = config_.numeric;
    flash.block_size = config_.block_size;
    flash.num_layers = config_.num_layers;
    flash.num_kv_heads = config_.num_kv_heads;
    flash.head_dim = config_.head_dim;
    flash_ = std::make_unique<FlashTier>(flash);
  }
  if (config_.kv_quant) {
    codec_.encode = &KvPool::QuantizeBlock;
    codec_.quantized_blocks = 1;
    if (config_.kv_raw_block_bytes > 0 && config_.kv_quant_block_bytes > 0) {
      codec_.saved_bytes = config_.kv_raw_block_bytes - config_.kv_quant_block_bytes;
    } else if (cpu_pool_ != nullptr) {
      codec_.saved_bytes = cpu_pool_->BlockBytes() - cpu_pool_->QuantizedBlockBytes();
    }
  }
}

TwoTierKvCache::~TwoTierKvCache() { VerifyNoLeaks(); }

ContextState& TwoTierKvCache::GetOrCreate(ConversationId id) {
  PENSIEVE_CHECK_GE(id, 0) << "conversation ids index the cache's table and must be "
                              "non-negative";
  const size_t slot = static_cast<size_t>(id);
  if (slot >= states_.size()) {
    states_.resize(slot + 1);
  }
  std::unique_ptr<ContextState>& state = states_[slot];
  if (state == nullptr) {
    state = std::make_unique<ContextState>(config_.block_size);
    state->stale_list_ = &stale_;
  }
  return *state;
}

Status TwoTierKvCache::FindChunk(ConversationId id, int64_t chunk_index,
                                 ContextState** state) {
  *state = Find(id);
  if (*state == nullptr) {
    return Status::NotFound("unknown conversation " + std::to_string(id));
  }
  if (chunk_index < 0 || chunk_index >= (*state)->num_chunks()) {
    return Status::OutOfRange("chunk " + std::to_string(chunk_index) +
                              " out of range for conversation " +
                              std::to_string(id));
  }
  return Status::Ok();
}

uint32_t TwoTierKvCache::ComputeCpuChecksum(ConversationId id,
                                            int64_t chunk_index,
                                            const Chunk& c) const {
  if (cpu_pool_ != nullptr) {
    return cpu_pool_->BlockChecksum(c.cpu_block);
  }
  return SimChunkChecksum(id, chunk_index, c.num_tokens);
}

uint32_t TwoTierKvCache::ComputeSsdChecksum(ConversationId id,
                                            int64_t chunk_index,
                                            const Chunk& c) const {
  KvPool* pool = flash_->pool();
  if (pool != nullptr) {
    return pool->BlockChecksum(flash_->BlockOf(FlashTier::MakeKey(id, chunk_index)));
  }
  return SimChunkChecksum(id, chunk_index, c.num_tokens);
}

void TwoTierKvCache::Release(ConversationId id) {
  ContextState* state = Find(id);
  if (state == nullptr) {
    return;
  }
  for (int64_t i = 0; i < state->num_chunks(); ++i) {
    Chunk& c = state->mutable_chunk(i);
    if (c.OnGpu()) {
      ReleaseGpuBlock(c.gpu_block);
      if (c.location == ChunkLocation::kGpuAndCpu) {
        --reclaimable_gpu_blocks_;
      }
    }
    if (c.HasCpuCopy()) {
      cpu_allocator_.Free(c.cpu_block);
    }
    if (c.OnSsd()) {
      flash_->Erase(FlashTier::MakeKey(id, i));
    }
  }
  state->count_at_.fill(0);
  for (size_t k = 0; k < kNumHeldLocations; ++k) {
    SyncHolder(id, *state, static_cast<ChunkLocation>(k));
  }
  if (const int64_t slot = state->stale_slot_; slot >= 0) {
    stale_[static_cast<size_t>(slot)] = stale_.back();
    stale_[static_cast<size_t>(slot)]->stale_slot_ = slot;
    stale_.pop_back();
  }
  states_[static_cast<size_t>(id)].reset();
}

Status TwoTierKvCache::AppendTokenSlots(ConversationId id, int64_t n,
                                        std::vector<ContextState::SlotRef>* slots) {
  ContextState& state = GetOrCreate(id);
  const int64_t new_chunks = state.NumNewChunksForAppend(n);
  // Writing into a partial tail that views a shared block needs one extra
  // block for the copy-on-write.
  int64_t cow_blocks = 0;
  if (n > 0 && state.num_chunks() > 0) {
    const Chunk& tail = state.chunk(state.num_chunks() - 1);
    if (tail.num_tokens < config_.block_size && tail.OnGpu() &&
        SharedGpuBlock(tail.gpu_block)) {
      cow_blocks = 1;
    }
  }
  if (new_chunks + cow_blocks > gpu_allocator_.num_free()) {
    return Status::ResourceExhausted("GPU tier has no free blocks for append");
  }
  // Invalidate a stale CPU copy on the partial tail chunk we are extending.
  if (n > 0 && state.num_chunks() > 0) {
    Chunk& tail = state.mutable_chunk(state.num_chunks() - 1);
    if (tail.num_tokens < config_.block_size) {
      if (tail.location == ChunkLocation::kGpuAndCpu) {
        cpu_allocator_.Free(tail.cpu_block);
        tail.cpu_block = kInvalidBlock;
        tail.cpu_checksum = 0;
        tail.cpu_corrupt = false;
        SetLocation(id, state, state.num_chunks() - 1, ChunkLocation::kGpu);
        --reclaimable_gpu_blocks_;
      } else if (tail.location != ChunkLocation::kGpu) {
        return Status::FailedPrecondition(
            "cannot append into a tail chunk that is not GPU-resident");
      }
    }
  }
  if (cow_blocks == 1) {
    // First write into a shared block: detach this view onto a private block
    // before any slot is handed out. The pools are preallocated and the
    // blocks disjoint, so the numeric copy is a straight block-to-block move
    // — no heap allocation, decode stays allocation-free.
    Chunk& tail = state.mutable_chunk(state.num_chunks() - 1);
    auto fresh = gpu_allocator_.Allocate();
    PENSIEVE_CHECK(fresh.has_value());
    if (gpu_pool_ != nullptr) {
      KvPool::CopyBlock(*gpu_pool_, tail.gpu_block, *gpu_pool_, *fresh);
    }
    ReleaseGpuBlock(tail.gpu_block);
    tail.gpu_block = *fresh;
    ++counters_.cow_copies;
  }
  std::vector<BlockId> blocks;
  blocks.reserve(static_cast<size_t>(new_chunks));
  for (int64_t i = 0; i < new_chunks; ++i) {
    auto b = gpu_allocator_.Allocate();
    PENSIEVE_CHECK(b.has_value());
    blocks.push_back(*b);
  }
  state.AppendTokens(n, blocks, slots);
  if (new_chunks > 0) {
    SyncHolder(id, state, ChunkLocation::kGpu);  // the only kGpu count change
  }
  return Status::Ok();
}

Status TwoTierKvCache::SwapOut(ConversationId id, int64_t chunk_index) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  Chunk& c = state->mutable_chunk(chunk_index);
  if (c.location != ChunkLocation::kGpu) {
    return Status::FailedPrecondition("SwapOut requires a GPU-only chunk");
  }
  auto cpu_block = cpu_allocator_.Allocate();
  if (!cpu_block.has_value()) {
    return Status::ResourceExhausted("CPU tier full during swap-out");
  }
  c.cpu_block = *cpu_block;
  if (cpu_pool_ != nullptr) {
    codec_.encode(*gpu_pool_, c.gpu_block, *cpu_pool_, c.cpu_block);
  }
  counters_.quantized_blocks += codec_.quantized_blocks;
  counters_.quant_bytes_saved += codec_.saved_bytes;
  SetLocation(id, *state, chunk_index, ChunkLocation::kGpuAndCpu);
  c.cpu_checksum = ComputeCpuChecksum(id, chunk_index, c);
  c.cpu_corrupt = false;
  ++reclaimable_gpu_blocks_;
  ++counters_.swapped_out_chunks;
  LogEvent(EvictOp::kSwapOut, id, chunk_index);
  return Status::Ok();
}

Status TwoTierKvCache::ReclaimGpu(ConversationId id, int64_t chunk_index) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  Chunk& c = state->mutable_chunk(chunk_index);
  if (c.location != ChunkLocation::kGpuAndCpu) {
    return Status::FailedPrecondition("ReclaimGpu requires a clean CPU copy");
  }
  if (c.cpu_corrupt) {
    // Releasing the GPU copy would leave only a known-bad CPU copy.
    return Status::DataLoss("ReclaimGpu refused: CPU copy is corrupt");
  }
  ReleaseGpuBlock(c.gpu_block);
  c.gpu_block = kInvalidBlock;
  SetLocation(id, *state, chunk_index, ChunkLocation::kCpu);
  --reclaimable_gpu_blocks_;
  ++counters_.reclaimed_gpu_blocks;
  LogEvent(EvictOp::kReclaimGpu, id, chunk_index);
  return Status::Ok();
}

Status TwoTierKvCache::SwapIn(ConversationId id, int64_t chunk_index) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  Chunk& c = state->mutable_chunk(chunk_index);
  if (c.location != ChunkLocation::kCpu) {
    return Status::FailedPrecondition("SwapIn requires a CPU-only chunk");
  }
  Status verified = VerifyCpuChecksum(id, chunk_index);
  if (!verified.ok()) {
    return verified;
  }
  auto gpu_block = gpu_allocator_.Allocate();
  if (!gpu_block.has_value()) {
    return Status::ResourceExhausted("GPU tier full during swap-in");
  }
  c.gpu_block = *gpu_block;
  if (gpu_pool_ != nullptr) {
    // A plain copy for an unquantized CPU copy (fp32 codec, or one
    // materialized by a migration import).
    KvPool::DequantizeBlock(*cpu_pool_, c.cpu_block, *gpu_pool_, c.gpu_block);
  }
  SetLocation(id, *state, chunk_index, ChunkLocation::kGpuAndCpu);
  ++reclaimable_gpu_blocks_;
  ++counters_.swapped_in_chunks;
  return Status::Ok();
}

Status TwoTierKvCache::MarkCpuCorrupt(ConversationId id, int64_t chunk_index) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  Chunk& c = state->mutable_chunk(chunk_index);
  if (!c.HasCpuCopy()) {
    return Status::FailedPrecondition("no CPU copy to corrupt");
  }
  c.cpu_corrupt = true;
  if (cpu_pool_ != nullptr) {
    cpu_pool_->CorruptBlock(c.cpu_block);
  }
  ++counters_.corrupt_marked_chunks;
  return Status::Ok();
}

Status TwoTierKvCache::VerifyCpuChecksum(ConversationId id, int64_t chunk_index) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  const Chunk& c = state->chunk(chunk_index);
  if (!c.HasCpuCopy()) {
    return Status::FailedPrecondition("no CPU copy to verify");
  }
  ++counters_.checksum_verifications;
  if (c.cpu_corrupt || ComputeCpuChecksum(id, chunk_index, c) != c.cpu_checksum) {
    ++counters_.checksum_failures;
    return Status::DataLoss("CPU copy checksum mismatch (conversation " +
                            std::to_string(id) + ", chunk " +
                            std::to_string(chunk_index) + ")");
  }
  return Status::Ok();
}

Status TwoTierKvCache::DropCpuCopy(ConversationId id, int64_t chunk_index) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  Chunk& c = state->mutable_chunk(chunk_index);
  if (c.location != ChunkLocation::kGpuAndCpu) {
    return Status::FailedPrecondition("DropCpuCopy requires a kGpuAndCpu chunk");
  }
  cpu_allocator_.Free(c.cpu_block);
  c.cpu_block = kInvalidBlock;
  c.cpu_checksum = 0;
  c.cpu_corrupt = false;
  SetLocation(id, *state, chunk_index, ChunkLocation::kGpu);
  --reclaimable_gpu_blocks_;
  LogEvent(EvictOp::kDropCpuCopy, id, chunk_index);
  return Status::Ok();
}

Status TwoTierKvCache::DropChunk(ConversationId id, int64_t chunk_index) {
  ContextState* state_ptr = nullptr;
  Status found = FindChunk(id, chunk_index, &state_ptr);
  if (!found.ok()) {
    return found;
  }
  ContextState& state = *state_ptr;
  // Drop-from-the-front invariant: all earlier chunks must already be
  // dropped, otherwise recomputation could not treat the dropped region as a
  // context prefix (paper Figure 5).
  if (state.LeadingDroppedChunks() < chunk_index) {
    return Status::FailedPrecondition("non-prefix chunk drop attempted");
  }
  Chunk& c = state.mutable_chunk(chunk_index);
  if (c.Dropped()) {
    return Status::FailedPrecondition("chunk already dropped");
  }
  if (c.OnGpu()) {
    ReleaseGpuBlock(c.gpu_block);
    if (c.location == ChunkLocation::kGpuAndCpu) {
      --reclaimable_gpu_blocks_;
    }
    c.gpu_block = kInvalidBlock;
  }
  if (c.HasCpuCopy()) {
    cpu_allocator_.Free(c.cpu_block);
    c.cpu_block = kInvalidBlock;
  }
  if (c.OnSsd()) {
    // Idempotent: the flash tier may already have evicted the key.
    flash_->Erase(FlashTier::MakeKey(id, chunk_index));
  }
  c.cpu_checksum = 0;
  c.cpu_corrupt = false;
  c.ssd_checksum = 0;
  c.ssd_corrupt = false;
  SetLocation(id, state, chunk_index, ChunkLocation::kDropped);
  ++counters_.dropped_chunks;
  LogEvent(EvictOp::kDropChunk, id, chunk_index);
  return Status::Ok();
}

Status TwoTierKvCache::DropThroughPrefix(ConversationId id, int64_t chunk_index,
                                         int64_t* dropped_tokens) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  for (int64_t i = state->LeadingDroppedChunks(); i <= chunk_index; ++i) {
    const int64_t tokens = state->chunk(i).num_tokens;
    Status dropped = DropChunk(id, i);
    if (!dropped.ok()) {
      return dropped;
    }
    if (dropped_tokens != nullptr) {
      *dropped_tokens += tokens;
    }
  }
  return Status::Ok();
}

Status TwoTierKvCache::DemoteToFlash(ConversationId id, int64_t chunk_index) {
  if (flash_ == nullptr) {
    return Status::FailedPrecondition("no flash tier configured");
  }
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  Chunk& c = state->mutable_chunk(chunk_index);
  if (c.location != ChunkLocation::kCpu) {
    return Status::FailedPrecondition("DemoteToFlash requires a CPU-only chunk");
  }
  if (state->LeadingDroppedOrSsdChunks() < chunk_index) {
    return Status::FailedPrecondition("demotion must extend the dropped/SSD prefix");
  }
  // Never spill a copy that already fails verification; the caller drops it
  // and the chunk degrades to recomputation.
  Status verified = VerifyCpuChecksum(id, chunk_index);
  if (!verified.ok()) {
    return verified;
  }
  const uint64_t key = FlashTier::MakeKey(id, chunk_index);
  const auto evictable = [this](uint64_t k) {
    const ContextState* s = Find(FlashTier::KeyConversation(k));
    return s == nullptr || !s->pinned();
  };
  std::vector<uint64_t> evicted;
  const bool admitted = flash_->Insert(key, evictable, &evicted);
  // Keys the tier evicted are gone from it either way; their
  // chunks must be dropped even when the admission itself stalled.
  DropFlashVictims(evicted);
  if (!admitted) {
    return Status::ResourceExhausted("flash tier full of pinned chunks");
  }
  if (flash_->pool() != nullptr) {
    KvPool::CopyBlock(*cpu_pool_, c.cpu_block, *flash_->pool(),
                      flash_->BlockOf(key));
  }
  cpu_allocator_.Free(c.cpu_block);
  c.cpu_block = kInvalidBlock;
  c.cpu_checksum = 0;
  c.cpu_corrupt = false;
  SetLocation(id, *state, chunk_index, ChunkLocation::kSsd);
  c.ssd_checksum = ComputeSsdChecksum(id, chunk_index, c);
  c.ssd_corrupt = false;
  ++counters_.demoted_to_flash_chunks;
  LogEvent(EvictOp::kDemote, id, chunk_index);
  return Status::Ok();
}

Status TwoTierKvCache::PromoteFromFlash(ConversationId id, int64_t chunk_index) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  Chunk& c = state->mutable_chunk(chunk_index);
  if (!c.OnSsd()) {
    return Status::FailedPrecondition("PromoteFromFlash requires an SSD chunk");
  }
  Status verified = VerifySsdChecksum(id, chunk_index);
  if (!verified.ok()) {
    return verified;  // DATA_LOSS: chunk untouched, caller degrades to recompute
  }
  auto cpu_block = cpu_allocator_.Allocate();
  if (!cpu_block.has_value()) {
    return Status::ResourceExhausted("CPU tier full during flash promote");
  }
  const uint64_t key = FlashTier::MakeKey(id, chunk_index);
  c.cpu_block = *cpu_block;
  if (flash_->pool() != nullptr) {
    KvPool::CopyBlock(*flash_->pool(), flash_->BlockOf(key), *cpu_pool_,
                      c.cpu_block);
  }
  flash_->Erase(key);
  SetLocation(id, *state, chunk_index, ChunkLocation::kCpu);
  c.cpu_checksum = ComputeCpuChecksum(id, chunk_index, c);
  c.cpu_corrupt = false;
  c.ssd_checksum = 0;
  c.ssd_corrupt = false;
  ++counters_.promoted_from_flash_chunks;
  return Status::Ok();
}

Status TwoTierKvCache::MarkSsdCorrupt(ConversationId id, int64_t chunk_index) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  Chunk& c = state->mutable_chunk(chunk_index);
  if (!c.OnSsd()) {
    return Status::FailedPrecondition("no flash copy to corrupt");
  }
  c.ssd_corrupt = true;
  if (flash_->pool() != nullptr) {
    flash_->pool()->CorruptBlock(
        flash_->BlockOf(FlashTier::MakeKey(id, chunk_index)));
  }
  ++counters_.corrupt_marked_chunks;
  return Status::Ok();
}

Status TwoTierKvCache::VerifySsdChecksum(ConversationId id, int64_t chunk_index) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  const Chunk& c = state->chunk(chunk_index);
  if (!c.OnSsd()) {
    return Status::FailedPrecondition("no flash copy to verify");
  }
  ++counters_.checksum_verifications;
  if (c.ssd_corrupt || ComputeSsdChecksum(id, chunk_index, c) != c.ssd_checksum) {
    ++counters_.checksum_failures;
    return Status::DataLoss("flash copy checksum mismatch (conversation " +
                            std::to_string(id) + ", chunk " +
                            std::to_string(chunk_index) + ")");
  }
  return Status::Ok();
}

void TwoTierKvCache::DropFlashVictims(const std::vector<uint64_t>& evicted) {
  for (uint64_t key : evicted) {
    const ConversationId conv = FlashTier::KeyConversation(key);
    const int64_t victim_chunk = FlashTier::KeyChunk(key);
    ContextState* state = Find(conv);
    if (state == nullptr || victim_chunk >= state->num_chunks()) {
      continue;
    }
    // Prefix-drop through the victim; intermediate chunks are on SSD too
    // (flash runs are contiguous) and count as collateral evictions.
    for (int64_t i = state->LeadingDroppedChunks(); i <= victim_chunk; ++i) {
      if (state->chunk(i).Dropped()) {
        continue;  // an earlier victim in this batch already took it down
      }
      counters_.flash_evicted_tokens += state->chunk(i).num_tokens;
      ++counters_.flash_evicted_chunks;
      Status dropped = DropChunk(conv, i);
      PENSIEVE_CHECK(dropped.ok()) << dropped.message();
    }
  }
}

Status TwoTierKvCache::RestoreDropped(ConversationId id, int64_t chunk_index) {
  ContextState* state_ptr = nullptr;
  Status found = FindChunk(id, chunk_index, &state_ptr);
  if (!found.ok()) {
    return found;
  }
  ContextState& state = *state_ptr;
  Chunk& c = state.mutable_chunk(chunk_index);
  if (!c.Dropped()) {
    return Status::FailedPrecondition("RestoreDropped requires a dropped chunk");
  }
  auto gpu_block = gpu_allocator_.Allocate();
  if (!gpu_block.has_value()) {
    return Status::ResourceExhausted("GPU tier full during dropped-chunk restore");
  }
  c.gpu_block = *gpu_block;
  SetLocation(id, state, chunk_index, ChunkLocation::kGpu);
  ++counters_.restored_chunks;
  return Status::Ok();
}

int64_t TwoTierKvCache::ImportResident(ConversationId id, int64_t kv_len,
                                       int64_t resident_tokens,
                                       bool gpu_direct) {
  PENSIEVE_CHECK(Find(id) == nullptr) << "import over live conversation " << id;
  PENSIEVE_CHECK_LE(resident_tokens, kv_len);
  ContextState& state = GetOrCreate(id);
  state.InitializeImported(kv_len);
  // Materialize the trailing resident region newest first, keeping the
  // dropped region a prefix (the cache-wide invariant).
  int64_t budget = resident_tokens;
  int64_t imported = 0;
  for (int64_t i = state.num_chunks() - 1; i >= 0; --i) {
    Chunk& c = state.mutable_chunk(i);
    if (budget < c.num_tokens) {
      break;
    }
    const std::optional<BlockId> gpu_block =
        gpu_direct ? gpu_allocator_.Allocate() : std::nullopt;
    if (gpu_block.has_value()) {
      c.gpu_block = *gpu_block;
      SetLocation(id, state, i, ChunkLocation::kGpu);
    } else if (auto cpu_block = cpu_allocator_.Allocate(); cpu_block.has_value()) {
      // Host-memory landing (or a full GPU pool under gpu_direct): the
      // swap-in path restores the chunk on first use.
      c.cpu_block = *cpu_block;
      SetLocation(id, state, i, ChunkLocation::kCpu);
      c.cpu_checksum = ComputeCpuChecksum(id, i, c);
      c.cpu_corrupt = false;
    } else {
      break;
    }
    budget -= c.num_tokens;
    imported += c.num_tokens;
  }
  return imported;
}

std::vector<BlockId> TwoTierKvCache::GpuBlockTable(ConversationId id,
                                                   int64_t first_chunk) const {
  const ContextState* state = Find(id);
  PENSIEVE_CHECK(state != nullptr);
  std::vector<BlockId> table;
  table.reserve(static_cast<size_t>(state->num_chunks() - first_chunk));
  for (int64_t i = first_chunk; i < state->num_chunks(); ++i) {
    const Chunk& c = state->chunk(i);
    PENSIEVE_CHECK(c.OnGpu()) << "chunk " << i << " not GPU-resident ("
                              << ChunkLocationName(c.location) << ")";
    table.push_back(c.gpu_block);
  }
  return table;
}

const std::vector<TwoTierKvCache::Holder>& TwoTierKvCache::Holders(
    ChunkLocation location) const {
  PENSIEVE_CHECK_LT(static_cast<size_t>(location), kNumHeldLocations)
      << "no holder list for " << ChunkLocationName(location);
  return holders_[static_cast<size_t>(location)];
}

void TwoTierKvCache::SetLocation(ConversationId id, ContextState& state, int64_t i,
                                 ChunkLocation location) {
  const ChunkLocation old = state.chunk(i).location;
  state.SetLocation(i, location);
  SyncHolder(id, state, old);
  SyncHolder(id, state, location);
}

void TwoTierKvCache::SyncHolder(ConversationId id, ContextState& state,
                                ChunkLocation location) {
  const size_t k = static_cast<size_t>(location);
  if (k >= kNumHeldLocations) {
    return;
  }
  std::vector<Holder>& list = holders_[k];
  int64_t& slot = state.holder_slot_[k];
  const bool holds = state.ChunksAt(location) > 0;
  if (holds && slot < 0) {
    // Scanned (and indexed) by the next refresh: the state is stale.
    slot = static_cast<int64_t>(list.size());
    list.emplace_back(id, &state);
  } else if (!holds && slot >= 0) {
    Holder& leaving = list[static_cast<size_t>(slot)];
    ForgetFlags(k, leaving);
    Unindex(k, &leaving);
    // Move the last entry (and its cached candidates) into the hole.
    std::swap(leaving, list.back());
    list[static_cast<size_t>(slot)].state->holder_slot_[k] = slot;
    list.pop_back();
    slot = -1;
  }
}

size_t TwoTierKvCache::RecencyLowerBound(size_t k, double last_active,
                                         ConversationId id) const {
  const std::vector<RecencyEntry>& index = recency_[k];
  return static_cast<size_t>(
      std::partition_point(index.begin(), index.end(),
                           [&](const RecencyEntry& e) {
                             return e.last_active != last_active ? e.last_active < last_active
                                                                 : e.id < id;
                           }) -
      index.begin());
}

size_t TwoTierKvCache::RecencyPositionAfter(ChunkLocation location, double last_active,
                                            ConversationId id) const {
  // Ids are integers, so nothing sits between (last_active, id) and
  // (last_active, id + 1).
  return RecencyLowerBound(static_cast<size_t>(location), last_active, id + 1);
}

void TwoTierKvCache::ForgetFlags(size_t k, const Holder& holder) {
  shared_entries_[k] -= holder.has_shared;
  droppable_entries_ -= holder.droppable;
}

void TwoTierKvCache::Unindex(size_t k, Holder* holder) {
  if (!holder->indexed) {
    return;
  }
  std::vector<RecencyEntry>& index = recency_[k];
  const size_t at = RecencyLowerBound(k, holder->indexed_last_active, holder->id);
  PENSIEVE_CHECK(at < index.size() && index[at].id == holder->id)
      << "conversation " << holder->id << " missing from its recency index";
  index.erase(index.begin() + static_cast<std::ptrdiff_t>(at));
  ++recency_version_[k];
  holder->indexed = false;
}

void TwoTierKvCache::RescanHolder(size_t k, Holder* holder, int64_t pass) {
  ForgetFlags(k, *holder);
  ScanHolder(static_cast<ChunkLocation>(k), *holder->state, holder);
  holder->scanned_at = pass;
  shared_entries_[k] += holder->has_shared;
  droppable_entries_ += holder->droppable;
  // Pinned entries stay out: they offer no candidate, and a running
  // conversation is pinned for most of its life.
  const double last_active = holder->state->last_active();
  if (holder->indexed && (holder->pinned || holder->indexed_last_active != last_active)) {
    Unindex(k, holder);
  }
  if (!holder->pinned && !holder->indexed) {
    // A conversation that just ran is the most recent: usually an append.
    std::vector<RecencyEntry>& index = recency_[k];
    index.insert(index.begin() + static_cast<std::ptrdiff_t>(
                                     RecencyLowerBound(k, last_active, holder->id)),
                 RecencyEntry{last_active, holder->id, holder->state});
    ++recency_version_[k];
    holder->indexed = true;
    holder->indexed_last_active = last_active;
  }
}

void TwoTierKvCache::ScanHolder(ChunkLocation location, const ContextState& state,
                                Holder* holder) const {
  holder->pinned = state.pinned();
  holder->views.clear();
  holder->cursor.reset();
  holder->frontier.reset();
  holder->droppable = false;
  holder->in_window = false;
  holder->has_shared = false;
  if (holder->pinned) {
    return;
  }
  const ConversationId id = holder->id;
  const int64_t n = state.num_chunks();
  if (location == ChunkLocation::kCpu) {
    if (const int64_t i = state.FrontierChunk(Frontier::kCpuEvict); i < n) {
      holder->frontier = Candidate(id, state, i);
    }
    return;  // a CPU-only chunk is never shared
  }
  // Views sit inside the window; one cursor covers the unshared chunks.
  const int64_t window = shared_prefix_window_;
  const int64_t first = state.FirstChunkAt(location);
  const int64_t end = std::min(window, n);
  int64_t cursor = n;
  for (int64_t i = first; i < end; ++i) {
    if (state.chunk(i).location != location) {
      continue;
    }
    if (const ChunkCandidate c = Candidate(id, state, i); c.shared) {
      holder->views.push_back(c);
    } else if (cursor == n) {
      cursor = i;
    }
  }
  if (cursor == n) {
    cursor = state.NextChunkAt(location, end - 1);  // none unshared inside the window
  }
  if (cursor < n) {
    holder->cursor = Candidate(id, state, cursor);
  }
  holder->in_window = first < window;
  // The frontier queries visit a conversation once: through the kGpu list,
  // or through the kGpuAndCpu list when it holds no kGpu chunk.
  if (location == ChunkLocation::kGpu || state.ChunksAt(ChunkLocation::kGpu) == 0) {
    const int64_t i = state.FrontierChunk(Frontier::kFirstGpu);
    holder->frontier = Candidate(id, state, i);
    holder->droppable = state.FrontierChunk(Frontier::kGpuDrop) == i;
    holder->in_window = holder->in_window || i < window;
  }
  holder->has_shared =
      !holder->views.empty() || (holder->frontier.has_value() && holder->frontier->shared);
}

void TwoTierKvCache::RefreshHolders() {
  const int64_t pass = ++refresh_passes_;
  for (ContextState* state : stale_) {
    state->stale_slot_ = -1;
    for (size_t k = 0; k < kNumHeldLocations; ++k) {
      if (const int64_t slot = state->holder_slot_[k]; slot >= 0) {
        RescanHolder(k, &holders_[k][static_cast<size_t>(slot)], pass);
      }
    }
  }
  stale_.clear();
  if (scanned_epoch_ == share_epoch()) {
    return;
  }
  // A window that grew can take in chunks an entry scanned as outside it.
  const bool window_grew = scanned_window_ != shared_prefix_window_;
  for (ChunkLocation location : {ChunkLocation::kGpu, ChunkLocation::kGpuAndCpu}) {
    const size_t k = static_cast<size_t>(location);
    for (Holder& holder : holders_[k]) {
      if (holder.scanned_at != pass && (holder.in_window || window_grew)) {
        RescanHolder(k, &holder, pass);
      }
    }
  }
  scanned_epoch_ = share_epoch();
  scanned_window_ = shared_prefix_window_;
}

void TwoTierKvCache::GrowSharedPrefixWindow(int64_t chunks) {
  if (chunks > shared_prefix_window_) {
    shared_prefix_window_ = chunks;
    ++window_growths_;
  }
}

void TwoTierKvCache::ReleaseGpuBlock(BlockId block) {
  if (gpu_allocator_.Free(block)) {
    trie_.InvalidateBlock(block);
  }
}

int64_t TwoTierKvCache::AppendBlockDemand(ConversationId id, int64_t n) const {
  const ContextState* state = Find(id);
  if (state == nullptr) {
    return n <= 0 ? 0 : (n + config_.block_size - 1) / config_.block_size;
  }
  int64_t demand = state->NumNewChunksForAppend(n);
  if (n > 0 && state->num_chunks() > 0) {
    const Chunk& tail = state->chunk(state->num_chunks() - 1);
    if (tail.num_tokens < config_.block_size && tail.OnGpu() &&
        SharedGpuBlock(tail.gpu_block)) {
      ++demand;  // copy-on-write block
    }
  }
  return demand;
}

bool TwoTierKvCache::SharedGpuBlock(BlockId block) const {
  // num_shared() is exact, so with no shared block (sharing off) no
  // refcount is read.
  return block != kInvalidBlock && gpu_allocator_.num_shared() > 0 &&
         gpu_allocator_.refcount(block) > 1;
}

ChunkCandidate TwoTierKvCache::Candidate(ConversationId id, const ContextState& state,
                                         int64_t i) const {
  ChunkCandidate c;
  c.conversation_id = id;
  c.chunk_index = i;
  c.context_len = state.ChunkContextLen(i);
  c.last_active = state.last_active();
  const Chunk& chunk = state.chunk(i);
  c.shared = chunk.OnGpu() && SharedGpuBlock(chunk.gpu_block);
  return c;
}

int64_t TwoTierKvCache::LookupSharedPrefix(const std::vector<uint64_t>& chain,
                                           std::vector<BlockId>* blocks) const {
  return trie_.Lookup(chain, blocks);
}

int64_t TwoTierKvCache::PublishSharedPrefix(const std::vector<uint64_t>& chain,
                                            const std::vector<BlockId>& blocks) {
  for (BlockId b : blocks) {
    PENSIEVE_CHECK(gpu_allocator_.IsAllocated(b))
        << "publishing unallocated block " << b;
  }
  GrowSharedPrefixWindow(static_cast<int64_t>(blocks.size()));
  return trie_.Publish(chain, blocks);
}

int64_t TwoTierKvCache::PublishLeadingChunks(ConversationId id,
                                             const std::vector<uint64_t>& chain) {
  const ContextState* state = Find(id);
  if (state == nullptr) {
    return 0;
  }
  std::vector<BlockId> blocks;
  const int64_t limit = std::min(static_cast<int64_t>(chain.size()), state->num_chunks());
  for (int64_t i = 0; i < limit; ++i) {
    const Chunk& c = state->chunk(i);
    if (!c.OnGpu() || c.num_tokens < config_.block_size) {
      break;
    }
    blocks.push_back(c.gpu_block);
  }
  return PublishSharedPrefix(chain, blocks);
}

int64_t TwoTierKvCache::AttachSharedPrefix(ConversationId id,
                                           const std::vector<BlockId>& blocks,
                                           int64_t tokens) {
  PENSIEVE_CHECK(!blocks.empty());
  PENSIEVE_CHECK_GT(tokens,
                    (static_cast<int64_t>(blocks.size()) - 1) * config_.block_size);
  PENSIEVE_CHECK_LE(tokens, static_cast<int64_t>(blocks.size()) * config_.block_size);
  ContextState& state = GetOrCreate(id);
  PENSIEVE_CHECK_EQ(state.kv_len(), 0)
      << "shared prefix attach requires a fresh conversation";
  GrowSharedPrefixWindow(static_cast<int64_t>(blocks.size()));
  int64_t remaining = tokens;
  for (BlockId b : blocks) {
    const int64_t take = std::min(remaining, config_.block_size);
    gpu_allocator_.Share(b);
    state.AttachSharedChunk(b, take);
    remaining -= take;
    ++counters_.shared_attached_chunks;
  }
  SyncHolder(id, state, ChunkLocation::kGpu);
  counters_.shared_attached_tokens += tokens;
  counters_.peak_shared_blocks =
      std::max(counters_.peak_shared_blocks, gpu_allocator_.num_shared());
  return tokens;
}

Status TwoTierKvCache::ReattachDroppedShared(ConversationId id, int64_t chunk_index,
                                             BlockId block) {
  ContextState* state = nullptr;
  Status found = FindChunk(id, chunk_index, &state);
  if (!found.ok()) {
    return found;
  }
  Chunk& c = state->mutable_chunk(chunk_index);
  if (!c.Dropped()) {
    return Status::FailedPrecondition("ReattachDroppedShared requires a dropped chunk");
  }
  if (c.num_tokens != config_.block_size) {
    return Status::FailedPrecondition("partial chunks stay private");
  }
  if (!gpu_allocator_.IsAllocated(block)) {
    return Status::FailedPrecondition("shared block no longer allocated");
  }
  gpu_allocator_.Share(block);
  GrowSharedPrefixWindow(chunk_index + 1);
  c.gpu_block = block;
  SetLocation(id, *state, chunk_index, ChunkLocation::kGpu);
  ++counters_.shared_attached_chunks;
  counters_.shared_attached_tokens += c.num_tokens;
  counters_.peak_shared_blocks =
      std::max(counters_.peak_shared_blocks, gpu_allocator_.num_shared());
  return Status::Ok();
}

void TwoTierKvCache::VerifyNoLeaks() const {
  int64_t gpu_refs = 0;
  int64_t cpu_refs = 0;
  for (const auto& [id, state] : conversations()) {
    for (const Chunk& c : state.chunks()) {
      if (c.OnGpu()) {
        ++gpu_refs;
      }
      if (c.HasCpuCopy()) {
        ++cpu_refs;
      }
    }
  }
  PENSIEVE_CHECK_EQ(gpu_refs, gpu_allocator_.live_refs())
      << "GPU KV block leak: " << gpu_allocator_.live_refs()
      << " live references but only " << gpu_refs << " chunk views";
  PENSIEVE_CHECK_EQ(cpu_refs, cpu_allocator_.live_refs())
      << "CPU KV block leak: " << cpu_allocator_.live_refs()
      << " live references but only " << cpu_refs << " chunk views";
}

void TwoTierKvCache::CheckInvariants() const {
  int64_t gpu_in_use = 0;
  int64_t cpu_in_use = 0;
  int64_t reclaimable = 0;
  int64_t ssd_chunks = 0;
  std::unordered_map<BlockId, int64_t> gpu_views;
  int64_t holders = 0;
  int64_t stale = 0;
  std::array<int64_t, kNumHeldLocations> shared_entries{};
  std::array<int64_t, kNumHeldLocations> indexed{};
  int64_t droppable = 0;
  // Entries are checked unless a refresh is already owed to them.
  const bool epoch_moved = scanned_epoch_ != share_epoch();
  const bool window_grew = scanned_window_ != shared_prefix_window_;
  for (const auto& [id, state] : conversations()) {
    state.CheckFrontiers();
    if (state.stale_slot_ >= 0) {
      PENSIEVE_CHECK(stale_.at(static_cast<size_t>(state.stale_slot_)) == &state);
      ++stale;
    }
    for (size_t k = 0; k < kNumHeldLocations; ++k) {
      const int64_t slot = state.holder_slot_[k];
      PENSIEVE_CHECK_EQ(slot >= 0, state.ChunksAt(static_cast<ChunkLocation>(k)) > 0)
          << "conversation " << id << ": holder list out of date";
      if (slot < 0) {
        continue;
      }
      const Holder& holder = holders_[k][static_cast<size_t>(slot)];
      PENSIEVE_CHECK(holder.state == &state);
      PENSIEVE_CHECK_EQ(holder.id, id);
      ++holders;
      // The counts and the index follow the cached fields, stale or not.
      PENSIEVE_CHECK_EQ(holder.has_shared,
                        !holder.views.empty() ||
                            (holder.frontier.has_value() && holder.frontier->shared));
      shared_entries[k] += holder.has_shared;
      droppable += holder.droppable;
      if (holder.indexed) {
        ++indexed[k];
        const std::vector<RecencyEntry>& index = recency_[k];
        const size_t at = RecencyLowerBound(k, holder.indexed_last_active, id);
        PENSIEVE_CHECK(at < index.size() && index[at].id == id && index[at].state == &state &&
                       index[at].last_active == holder.indexed_last_active)
            << "conversation " << id << ": recency index entry out of date";
      }
      if (state.stale_slot_ >= 0) {
        continue;
      }
      PENSIEVE_CHECK(holder.indexed == !holder.pinned &&
                     (!holder.indexed || holder.indexed_last_active == state.last_active()))
          << "conversation " << id << ": recency index missed a pin or activity change";
      if (epoch_moved && (holder.in_window || window_grew)) {
        continue;
      }
      Holder fresh(id, nullptr);
      ScanHolder(static_cast<ChunkLocation>(k), state, &fresh);
      PENSIEVE_CHECK(fresh.pinned == holder.pinned && fresh.views == holder.views &&
                     fresh.cursor == holder.cursor && fresh.frontier == holder.frontier &&
                     fresh.droppable == holder.droppable &&
                     fresh.in_window == holder.in_window &&
                     fresh.has_shared == holder.has_shared)
          << "conversation " << id << ": cached "
          << ChunkLocationName(static_cast<ChunkLocation>(k))
          << " candidates differ from its state (a change missed the stale list)";
    }
    bool seen_non_dropped = false;
    bool seen_past_flash_run = false;
    for (int64_t i = 0; i < state.num_chunks(); ++i) {
      const Chunk& c = state.chunk(i);
      if (c.Dropped()) {
        PENSIEVE_CHECK(!seen_non_dropped)
            << "conversation " << id << ": dropped chunk " << i
            << " follows a resident chunk (prefix invariant violated)";
        PENSIEVE_CHECK_EQ(c.gpu_block, kInvalidBlock);
        PENSIEVE_CHECK_EQ(c.cpu_block, kInvalidBlock);
        continue;
      }
      seen_non_dropped = true;
      if (c.OnSsd()) {
        PENSIEVE_CHECK(!seen_past_flash_run)
            << "conversation " << id << ": SSD chunk " << i
            << " follows a CPU/GPU-resident chunk (flash-run invariant)";
        PENSIEVE_CHECK(flash_ != nullptr);
        PENSIEVE_CHECK(flash_->Contains(FlashTier::MakeKey(id, i)));
        PENSIEVE_CHECK_EQ(c.gpu_block, kInvalidBlock);
        PENSIEVE_CHECK_EQ(c.cpu_block, kInvalidBlock);
        ++ssd_chunks;
      } else {
        seen_past_flash_run = true;
      }
      if (c.OnGpu()) {
        PENSIEVE_CHECK(gpu_allocator_.IsAllocated(c.gpu_block));
        PENSIEVE_CHECK(!SharedGpuBlock(c.gpu_block) || i < shared_prefix_window_)
            << "conversation " << id << ": shared chunk " << i
            << " outside the shared-prefix window " << shared_prefix_window_;
        ++gpu_in_use;
        ++gpu_views[c.gpu_block];
      }
      if (c.HasCpuCopy()) {
        PENSIEVE_CHECK(cpu_allocator_.IsAllocated(c.cpu_block));
        ++cpu_in_use;
      }
      if (c.location == ChunkLocation::kGpuAndCpu) {
        ++reclaimable;
      }
      // Only the final chunk may be partial.
      if (i + 1 < state.num_chunks()) {
        PENSIEVE_CHECK_EQ(c.num_tokens, config_.block_size);
      }
    }
  }
  // Shared blocks make chunk views and physical blocks distinct quantities:
  // every view holds one allocator reference, distinct blocks equal the
  // physically allocated count, and each block's refcount matches its views.
  PENSIEVE_CHECK_EQ(gpu_in_use, gpu_allocator_.live_refs());
  PENSIEVE_CHECK_EQ(static_cast<int64_t>(gpu_views.size()),
                    gpu_allocator_.num_allocated());
  for (const auto& [block, views] : gpu_views) {
    PENSIEVE_CHECK_EQ(views, gpu_allocator_.refcount(block))
        << "block " << block << " refcount disagrees with its view count";
  }
  // The CPU tier is never shared: views, live references, and physical
  // blocks all coincide.
  PENSIEVE_CHECK_EQ(cpu_in_use, cpu_allocator_.num_allocated());
  PENSIEVE_CHECK_EQ(cpu_in_use, cpu_allocator_.live_refs());
  // Trie references are weak but must never dangle: invalidation happens
  // when the last view releases the block.
  for (BlockId b : trie_.ReferencedBlocks()) {
    PENSIEVE_CHECK(gpu_allocator_.IsAllocated(b))
        << "prefix trie references freed block " << b;
  }
  PENSIEVE_CHECK_EQ(reclaimable, reclaimable_gpu_blocks_);
  PENSIEVE_CHECK_EQ(holders, static_cast<int64_t>(holders_[0].size() + holders_[1].size() +
                                                  holders_[2].size()));
  PENSIEVE_CHECK_EQ(stale, static_cast<int64_t>(stale_.size()));
  PENSIEVE_CHECK_EQ(droppable, droppable_entries_) << "droppable entry count drifted";
  for (size_t k = 0; k < kNumHeldLocations; ++k) {
    PENSIEVE_CHECK_EQ(shared_entries[k], shared_entries_[k]) << "shared entry count drifted";
    const std::vector<RecencyEntry>& index = recency_[k];
    PENSIEVE_CHECK_EQ(indexed[k], static_cast<int64_t>(index.size()))
        << "recency index holds entries no holder list does";
    for (size_t i = 1; i < index.size(); ++i) {
      const RecencyEntry& a = index[i - 1];
      const RecencyEntry& b = index[i];
      PENSIEVE_CHECK(a.last_active < b.last_active ||
                     (a.last_active == b.last_active && a.id < b.id))
          << "recency index out of (last_active, id) order";
    }
  }
  if (flash_ != nullptr) {
    PENSIEVE_CHECK_EQ(ssd_chunks, flash_->live_blocks());
    PENSIEVE_CHECK_EQ(ssd_chunks, flash_->resident_keys());
  } else {
    PENSIEVE_CHECK_EQ(ssd_chunks, 0);
  }
}

}  // namespace pensieve
