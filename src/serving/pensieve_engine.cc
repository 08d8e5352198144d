#include "src/serving/pensieve_engine.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"

namespace pensieve {

namespace {

KvCacheConfig MakeCacheConfig(const PensieveEngineOptions& options,
                              const GpuCostModel& cost_model) {
  KvCacheConfig config;
  config.block_size = options.block_size;
  config.num_gpu_blocks = options.num_gpu_blocks;
  config.num_cpu_blocks = options.use_cpu_cache ? options.num_cpu_blocks : 0;
  // The flash tier sits behind the CPU tier; without one it has no feeder.
  config.num_ssd_blocks = options.use_cpu_cache ? options.num_ssd_blocks : 0;
  config.ssd_segment_blocks = options.ssd_segment_blocks;
  config.numeric = false;
  config.kv_quant = options.kv_quant;
  if (options.kv_quant) {
    // CPU/SSD capacity is accounted in compressed bytes: one block of
    // block_size tokens shrinks from the fp16 substrate size to the int8
    // payload plus one amax scale, and the cache scales its CPU/SSD block
    // budgets up by that ratio.
    const ModelConfig& model = cost_model.model();
    config.kv_raw_block_bytes = options.block_size * model.KvBytesPerTokenPerGpu();
    config.kv_quant_block_bytes =
        options.block_size * model.KvQuantBytesPerTokenPerGpu() +
        static_cast<int64_t>(sizeof(float));
  }
  return config;
}

CacheCoordinator::Options MakeCoordinatorOptions(const PensieveEngineOptions& options) {
  CacheCoordinator::Options coord;
  coord.use_cpu_cache = options.use_cpu_cache;
  coord.swap_out_target = options.swap_out_threshold;
  coord.conversation_granularity =
      options.policy == EvictionPolicyKind::kConversationLru;
  return coord;
}

// Bytes one KV token occupies on the wire for off-GPU transfers (swap,
// spill, promote, migration) and in CPU/SSD storage: the compressed int8
// size under kv_quant, the fp16 substrate size otherwise. Per-GPU share,
// matching GpuCostModel::KvBytesPerToken(). The per-block amax scale rides
// along but is noise at wire granularity (4 bytes per block_size tokens);
// capacity accounting carries it exactly.
int64_t KvWireBytesPerToken(const PensieveEngineOptions& options,
                            const GpuCostModel& cost_model) {
  return options.kv_quant ? cost_model.model().KvQuantBytesPerTokenPerGpu()
                          : cost_model.KvBytesPerToken();
}

// Decorrelates the SSD injector's RNG stream from the PCIe injector's, so
// arming one link's faults never shifts the other's draw sequence.
constexpr uint64_t kSsdSeedSalt = 0x9E3779B97F4A7C15ull;

}  // namespace

PensieveEngine::PensieveEngine(const GpuCostModel& cost_model,
                               PensieveEngineOptions options)
    : cost_model_(cost_model), options_(std::move(options)),
      kv_wire_bytes_per_token_(KvWireBytesPerToken(options_, cost_model)),
      cache_(MakeCacheConfig(options_, cost_model)),
      cost_estimator_(ChunkCostEstimator::ProfileFromCostModel(
          cost_model, options_.block_size, cost_model.model().max_context)),
      policy_(MakeEvictionPolicy(options_.policy, cost_estimator_)),
      coordinator_(&cache_, policy_.get(), MakeCoordinatorOptions(options_),
                   [this](int64_t conv) {
                     auto it = inflight_.find(conv);
                     return it == inflight_.end() || it->second == 0;
                   }),
      link_(cost_model.hardware().num_gpus, cost_model.hardware().pcie_bandwidth,
            cost_model.hardware().pcie_duplex_factor, options_.prioritize_swap_in),
      pcie_faults_(options_.fault_seed, options_.pcie_fault_profile,
                   options_.fault_retry),
      ssd_link_(cost_model.hardware().ssd_read_bandwidth,
                cost_model.hardware().ssd_write_bandwidth,
                cost_model.hardware().ssd_access_latency),
      ssd_faults_(options_.fault_seed ^ kSsdSeedSalt, options_.ssd_fault_profile,
                  options_.fault_retry),
      template_chains_(options_.block_size) {
  PENSIEVE_CHECK_GT(options_.num_gpu_blocks, 0);
}

LinkTransferOutcome PensieveEngine::Move(KvLink link, double start, int64_t tokens) {
  const double bytes =
      static_cast<double>(tokens) * static_cast<double>(kv_wire_bytes_per_token_);
  switch (link) {
    case KvLink::kDeviceToHost:
      return pcie_faults_.Transfer(start, bytes, [this](double s, double b) {
        return link_.ScheduleDeviceToHost(s, b);
      });
    case KvLink::kHostToDevice:
      return pcie_faults_.Transfer(start, bytes, [this](double s, double b) {
        return link_.ScheduleHostToDevice(s, b);
      });
    case KvLink::kSsdRead:
      return ssd_faults_.Transfer(
          start, bytes, [this](double s, double b) { return ssd_link_.ScheduleRead(s, b); });
    case KvLink::kSsdWrite:
      break;
  }
  return ssd_faults_.Transfer(
      start, bytes, [this](double s, double b) { return ssd_link_.ScheduleWrite(s, b); });
}

void PensieveEngine::ChargeFlashSpill(double now) {
  const CacheCoordinator::SpillOutcome spill = coordinator_.TakeSpill();
  stats_.ssd_failed_demotes += spill.failed_demotes;
  if (spill.demoted_tokens == 0) {
    return;
  }
  stats_.ssd_demoted_tokens += spill.demoted_tokens;
  if (!Move(KvLink::kSsdWrite, now, spill.demoted_tokens).delivered) {
    // The state transitions already happened; poison the flash copies that
    // never landed so promotion detects the loss and degrades to
    // recomputation instead of restoring garbage.
    for (const auto& [conv, chunk] : spill.demoted) {
      (void)cache_.MarkSsdCorrupt(conv, chunk);
    }
  }
}

void PensieveEngine::PlanSsdRecompute(int64_t conversation_id) {
  if (!cache_.flash_enabled()) {
    return;
  }
  ContextState* conv = cache_.Find(conversation_id);
  if (conv == nullptr) {
    return;
  }
  const HardwareSpec& hw = cost_model_.hardware();
  RestoreLinkSpeeds speeds;
  speeds.pcie_bandwidth = hw.pcie_bandwidth;
  speeds.ssd_read_bandwidth = hw.ssd_read_bandwidth;
  speeds.ssd_access_latency = hw.ssd_access_latency;
  const int64_t kv_bytes = kv_wire_bytes_per_token_;
  int64_t context = conv->LeadingDroppedTokens();
  for (int64_t i = conv->LeadingDroppedChunks(); i < conv->num_chunks(); ++i) {
    const Chunk& c = conv->chunk(i);
    if (!c.OnSsd() && c.location != ChunkLocation::kCpu) {
      break;  // GPU-resident: the restorable frontier ends here
    }
    context += c.num_tokens;
    const RestoreSource source =
        c.OnSsd() ? RestoreSource::kSsd : RestoreSource::kCpu;
    if (PlanChunkRestore(cost_estimator_, source, c.num_tokens, context,
                         kv_bytes, speeds) == RestoreAction::kRestore) {
      break;
    }
    stats_.ssd_planned_recompute_tokens += c.num_tokens;
    PENSIEVE_CHECK_OK(cache_.DropChunk(conversation_id, i));
  }
}

void PensieveEngine::SyncCacheStats() {
  stats_.link_faults = pcie_faults_.stats();
  stats_.ssd_link_faults = ssd_faults_.stats();
  const TwoTierKvCache::Counters& counters = cache_.counters();
  stats_.ssd_demoted_chunks = counters.demoted_to_flash_chunks;
  stats_.ssd_promoted_chunks = counters.promoted_from_flash_chunks;
  stats_.ssd_evicted_chunks = counters.flash_evicted_chunks;
  stats_.ssd_evicted_tokens = counters.flash_evicted_tokens;
  if (const FlashTier* flash = cache_.flash_tier()) {
    const SegmentLog::Stats& log_stats = flash->log().stats();
    stats_.ssd_user_blocks_written = log_stats.user_appends;
    stats_.ssd_gc_moves = log_stats.gc_moves;
    stats_.ssd_gc_runs = log_stats.gc_runs;
  }
  stats_.shared_attached_chunks = counters.shared_attached_chunks;
  stats_.cow_copies = counters.cow_copies;
  stats_.peak_shared_blocks = counters.peak_shared_blocks;
  const BlockAllocator& gpu = cache_.gpu_allocator();
  stats_.kv_block_acquires = gpu.total_acquires();
  stats_.kv_block_releases = gpu.total_releases();
  stats_.kv_blocks_live = gpu.live_refs();
  stats_.gpu_peak_allocated_blocks = gpu.peak_allocated();
  stats_.kv_quant_blocks = counters.quantized_blocks;
  stats_.kv_quant_bytes_saved = counters.quant_bytes_saved;
}

int64_t PensieveEngine::SharedTemplateBlocks(const Request& request) const {
  if (!options_.enable_prefix_sharing || request.template_id < 0) {
    return 0;
  }
  return request.template_prefix_len / options_.block_size;
}

PensieveEngine::TemplateAttachOutcome PensieveEngine::AttachTemplatePrefix(
    Running* r, ContextState* conv, bool first_admission) {
  TemplateAttachOutcome attach;
  const int64_t template_blocks = SharedTemplateBlocks(r->request);
  if (template_blocks == 0) {
    return attach;
  }
  const int64_t bs = options_.block_size;
  std::vector<BlockId> blocks;
  const int64_t matched = cache_.LookupSharedPrefix(
      template_chains_.Get(r->request.template_id, template_blocks), &blocks);
  if (matched <= 0) {
    return attach;
  }
  const int64_t conv_id = r->request.conversation_id;
  if (first_admission && conv->kv_len() == 0) {
    // Fresh conversation: attach the matched run as refcounted views, capped
    // one short of the pending input so the step keeps a query token to
    // extend the context with. The cap (or the template length) can land
    // mid-block; the partial tail view diverges via copy-on-write on the
    // first append into it.
    const int64_t span =
        std::min(std::min(matched * bs, r->request.template_prefix_len),
                 r->pending_new_tokens - 1);
    if (span <= 0) {
      return attach;
    }
    blocks.resize(static_cast<size_t>((span + bs - 1) / bs));
    const int64_t tail_raw = r->request.history_len;  // kv_len() == 0
    attach.fresh_tokens = cache_.AttachSharedPrefix(conv_id, blocks, span);
    r->pending_new_tokens -= attach.fresh_tokens;
    r->reused_shared += attach.fresh_tokens;
    r->shared_prompt_skipped = std::max<int64_t>(0, attach.fresh_tokens - tail_raw);
    ++stats_.dedup_hit_requests;
    stats_.reused_shared_tokens += attach.fresh_tokens;
    attach.counted_hit = true;
    return attach;
  }
  // Re-admission (or a later turn): a dropped leading run still matching
  // published template blocks is re-attached as views instead of being
  // restored and recomputed. All or nothing: rescuing only part of the
  // dropped prefix would leave dropped chunks *behind* GPU-resident ones,
  // breaking the drop-prefix invariant the restore paths rely on.
  const int64_t dropped_prefix = conv->LeadingDroppedChunks();
  if (dropped_prefix == 0 || dropped_prefix > matched) {
    return attach;
  }
  for (int64_t i = 0; i < dropped_prefix; ++i) {
    if (conv->chunk(i).num_tokens != bs) {
      return attach;  // a partial dropped chunk stays private
    }
  }
  for (int64_t i = 0; i < dropped_prefix; ++i) {
    if (!cache_.ReattachDroppedShared(conv_id, i, blocks[static_cast<size_t>(i)])
             .ok()) {
      // Re-drop the rescued run so the invariant holds, and fall back to the
      // ordinary restore + recompute path.
      if (i > 0) {
        PENSIEVE_CHECK_OK(cache_.DropThroughPrefix(conv_id, i - 1));
      }
      return attach;
    }
    ++attach.reattached_chunks;
    attach.reattached_tokens += conv->chunk(i).num_tokens;
  }
  if (attach.reattached_tokens > 0 && first_admission) {
    r->reused_shared += attach.reattached_tokens;
    stats_.reused_shared_tokens += attach.reattached_tokens;
    ++stats_.dedup_hit_requests;
    attach.counted_hit = true;
  }
  return attach;
}

void PensieveEngine::UndoTemplateAttach(Running* r,
                                        const TemplateAttachOutcome& attach) {
  const int64_t conv_id = r->request.conversation_id;
  if (attach.fresh_tokens > 0) {
    // The conversation was fresh before the attach, so releasing its state
    // restores exactly the pre-attach world (views DecRef'd, blocks freed
    // when the last holder drops).
    cache_.Release(conv_id);
    r->pending_new_tokens += attach.fresh_tokens;
    r->shared_prompt_skipped = 0;
  }
  if (attach.reattached_chunks > 0) {
    PENSIEVE_CHECK_OK(cache_.DropThroughPrefix(conv_id, attach.reattached_chunks - 1));
  }
  if (attach.counted_hit) {
    const int64_t tokens = attach.fresh_tokens + attach.reattached_tokens;
    r->reused_shared -= tokens;
    stats_.reused_shared_tokens -= tokens;
    --stats_.dedup_hit_requests;
  }
}

void PensieveEngine::PublishTemplatePrefix(const Running& r) {
  const int64_t template_blocks = SharedTemplateBlocks(r.request);
  if (template_blocks == 0) {
    return;
  }
  cache_.PublishLeadingChunks(r.request.conversation_id,
                              template_chains_.Get(r.request.template_id, template_blocks));
}

double PensieveEngine::ChargeSwapOut(
    int64_t tokens, const std::vector<std::pair<ConversationId, int64_t>>& chunks,
    double now) {
  const LinkTransferOutcome out = Move(KvLink::kDeviceToHost, now, tokens);
  if (!out.delivered) {
    // The GPU slots are already reassigned; the copies that never landed
    // are poisoned so the next swap-in attempt detects the loss and
    // degrades to recomputation.
    for (const auto& [conv, chunk] : chunks) {
      (void)cache_.MarkCpuCorrupt(conv, chunk);
    }
    stats_.fault_failed_swap_outs += static_cast<int64_t>(chunks.size());
  }
  return out.done;
}

bool PensieveEngine::FreeGpuBlocks(int64_t n, double now) {
  const CacheCoordinator::FreeOutcome freed = coordinator_.EnsureFreeGpuBlocks(n, now);
  if (freed.forced_swap_out_tokens > 0) {
    const double done = ChargeSwapOut(freed.forced_swap_out_tokens, freed.forced_swapped, now);
    pending_forced_stall_ += std::max(0.0, done - now);
    stats_.forced_swap_out_tokens += freed.forced_swap_out_tokens;
  }
  ChargeFlashSpill(now);
  return freed.ok;
}

void PensieveEngine::DegradePrefixThrough(int64_t conversation_id,
                                          int64_t deepest_chunk) {
  ContextState* conv = cache_.Find(conversation_id);
  if (conv == nullptr) {
    return;
  }
  // The leading-dropped count grows by exactly the chunks dropped here (none
  // when `deepest_chunk` is already dropped).
  const int64_t dropped_before = conv->LeadingDroppedChunks();
  (void)cache_.DropThroughPrefix(conversation_id, deepest_chunk,
                                 &stats_.fault_recompute_tokens);
  stats_.fault_dropped_chunks += conv->LeadingDroppedChunks() - dropped_before;
  ++stats_.fault_degraded_admissions;
}

void PensieveEngine::DegradeCorruptChunks(int64_t conversation_id) {
  ContextState* conv = cache_.Find(conversation_id);
  if (conv == nullptr) {
    return;
  }
  int64_t deepest = -1;
  for (int64_t i = 0; i < conv->num_chunks(); ++i) {
    const Chunk& c = conv->chunk(i);
    if (c.location == ChunkLocation::kGpuAndCpu && c.cpu_corrupt) {
      // The GPU copy is intact; just discard the poisoned CPU copy.
      ++stats_.checksum_detected_corruptions;
      (void)cache_.DropCpuCopy(conversation_id, i);
      continue;
    }
    if (c.OnSsd() && !cache_.VerifySsdChecksum(conversation_id, i).ok()) {
      // A flash copy whose demotion transfer failed (or that rotted on the
      // device): only recomputation can rebuild it.
      ++stats_.checksum_detected_corruptions;
      deepest = i;
      continue;
    }
    if (c.location == ChunkLocation::kCpu &&
        !cache_.VerifyCpuChecksum(conversation_id, i).ok()) {
      ++stats_.checksum_detected_corruptions;
      deepest = i;
    }
  }
  if (deepest >= 0) {
    DegradePrefixThrough(conversation_id, deepest);
  }
}

void PensieveEngine::Enqueue(const Request& request, double now) {
  PENSIEVE_CHECK_GT(request.new_prompt_len, 0);
  PENSIEVE_CHECK_GT(request.target_output_len, 0);
  Running r;
  r.request = request;
  r.pending_new_tokens = request.new_prompt_len;
  ++inflight_[request.conversation_id];
  waiting_.push_back(std::move(r));
}

bool PensieveEngine::HasWork() const { return !waiting_.empty() || !running_.empty(); }

bool PensieveEngine::TryAdmit(Running* r, double now, int64_t batch_input_tokens) {
  const int64_t conv_id = r->request.conversation_id;
  ContextState& conv = cache_.GetOrCreate(conv_id);
  const bool first_admission = r->first_scheduled_time < 0;
  if (first_admission) {
    // The cached context covers a prefix of the raw history. When this
    // engine served every prior turn, the only uncached raw token is the
    // previous turn's final generated token, which was emitted but never
    // fed back through the model; that pending tail token joins this
    // turn's input. A larger gap is also legal: a forgotten conversation
    // re-enters with an empty state, and under cluster routing a
    // conversation can return to a replica that cached only its early
    // turns. Either way the uncached raw suffix is fetched from the
    // persistent store and recomputed as new input atop whatever prefix is
    // still cached here.
    const int64_t tail_raw = r->request.history_len - conv.kv_len();
    // Negative is legal in exactly one case: a shared-prefix attach from an
    // earlier failed admission attempt of this same request already covers
    // part of this turn's prompt, so kv_len exceeds the raw history by that
    // in-prompt span (always leaving at least one pending query token).
    PENSIEVE_CHECK(tail_raw >= 0 ||
                   (r->request.template_id >= 0 &&
                    -tail_raw < r->request.new_prompt_len))
        << "conversation " << conv_id << " turn " << r->request.turn_index;
    r->pending_new_tokens = tail_raw + r->request.new_prompt_len;
  }

  // Detected-corruption degrade: chunks whose CPU or flash copy fails
  // checksum verification are dropped (with the prefix before them) before
  // the admission plan is computed, so they re-enter through the
  // recomputation path below instead of restoring garbage KV.
  if (pcie_faults_.enabled() || ssd_faults_.enabled()) {
    DegradeCorruptChunks(conv_id);
  }
  // Three-way restore planning: drop frontier chunks whose recomputation
  // beats their restore path (no-op unless the flash tier is enabled).
  PlanSsdRecompute(conv_id);

  // Shared-prefix dedup: attach (or re-attach) published template blocks
  // before the admission plan is computed, so the shared run counts as
  // GPU-resident reuse instead of restore or recompute work. Runs after the
  // degrade passes above: a prefix they dropped may be rescued from the trie.
  const TemplateAttachOutcome attach =
      AttachTemplatePrefix(r, &conv, first_admission);

  const int64_t dropped_chunks = conv.LeadingDroppedChunks();
  const int64_t dropped_tokens = conv.LeadingDroppedTokens();
  const std::vector<int64_t> ssd_chunks = conv.SsdChunks();
  const std::vector<int64_t> staged_cpu_chunks = conv.CpuOnlyChunks();
  const int64_t input_tokens = dropped_tokens + r->pending_new_tokens;
  if (batch_input_tokens > 0 &&
      batch_input_tokens + input_tokens > options_.max_batch_tokens) {
    UndoTemplateAttach(r, attach);
    return false;
  }
  const int64_t append_chunks = cache_.AppendBlockDemand(conv_id, r->pending_new_tokens);
  const int64_t blocks_needed = dropped_chunks +
                                static_cast<int64_t>(ssd_chunks.size()) +
                                static_cast<int64_t>(staged_cpu_chunks.size()) +
                                append_chunks;
  // Decode reservation (§4.3.5): leave headroom for requests already
  // generating, unless the batch is empty.
  const int64_t capacity = cache_.gpu_allocator().capacity();
  const double reserve_blocks = options_.decode_reserve * static_cast<double>(capacity);
  if (!running_.empty() &&
      static_cast<double>(cache_.AvailableGpuBlocks() - blocks_needed) < reserve_blocks) {
    UndoTemplateAttach(r, attach);
    return false;
  }

  conv.Pin();
  if (!FreeGpuBlocks(blocks_needed, now)) {
    conv.Unpin();
    UndoTemplateAttach(r, attach);
    return false;
  }

  // A restore that cannot complete drops the prefix through `deepest_chunk`
  // and re-admits inline on the recompute path (§4.3.4). The degraded prefix
  // is kDropped, so the retry cannot take the same branch again — without
  // the inline retry a lone request would leave the step idle and strand
  // the experiment. The failed attempts' link time is already charged.
  const auto degrade_and_retry = [&](int64_t deepest_chunk) {
    DegradePrefixThrough(conv_id, deepest_chunk);
    conv.Unpin();
    return TryAdmit(r, now, batch_input_tokens);
  };

  // Flash promotion phase: stage the conversation's SSD run back into the
  // CPU tier so the normal swap-in path below restores it. The flash read is
  // charged on the SSD link; the host-to-device transfer then starts when
  // that read completes.
  double restore_start = now;
  int64_t promoted_tokens = 0;
  if (!ssd_chunks.empty()) {
    int64_t ssd_tokens = 0;
    for (int64_t idx : ssd_chunks) {
      ssd_tokens += conv.chunk(idx).num_tokens;
    }
    const int64_t staging = static_cast<int64_t>(ssd_chunks.size());
    const bool staged = cache_.cpu_allocator().num_free() >= staging ||
                        coordinator_.EnsureFreeCpuBlocks(staging, now);
    ChargeFlashSpill(now);
    if (!staged) {
      return degrade_and_retry(ssd_chunks.back());
    }
    const LinkTransferOutcome read = Move(KvLink::kSsdRead, now, ssd_tokens);
    if (!read.delivered) {
      return degrade_and_retry(ssd_chunks.back());
    }
    restore_start = std::max(restore_start, read.done);
    // Promote back to front so the remaining flash run stays a contiguous
    // extension of the dropped prefix.
    for (auto it = ssd_chunks.rbegin(); it != ssd_chunks.rend(); ++it) {
      const int64_t chunk_tokens = conv.chunk(*it).num_tokens;
      if (!cache_.PromoteFromFlash(conv_id, *it).ok()) {
        // Corrupt flash copy (or staging raced away): deeper chunks already
        // promoted stay.
        return degrade_and_retry(*it);
      }
      promoted_tokens += chunk_tokens;
    }
  }

  // CPU-resident chunks to restore, including anything just promoted.
  const std::vector<int64_t> cpu_chunks = conv.CpuOnlyChunks();
  int64_t cpu_tokens = 0;
  for (int64_t idx : cpu_chunks) {
    cpu_tokens += conv.chunk(idx).num_tokens;
  }

  // Restore transfer for the CPU-resident chunks; it overlaps the upcoming
  // step's compute layer by layer (§4.3.3), with any overhang charged as
  // stall. Runs before the accounting snapshot so a transfer that exhausts
  // its retries can degrade cleanly through the deepest CPU chunk.
  double restore_transfer_s = 0.0;
  if (cpu_tokens > 0) {
    const LinkTransferOutcome restore = Move(KvLink::kHostToDevice, restore_start, cpu_tokens);
    if (!restore.delivered) {
      return degrade_and_retry(cpu_chunks.back());
    }
    restore_transfer_s = std::max(0.0, restore.done - now);
  }

  // Reuse accounting snapshot (Figure 14 analysis), first admission only.
  if (first_admission) {
    r->reused_gpu = conv.TokensOnGpu();
    r->reused_ssd = promoted_tokens;
    r->reused_cpu = cpu_tokens - promoted_tokens;
    // Recomputed history = dropped-prefix tokens plus the uncached raw
    // suffix re-entering as new input (minus one pending tail token that
    // was never computed in the first place).
    const int64_t uncached_suffix =
        std::max<int64_t>(0, r->pending_new_tokens - r->request.new_prompt_len - 1);
    r->recomputed = dropped_tokens + uncached_suffix;
    // Accounting covers the cached history (raw history minus the pending
    // tail token folded into this turn's input).
    PENSIEVE_CHECK_EQ(
        r->reused_gpu + r->reused_cpu + r->reused_ssd + dropped_tokens,
        conv.kv_len());
    stats_.reused_gpu_tokens += r->reused_gpu;
    stats_.reused_cpu_tokens += r->reused_cpu;
    stats_.reused_ssd_tokens += r->reused_ssd;
    stats_.recomputed_history_tokens += r->recomputed;
    if (uncached_suffix > 0) {
      stats_.recompute_seconds +=
          cost_model_.AttentionTime(uncached_suffix,
                                    conv.kv_len() + uncached_suffix) +
          cost_model_.MarginalLinearTime(uncached_suffix);
    }
    r->first_scheduled_time = now;
  }

  // Swap in the CPU-resident chunks whose transfer just completed. Cannot
  // fail: blocks were ensured above and checksums pre-verified (the injector
  // only poisons unpinned conversations' copies).
  for (int64_t idx : cpu_chunks) {
    PENSIEVE_CHECK_OK(cache_.SwapIn(conv_id, idx));
  }
  r->restore_transfer_s = restore_transfer_s;

  // Restore dropped-prefix chunks; their KV is recomputed by the next step
  // as a separate attention sub-request (§4.3.4).
  for (int64_t i = 0; i < dropped_chunks; ++i) {
    PENSIEVE_CHECK_OK(cache_.RestoreDropped(conv_id, i));
  }
  r->restored_chunks = dropped_chunks;
  r->pending_recompute = dropped_tokens;
  if (dropped_tokens > 0) {
    stats_.recompute_seconds += cost_model_.AttentionTime(dropped_tokens,
                                                          dropped_tokens) +
                                cost_model_.MarginalLinearTime(dropped_tokens);
  }

  conv.set_last_active(now);
  return true;
}

int64_t PensieveEngine::AdmitRequests(double now) {
  int64_t batch_tokens = 0;
  for (const Running& r : running_) {
    batch_tokens += r.pending_new_tokens + r.pending_recompute;
  }
  int64_t admitted = 0;
  while (!waiting_.empty()) {
    if (static_cast<int64_t>(running_.size()) >= options_.max_running) {
      break;
    }
    Running& cand = waiting_.front();
    if (!TryAdmit(&cand, now, batch_tokens)) {
      break;
    }
    batch_tokens += cand.pending_new_tokens + cand.pending_recompute;
    running_.push_back(std::move(waiting_.front()));
    waiting_.pop_front();
    ++admitted;
  }
  return admitted;
}

void PensieveEngine::EvictConversationFromGpu(int64_t conversation_id, double now) {
  ContextState* conv = cache_.Find(conversation_id);
  PENSIEVE_CHECK(conv != nullptr);
  int64_t swapped_tokens = 0;
  std::vector<std::pair<ConversationId, int64_t>> swapped;
  for (int64_t i = 0; i < conv->num_chunks(); ++i) {
    if (conv->chunk(i).location == ChunkLocation::kGpuAndCpu) {
      if (cache_.ReclaimGpu(conversation_id, i).ok()) {
        continue;
      }
      // The CPU copy is corrupt; discard it and re-evict the GPU copy
      // through the paths below.
      (void)cache_.DropCpuCopy(conversation_id, i);
    }
    if (conv->chunk(i).location != ChunkLocation::kGpu) {
      continue;
    }
    const bool can_swap = options_.use_cpu_cache &&
                          (cache_.cpu_allocator().num_free() > 0 ||
                           coordinator_.EnsureFreeCpuBlocks(1, now));
    if (can_swap) {
      const int64_t chunk_tokens = conv->chunk(i).num_tokens;
      if (cache_.SwapOut(conversation_id, i).ok() &&
          cache_.ReclaimGpu(conversation_id, i).ok()) {
        swapped_tokens += chunk_tokens;
        swapped.emplace_back(conversation_id, i);
        continue;
      }
    }
    // No CPU space (or the swap failed): drop this chunk, which requires
    // dropping the prefix before it first.
    (void)cache_.DropThroughPrefix(conversation_id, i);
  }
  if (swapped_tokens > 0) {
    ChargeSwapOut(swapped_tokens, swapped, now);
  }
  // The per-chunk EnsureFreeCpuBlocks calls above may have spilled to flash.
  ChargeFlashSpill(now);
}

void PensieveEngine::UnwindAdmission(Running* r) {
  const int64_t conv_id = r->request.conversation_id;
  ContextState* conv = cache_.Find(conv_id);
  PENSIEVE_CHECK(conv != nullptr);
  conv->Unpin();
  // Chunks restored for a prefill that never ran hold garbage; re-drop them.
  if (r->restored_chunks > 0) {
    (void)cache_.DropThroughPrefix(conv_id, r->restored_chunks - 1);
  }
  r->restored_chunks = 0;
  r->restore_transfer_s = 0.0;
}

void PensieveEngine::SuspendRequest(size_t index, double now) {
  PENSIEVE_CHECK_LT(index, running_.size());
  Running r = std::move(running_[index]);
  running_.erase(running_.begin() + static_cast<int64_t>(index));
  UnwindAdmission(&r);
  EvictConversationFromGpu(r.request.conversation_id, now);
  ++r.suspensions;
  ++stats_.suspensions;
  waiting_.push_front(std::move(r));
}

StepResult PensieveEngine::Step(double now) {
  StepResult result;
  pending_forced_stall_ = 0.0;

  // Ahead-of-time eviction (§4.3.2): fully overlapped with compute; swap
  // traffic only occupies the device-to-host link.
  const CacheCoordinator::EvictOutcome aot = coordinator_.AheadOfTimeEvict(now);
  if (aot.swapped_out_tokens > 0) {
    if (Move(KvLink::kDeviceToHost, now, aot.swapped_out_tokens).delivered) {
      stats_.aot_swap_out_tokens += aot.swapped_out_tokens;
    } else {
      // The ahead-of-time copies never landed: roll them back. The chunks
      // are still kGpuAndCpu (reclamation is lazy), so nothing is lost —
      // they simply stay unevicted until a later pass retries.
      for (const auto& [conv, chunk] : aot.swapped) {
        (void)cache_.DropCpuCopy(conv, chunk);
      }
      stats_.fault_failed_swap_outs += static_cast<int64_t>(aot.swapped.size());
    }
  }
  stats_.dropped_tokens += aot.dropped_tokens;
  // Ahead-of-time eviction may have spilled CPU chunks to flash to make room.
  ChargeFlashSpill(now);

  const int64_t admitted = AdmitRequests(now);

  if (running_.empty()) {
    result.idle = true;
    SyncCacheStats();
    return result;
  }

  // Unified scheduling processes everything together; the split-phase
  // ablation (Figure 13) runs a prefill-only step when anything was
  // admitted.
  size_t compute_begin = 0;
  if (!options_.unified_scheduling && admitted > 0) {
    compute_begin = running_.size() - static_cast<size_t>(admitted);
  }

  // Append each computing request's pending tokens, suspending
  // latest-arrived requests under memory pressure (§4.3.5). Each appended
  // request's state is recorded in step_states_, in running_ order: it is
  // pinned, so the pointer holds for the rest of the step.
  const auto append_pending_range = [&](size_t begin) {
    step_states_.clear();
    size_t i = begin;
    while (i < running_.size()) {
      Running& r = running_[i];
      const int64_t conv_id = r.request.conversation_id;
      const int64_t need = cache_.AppendBlockDemand(conv_id, r.pending_new_tokens);
      if (need > cache_.gpu_allocator().num_free() && !FreeGpuBlocks(need, now)) {
        // Suspend the most recently arrived request that has not yet been
        // processed this step; fall back to suspending this one.
        size_t victim = i;
        for (size_t j = i + 1; j < running_.size(); ++j) {
          if (victim == i || running_[j].request.arrival_time >
                                 running_[victim].request.arrival_time) {
            victim = j;
          }
        }
        SuspendRequest(victim, now);
        continue;  // indices at/above `victim` shifted; retry position i
      }
      PENSIEVE_CHECK_OK(cache_.AppendTokenSlots(conv_id, r.pending_new_tokens, nullptr));
      step_states_.push_back(cache_.Find(conv_id));
      ++i;
    }
  };
  for (;;) {
    append_pending_range(compute_begin);
    if (running_.empty()) {
      result.idle = true;
      SyncCacheStats();
      return result;
    }
    if (compute_begin < running_.size()) {
      break;
    }
    // Every admitted request of a split-phase prefill step got suspended;
    // fall back to a decode step over the surviving (not yet appended)
    // requests rather than idling with work pending.
    compute_begin = 0;
  }

  // Build the unified batch (prefill sub-requests + decode tokens).
  PENSIEVE_CHECK_EQ(step_states_.size(), running_.size() - compute_begin);
  std::vector<GpuCostModel::BatchItem>& items = step_items_;
  items.clear();
  double max_restore_overhang = 0.0;
  for (size_t idx = compute_begin; idx < running_.size(); ++idx) {
    const Running& r = running_[idx];
    const ContextState* conv = step_states_[idx - compute_begin];
    if (r.pending_recompute > 0) {
      // Dropped-prefix recomputation: the prefix attends only to itself
      // (Figure 8 step d, first sub-request).
      items.push_back({r.pending_recompute, r.pending_recompute});
    }
    items.push_back({r.pending_new_tokens, conv->kv_len()});
    max_restore_overhang = std::max(max_restore_overhang, r.restore_transfer_s);
  }

  const double compute_s = UnifiedStepTime(cost_model_, items, /*dense_speedup=*/1.0);
  const double restore_stall =
      RestoreStall(compute_s, max_restore_overhang, cost_model_.model().num_layers,
                   options_.pipelined_restore);
  const double duration = compute_s + restore_stall + pending_forced_stall_;
  stats_.restore_stall_seconds += restore_stall;
  result.duration = duration;
  result.batch_requests = static_cast<int64_t>(running_.size() - compute_begin);
  for (const GpuCostModel::BatchItem& item : items) {
    result.batch_tokens += item.query_len;
  }
  ++stats_.steps;
  stats_.busy_seconds += duration;

  const double finish_time = now + duration;
  // Finished requests leave running_; the rest keep their order, behind the
  // decode requests a split-phase prefill step paused ([0, compute_begin)).
  size_t kept = compute_begin;
  for (size_t idx = compute_begin; idx < running_.size(); ++idx) {
    Running& r = running_[idx];
    ContextState* conv = step_states_[idx - compute_begin];
    if (!r.prefilled) {
      stats_.prefill_tokens += r.pending_recompute + r.pending_new_tokens;
      r.prefilled = true;
      r.first_token_time = finish_time;
      r.prefill_compute_start = now;
      // The template prefix (if any) now holds valid KV: publish it so later
      // conversations with the same template attach instead of prefilling.
      PublishTemplatePrefix(r);
    } else {
      stats_.prefill_tokens += r.pending_recompute;
    }
    r.pending_recompute = 0;
    r.restored_chunks = 0;
    r.restore_transfer_s = 0.0;
    r.pending_new_tokens = 1;
    ++r.generated;
    ++stats_.generated_tokens;
    // Context-length cap: a conversation whose KV already fills the entire
    // GPU can never append another token — eviction only frees blocks held
    // by OTHER conversations, so a later admission would need more blocks
    // than the device has and stall forever. Finish at the current length,
    // the way a real server enforces its maximum context length. The flash
    // tier makes this state reachable (demotion preserves full-GPU-sized
    // histories that pure CPU-pressure drops used to truncate), so the cap
    // is gated on it: with the tier off, behavior stays bit-identical to
    // the two-tier build.
    const bool context_capped =
        cache_.flash_enabled() &&
        conv->num_chunks() + conv->NumNewChunksForAppend(1) >
        cache_.gpu_allocator().capacity();
    if (context_capped && r.generated < r.request.target_output_len) {
      ++stats_.context_capped_requests;
    }
    // Disaggregated prefill replicas stop after the prefill step: the first
    // output token is emitted here, the remaining decode runs wherever the
    // streamed KV lands (DESIGN.md §13).
    const bool prefill_done = r.request.prefill_only && r.prefilled;
    if (r.generated >= r.request.target_output_len || context_capped ||
        prefill_done) {
      conv->Unpin();
      conv->set_last_active(finish_time);
      auto inflight_it = inflight_.find(r.request.conversation_id);
      if (--inflight_it->second == 0) {
        inflight_.erase(inflight_it);
      }
      RequestOutcome outcome;
      outcome.request = r.request;
      outcome.first_scheduled_time = r.first_scheduled_time;
      outcome.finish_time = finish_time;
      outcome.prefill_input_tokens =
          r.recomputed + r.request.new_prompt_len - r.shared_prompt_skipped;
      outcome.reused_gpu_tokens = r.reused_gpu;
      outcome.reused_cpu_tokens = r.reused_cpu;
      outcome.reused_ssd_tokens = r.reused_ssd;
      outcome.reused_shared_tokens = r.reused_shared;
      outcome.recomputed_tokens = r.recomputed;
      outcome.generated_tokens = r.generated;
      outcome.suspensions = r.suspensions;
      outcome.first_token_time = r.first_token_time;
      outcome.prefill_compute_start = r.prefill_compute_start;
      result.finished.push_back(std::move(outcome));
    } else {
      if (kept != idx) {
        running_[kept] = std::move(r);
      }
      ++kept;
    }
  }
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(kept), running_.end());
  SyncCacheStats();
  return result;
}

EngineLoad PensieveEngine::Load() const {
  EngineLoad load;
  load.waiting_requests = num_waiting();
  load.running_requests = num_running();
  for (const Running& r : waiting_) {
    load.queued_input_tokens += r.pending_new_tokens + r.pending_recompute;
    load.outstanding_output_tokens += r.request.target_output_len - r.generated;
    if (r.first_scheduled_time < 0) {
      // Never admitted: the recompute tail is only priced at admission, so
      // count the history tokens no local KV covers as queued prefill work.
      const int64_t uncached =
          r.request.history_len -
          CachedConversationTokens(r.request.conversation_id);
      load.queued_uncached_prefill_tokens += std::max<int64_t>(0, uncached);
    }
  }
  for (const Running& r : running_) {
    load.outstanding_output_tokens += r.request.target_output_len - r.generated;
  }
  return load;
}

int64_t PensieveEngine::CachedConversationTokens(int64_t conversation_id) const {
  const ContextState* conv = cache_.Find(conversation_id);
  if (conv == nullptr) {
    return 0;
  }
  return conv->kv_len() - conv->LeadingDroppedTokens();
}

MigratedKvState PensieveEngine::ExportConversationState(int64_t conversation_id) {
  MigratedKvState state;
  ContextState* conv = cache_.Find(conversation_id);
  if (conv == nullptr) {
    return state;
  }
  PENSIEVE_CHECK(inflight_.find(conversation_id) == inflight_.end())
      << "cannot migrate conversation " << conversation_id
      << " with requests in flight";
  PENSIEVE_CHECK(!conv->pinned());
  state.kv_len = conv->kv_len();
  state.resident_tokens = state.kv_len - conv->LeadingDroppedTokens();
  // Every tensor-parallel worker ships its feature slice of each chunk.
  state.bytes = static_cast<double>(state.resident_tokens) *
                static_cast<double>(kv_wire_bytes_per_token_) *
                static_cast<double>(cost_model_.hardware().num_gpus);
  cache_.Release(conversation_id);
  stats_.migrated_out_tokens += state.resident_tokens;
  return state;
}

DrainedWork PensieveEngine::DrainUnfinished() {
  DrainedWork drained;
  drained.requests.reserve(waiting_.size() + running_.size());
  for (const Running& r : running_) {
    drained.requests.push_back(r.request);
    drained.lost_generated_tokens += r.generated;
  }
  for (const Running& r : waiting_) {
    drained.requests.push_back(r.request);
    drained.lost_generated_tokens += r.generated;
  }
  std::sort(drained.requests.begin(), drained.requests.end(),
            [](const Request& a, const Request& b) {
              return a.request_id < b.request_id;
            });
  running_.clear();
  waiting_.clear();
  inflight_.clear();
  pending_forced_stall_ = 0.0;
  SyncCacheStats();
  return drained;
}

DrainedWork PensieveEngine::DrainForRehome() {
  // Running requests hold admission state a crash simply discards but a live
  // drain must unwind, as SuspendRequest does, so ExportConversationState
  // sees a clean, unpinned conversation.
  for (Running& r : running_) {
    UnwindAdmission(&r);
  }
  return DrainUnfinished();
}

int64_t PensieveEngine::TotalCachedTokens() const {
  int64_t total = 0;
  for (const auto& [id, conv] : cache_.conversations()) {
    total += conv.kv_len() - conv.LeadingDroppedTokens();
  }
  return total;
}

int64_t PensieveEngine::ImportConversationState(int64_t conversation_id,
                                                const MigratedKvState& state,
                                                double now) {
  if (state.Empty()) {
    return 0;
  }
  if (inflight_.find(conversation_id) != inflight_.end()) {
    // A racing request is already recomputing this conversation locally
    // (e.g. a handoff stream landed after its continuation had been
    // re-routed past it). Dropping the stream is the degradation contract;
    // never clobber live KV.
    return 0;
  }
  const ContextState* existing = cache_.Find(conversation_id);
  if (existing != nullptr) {
    const int64_t existing_resident =
        existing->kv_len() - existing->LeadingDroppedTokens();
    if (existing->kv_len() >= state.kv_len &&
        existing_resident >= state.resident_tokens) {
      return 0;  // the local copy is at least as fresh as the import
    }
    cache_.Release(conversation_id);
  }
  const int64_t adopted =
      cache_.ImportResident(conversation_id, state.kv_len,
                            state.resident_tokens, state.gpu_direct);
  cache_.Find(conversation_id)->set_last_active(now);
  stats_.migrated_in_tokens += adopted;
  return adopted;
}

}  // namespace pensieve
