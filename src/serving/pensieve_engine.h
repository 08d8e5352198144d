// The Pensieve stateful serving engine (paper §4).
//
// Key behaviours, with paper section references:
//  * Stateful KV reuse: a finished request's KV-tokens stay cached; the
//    conversation's next turn only processes its new prompt (§3.1).
//  * Unified iteration-level batching: prefill and generation tokens share
//    one batch/step, enabled by the multi-token attention kernel (§4.2,
//    §4.4.1). A split-phase mode reproduces the Figure 13 ablation.
//  * Two-tier GPU/CPU cache with chunk-granular retention-value eviction
//    (§4.3.1), ahead-of-time swap-out with lazy slot reclamation (§4.3.2),
//    pipelined layer-by-layer restore (§4.3.3), dropped-prefix
//    recomputation via sub-request splitting (§4.3.4), and suspension of
//    late-arriving requests under decode memory pressure (§4.3.5).
//  * Swap-in prioritized over eviction on the PCIe link (§5).

#ifndef PENSIEVE_SRC_SERVING_PENSIEVE_ENGINE_H_
#define PENSIEVE_SRC_SERVING_PENSIEVE_ENGINE_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/eviction/policy.h"
#include "src/kvcache/two_tier_cache.h"
#include "src/scheduler/cache_coordinator.h"
#include "src/scheduler/step_cost.h"
#include "src/serving/engine.h"
#include "src/serving/template_chain.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault_injector.h"
#include "src/sim/ssd_link.h"
#include "src/sim/tp_group.h"

namespace pensieve {

struct PensieveEngineOptions {
  std::string name = "pensieve";
  int64_t block_size = kDefaultBlockSize;  // 32-token chunks (§4.3.1)
  int64_t num_gpu_blocks = 0;
  int64_t num_cpu_blocks = 0;
  int64_t max_batch_tokens = 4096;
  int64_t max_running = 256;
  // Ahead-of-time swap-out trigger: keep free+reclaimable above this (§4.3.2).
  double swap_out_threshold = 0.25;
  // Stop admitting new requests below this free fraction (§4.3.5).
  double decode_reserve = 0.10;
  bool use_cpu_cache = true;       // false => Pensieve (GPU cache) variant
  bool unified_scheduling = true;  // false => Figure 13 split-phase ablation
  bool pipelined_restore = true;   // false => blocking swap-in ablation
  bool prioritize_swap_in = true;  // false => duplex PCIe ablation (§5)
  // Cross-conversation shared-prefix dedup: conversations opening with the
  // same template prefix (Request::template_id) attach refcounted views over
  // the blocks the first such conversation prefilled, skipping that prefill
  // entirely. The engine is the one owner of this switch (the cache's
  // prefix API is always live). Safe to leave on: a workload without
  // template metadata never touches the trie.
  bool enable_prefix_sharing = true;
  EvictionPolicyKind policy = EvictionPolicyKind::kRetentionValue;
  // KV-transfer fault injection on the PCIe link (off by default: all rates
  // zero, which takes the injector's draw-free fast path).
  LinkFaultProfile pcie_fault_profile;
  LinkRetryPolicy fault_retry;
  uint64_t fault_seed = 0;
  // --- Flash (SSD) tier ----------------------------------------------------
  // Capacity 0 builds no tier (the two-tier engine, pinned by
  // feature_golden_test). The tier also requires use_cpu_cache (it sits
  // behind the CPU tier); whether it exists is then the cache's to answer.
  int64_t num_ssd_blocks = 0;
  int64_t ssd_segment_blocks = 64;
  // Fault injection on the simulated SSD link (demote/promote transfers).
  LinkFaultProfile ssd_fault_profile;
  // Int8 KV quantization at the tier boundary: CPU/SSD copies are stored
  // and transferred compressed (per-block amax scale), the CPU and SSD
  // block budgets are accounted in compressed bytes (~2x the
  // conversations per GB), and every off-GPU KV transfer — swap, spill,
  // promote, migration — is priced at the compressed size. Read only at
  // construction (cache codec and wire size). Off by default.
  bool kv_quant = false;
  // Cross-replica CPU-tier spill (DESIGN.md §14): record CPU-pressure drops
  // as peer offers instead of discarding them silently. Off by default; the
  // local eviction sequence is identical either way.
  bool peer_spill = false;
};

class PensieveEngine final : public Engine {
 public:
  PensieveEngine(const GpuCostModel& cost_model, PensieveEngineOptions options);

  const std::string& name() const override { return options_.name; }
  void Enqueue(const Request& request, double now) override;
  bool HasWork() const override;
  StepResult Step(double now) override;
  const EngineStats& stats() const override { return stats_; }
  EngineLoad Load() const override;

  // Cluster state migration: a conversation's cached KV can be detached
  // here and re-homed on another replica (imported into its CPU tier).
  bool SupportsStateMigration() const override { return true; }
  int64_t CachedConversationTokens(int64_t conversation_id) const override;
  MigratedKvState ExportConversationState(int64_t conversation_id) override;
  int64_t ImportConversationState(int64_t conversation_id,
                                  const MigratedKvState& state,
                                  double now) override;

  // Fault injection: hand back all queued/running requests (crash path).
  DrainedWork DrainUnfinished() override;
  int64_t TotalCachedTokens() const override;

  // Live-drain variant (quarantine / scale-down, DESIGN.md §14): unpins the
  // running requests' conversations and re-drops their restored chunks so
  // every drained conversation is immediately exportable.
  DrainedWork DrainForRehome() override;

  // Cross-replica CPU-tier spill (DESIGN.md §14).
  std::vector<PeerSpillOffer> TakePeerSpillOffers() override;
  int64_t IdleCpuCacheTokens() const override;
  int64_t ReserveForeignCpuTokens(int64_t tokens) override;
  void ReleaseForeignCpuTokens(int64_t tokens) override;
  bool AcceptsPeerPrefix(int64_t conversation_id, int64_t first_token,
                         int64_t last_token, int64_t kv_len_hint) const override;
  int64_t AcceptPeerPrefix(int64_t conversation_id, int64_t first_token,
                           int64_t last_token, int64_t kv_len_hint,
                           double now) override;

  // Introspection for tests.
  const TwoTierKvCache& cache() const { return cache_; }
  const LinkFaultInjector& pcie_faults() const { return pcie_faults_; }
  const LinkFaultInjector& ssd_faults() const { return ssd_faults_; }
  int64_t num_waiting() const { return static_cast<int64_t>(waiting_.size()); }
  int64_t num_running() const { return static_cast<int64_t>(running_.size()); }

 private:
  struct Running {
    Request request;
    double first_scheduled_time = -1.0;
    int64_t generated = 0;
    // Tokens to process at the context tail next step: the new prompt at
    // first execution, then one (the freshly generated token) per decode
    // step. A suspended request resumes with its pending token intact.
    int64_t pending_new_tokens = 0;
    // Dropped-prefix tokens restored at admission and recomputed by the
    // next step (paper Figure 5 segment 1).
    int64_t pending_recompute = 0;
    // Chunks restored for that recomputation (re-dropped if the request is
    // suspended before its prefill runs).
    int64_t restored_chunks = 0;
    // Swap-in transfer overhang to be absorbed by the next step (§4.3.3).
    double restore_transfer_s = 0.0;
    bool prefilled = false;
    // Stamped when `prefilled` transitions: when the first output token was
    // emitted and when the step that ran the prefill began (the compute
    // window a disaggregated handoff stream overlaps with).
    double first_token_time = 0.0;
    double prefill_compute_start = 0.0;
    int32_t suspensions = 0;
    // Reuse accounting, captured at first admission.
    int64_t reused_gpu = 0;
    int64_t reused_cpu = 0;
    int64_t reused_ssd = 0;
    // Subset of reused_gpu attached as shared-prefix views over blocks
    // another conversation prefilled.
    int64_t reused_shared = 0;
    // Of reused_shared, tokens that displaced this turn's own prompt
    // prefill (rather than cached-history recompute); subtracted from the
    // outcome's prefill-input accounting.
    int64_t shared_prompt_skipped = 0;
    int64_t recomputed = 0;
  };

  // Admission of waiting requests into the running batch. Appends admitted
  // entries to running_; returns how many were admitted.
  int64_t AdmitRequests(double now);
  bool TryAdmit(Running* r, double now, int64_t batch_input_tokens);

  // Takes running_[index] out of the batch, evicts its KV (swap or drop)
  // and re-queues it (§4.3.5).
  void SuspendRequest(size_t index, double now);

  // Evicts every GPU-resident chunk of a conversation (suspension path).
  void EvictConversationFromGpu(int64_t conversation_id, double now);

  // --- KV-fault handling ---------------------------------------------------
  // Device-to-host / host-to-device transfers routed through the fault
  // injector. Return the completion (or abandonment) time; `delivered` is
  // false when the transfer exhausted its retries.
  double TransferDeviceToHost(double now, double bytes, bool* delivered);
  double TransferHostToDevice(double now, double bytes, bool* delivered);

  // Charges a FreeOutcome's forced swap-out traffic to the link; when the
  // transfer fails, the landed CPU copies are poisoned so a later swap-in
  // degrades to recomputation instead of restoring garbage.
  void ChargeForcedSwapOut(const CacheCoordinator::FreeOutcome& freed, double now);

  // --- Flash (SSD) tier ----------------------------------------------------
  // SSD-link transfers routed through the SSD fault injector (reads promote
  // flash data toward the CPU, writes carry demotions the other way).
  double TransferSsdRead(double now, double bytes, bool* delivered);
  double TransferSsdWrite(double now, double bytes, bool* delivered);

  // Drains the coordinator's pending CPU->flash demotions and charges their
  // bytes on the SSD write link as background traffic (like ahead-of-time
  // swap-out, demotion is off the critical path). A failed transfer poisons
  // the flash copies so a later promote degrades to recomputation.
  void ChargeFlashSpill(double now);

  // Three-way restore planning (flash enabled only): walks the
  // conversation's frontier over its SSD run and CPU-only chunks, dropping
  // each chunk for which recomputation beats the restore path (SSD read +
  // PCIe hop, or PCIe alone). Recompute cost grows with context length while
  // restore cost is flat, so the scan stops at the first chunk where restore
  // wins and the drop stays a legal prefix.
  void PlanSsdRecompute(int64_t conversation_id);

  // Mirrors the cache's monotone flash, sharing and quantization counters,
  // the flash log's stats and the GPU allocator's refcount ledger into
  // stats_ (assignment, not accumulation — same idiom as the link-fault
  // stats snapshots). A feature that is off leaves its counters at zero.
  void SyncCacheStats();

  // --- Shared-prefix dedup -------------------------------------------------
  // Blocks of the request's template prefix the trie can hold: zero when
  // sharing is off, the request carries no template, or the template is
  // shorter than one block (it can never publish, so never matches). The
  // one place the engine reads enable_prefix_sharing after construction.
  int64_t SharedTemplateBlocks(const Request& request) const;

  // What AttachTemplatePrefix changed, so a failed admission can undo it: a
  // request waiting in the queue must not hold shared views, since its
  // conversation is inflight (unevictable) and pinned views could starve
  // every other admission.
  struct TemplateAttachOutcome {
    int64_t fresh_tokens = 0;       // fresh-attach tokens taken off pending
    int64_t reattached_chunks = 0;  // dropped chunks rescued as views
    int64_t reattached_tokens = 0;
    bool counted_hit = false;       // reuse bookkeeping was applied
  };

  // Consults the prefix trie for the request's template and attaches (or, on
  // re-admission, re-attaches dropped leading chunks as) views over the
  // shared block run. On a fresh conversation the attached span comes off
  // r->pending_new_tokens — the tokens admit GPU-resident with zero prefill.
  TemplateAttachOutcome AttachTemplatePrefix(Running* r, ContextState* conv,
                                             bool first_admission);

  // Reverses a TemplateAttachOutcome (views released, pending and reuse
  // bookkeeping restored). Called on every failed-admission path after the
  // attach; a no-op for an empty outcome.
  void UndoTemplateAttach(Running* r, const TemplateAttachOutcome& attach);

  // After a template conversation's prefill completes, publishes its leading
  // full GPU-resident chunks (within the template span) into the trie so
  // later conversations can attach them. Idempotent.
  void PublishTemplatePrefix(const Running& r);

  // Degradation ladder entry: discards corrupt CPU copies that still have a
  // GPU twin, and drops the prefix through the deepest CPU-only chunk whose
  // copy fails checksum verification, so admission rebuilds it through the
  // recomputation path (§4.3.4).
  void DegradeCorruptChunks(int64_t conversation_id);

  // Drops the conversation's resident prefix through `deepest_chunk`
  // (inclusive), counting the degraded tokens against the fault stats.
  void DegradePrefixThrough(int64_t conversation_id, int64_t deepest_chunk);

  const GpuCostModel& cost_model_;
  PensieveEngineOptions options_;
  // Off-GPU wire and CPU/SSD storage bytes per KV token, fixed by kv_quant
  // at construction (KvWireBytesPerToken in pensieve_engine.cc).
  const int64_t kv_wire_bytes_per_token_;
  TwoTierKvCache cache_;
  ChunkCostEstimator cost_estimator_;
  std::unique_ptr<EvictionPolicy> policy_;
  CacheCoordinator coordinator_;
  // One PCIe link per tensor-parallel worker; each worker moves its own
  // feature slice of every chunk (Â§4.4.2).
  TpLinkGroup link_;
  // Every KV transfer on link_ goes through this injector; with all rates
  // zero it is a draw-free pass-through.
  LinkFaultInjector pcie_faults_;
  // Simulated flash device and its own fault injector. The injector gets a
  // decorrelated seed so arming SSD faults never perturbs the PCIe draw
  // sequence (and vice versa).
  SsdLink ssd_link_;
  LinkFaultInjector ssd_faults_;
  // Trie keys of the prefix templates, memoized per engine: RateSweep runs
  // engines on pool threads.
  TemplateChains template_chains_;
  std::deque<Running> waiting_;
  std::vector<Running> running_;
  // Conversations with a queued or running request; their (possibly fully
  // dropped) cache bookkeeping must not be forgotten.
  std::unordered_map<int64_t, int32_t> inflight_;
  // Synchronous stall accumulated by forced swap-outs during the current
  // step's admissions.
  double pending_forced_stall_ = 0.0;
  EngineStats stats_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SERVING_PENSIEVE_ENGINE_H_
