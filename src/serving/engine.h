// Common interface for serving engines (Pensieve and the baselines).
//
// Engines run in virtual time: the driver delivers arrivals and repeatedly
// calls Step(now); each step returns the latency it would occupy on the
// simulated hardware, and the driver advances the clock accordingly.

#ifndef PENSIEVE_SRC_SERVING_ENGINE_H_
#define PENSIEVE_SRC_SERVING_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/scheduler/request.h"
#include "src/sim/fault_injector.h"

namespace pensieve {

struct EngineStats {
  int64_t steps = 0;
  int64_t generated_tokens = 0;
  int64_t prefill_tokens = 0;  // input tokens processed (incl. recompute)
  // History-token accounting across all requests (Figure 14 analysis).
  int64_t reused_gpu_tokens = 0;
  int64_t reused_cpu_tokens = 0;
  int64_t reused_ssd_tokens = 0;
  int64_t recomputed_history_tokens = 0;
  int64_t suspensions = 0;
  int64_t preemptions = 0;
  // Requests finished early because their conversation's KV filled the whole
  // GPU (the simulator's effective maximum context length).
  int64_t context_capped_requests = 0;
  int64_t forced_swap_out_tokens = 0;
  int64_t aot_swap_out_tokens = 0;
  int64_t dropped_tokens = 0;
  // Cluster-migration accounting: KV tokens this engine shipped to / adopted
  // from other replicas (each migrated token is charged to exactly one
  // importer).
  int64_t migrated_out_tokens = 0;
  int64_t migrated_in_tokens = 0;
  double busy_seconds = 0.0;
  // GPU seconds spent recomputing dropped history (what the retention-value
  // eviction policy minimizes; deeper drops cost quadratically more).
  double recompute_seconds = 0.0;
  double restore_stall_seconds = 0.0;
  // KV-transfer fault accounting (injected faults on the PCIe link, their
  // retries, and what had to degrade to recomputation). All zero when fault
  // injection is off.
  LinkFaultStats link_faults;
  // Admissions that dropped corrupt or unrestorable chunks and went through
  // the recomputation path instead.
  int64_t fault_degraded_admissions = 0;
  // History tokens whose recomputation is attributable to a KV fault (they
  // had live copies that were corrupted or could not be restored).
  int64_t fault_recompute_tokens = 0;
  int64_t fault_dropped_chunks = 0;
  // Swap-out transfers (ahead-of-time, forced, or suspension) whose device-
  // to-host copy exhausted its retries.
  int64_t fault_failed_swap_outs = 0;
  // CPU copies rejected by checksum verification at (or ahead of) swap-in.
  int64_t checksum_detected_corruptions = 0;
  // --- Flash (SSD) tier accounting. All zero when the tier is disabled. ---
  // Faults injected on the simulated SSD link (demote/promote transfers).
  LinkFaultStats ssd_link_faults;
  int64_t ssd_demoted_chunks = 0;   // CPU -> flash spills
  int64_t ssd_demoted_tokens = 0;
  int64_t ssd_promoted_chunks = 0;  // flash -> CPU promotes (SSD "hits")
  int64_t ssd_evicted_chunks = 0;   // dropped by the flash eviction algorithm
  int64_t ssd_evicted_tokens = 0;
  // Segment-log bookkeeping: user appends, GC relocations and GC passes.
  // Write amplification = (user + gc_moves) / user.
  int64_t ssd_user_blocks_written = 0;
  int64_t ssd_gc_moves = 0;
  int64_t ssd_gc_runs = 0;
  // Demotions that failed (flash full of pinned chunks) and fell back to a
  // plain drop, and tokens the three-way planner chose to recompute rather
  // than pull through the SSD + PCIe path.
  int64_t ssd_failed_demotes = 0;
  int64_t ssd_planned_recompute_tokens = 0;
  // --- Shared-prefix dedup accounting. All zero when sharing is off. ---
  // Admissions that attached at least one shared block, and the tokens they
  // were spared from prefilling (subset of reused_gpu_tokens).
  int64_t dedup_hit_requests = 0;
  int64_t reused_shared_tokens = 0;
  // Chunk views attached over shared blocks (initial attach + dropped-chunk
  // re-attach) and copy-on-write block copies on divergence.
  int64_t shared_attached_chunks = 0;
  int64_t cow_copies = 0;
  // High-water mark of physical GPU blocks held by more than one view.
  int64_t peak_shared_blocks = 0;
  // --- Cross-replica CPU-tier spill accounting (DESIGN.md §14). All zero
  // when --peer-spill is off. Tokens this engine's CPU-tier evictions
  // offered out to peers, and foreign tokens re-adopted into the local
  // dropped prefix from a peer's stash.
  int64_t peer_spill_out_tokens = 0;
  int64_t peer_spill_in_tokens = 0;
  // --- KV-quantization accounting. All zero when kv_quant is off. ---
  // Blocks int8-quantized crossing the GPU->CPU tier boundary, and the
  // cumulative bytes compression kept off the CPU/SSD tiers.
  int64_t kv_quant_blocks = 0;
  int64_t kv_quant_bytes_saved = 0;
  // Allocator reference-balance snapshot (acquires == releases + live at all
  // times; live == 0 at leak-free shutdown) and the GPU-capacity high-water
  // mark, for capacity-per-GB analysis.
  int64_t kv_block_acquires = 0;
  int64_t kv_block_releases = 0;
  int64_t kv_blocks_live = 0;
  int64_t gpu_peak_allocated_blocks = 0;

  // Field-wise accumulation, used wherever stats from several engines (or
  // several engine incarnations of one replica, across crashes) are summed.
  // High-water marks merge with max: each engine owns its own GPU, so a
  // sum of peaks would describe no single GPU.
  EngineStats& operator+=(const EngineStats& other) {
    steps += other.steps;
    generated_tokens += other.generated_tokens;
    prefill_tokens += other.prefill_tokens;
    reused_gpu_tokens += other.reused_gpu_tokens;
    reused_cpu_tokens += other.reused_cpu_tokens;
    reused_ssd_tokens += other.reused_ssd_tokens;
    recomputed_history_tokens += other.recomputed_history_tokens;
    suspensions += other.suspensions;
    preemptions += other.preemptions;
    context_capped_requests += other.context_capped_requests;
    forced_swap_out_tokens += other.forced_swap_out_tokens;
    aot_swap_out_tokens += other.aot_swap_out_tokens;
    dropped_tokens += other.dropped_tokens;
    migrated_out_tokens += other.migrated_out_tokens;
    migrated_in_tokens += other.migrated_in_tokens;
    busy_seconds += other.busy_seconds;
    recompute_seconds += other.recompute_seconds;
    restore_stall_seconds += other.restore_stall_seconds;
    link_faults += other.link_faults;
    fault_degraded_admissions += other.fault_degraded_admissions;
    fault_recompute_tokens += other.fault_recompute_tokens;
    fault_dropped_chunks += other.fault_dropped_chunks;
    fault_failed_swap_outs += other.fault_failed_swap_outs;
    checksum_detected_corruptions += other.checksum_detected_corruptions;
    ssd_link_faults += other.ssd_link_faults;
    ssd_demoted_chunks += other.ssd_demoted_chunks;
    ssd_demoted_tokens += other.ssd_demoted_tokens;
    ssd_promoted_chunks += other.ssd_promoted_chunks;
    ssd_evicted_chunks += other.ssd_evicted_chunks;
    ssd_evicted_tokens += other.ssd_evicted_tokens;
    ssd_user_blocks_written += other.ssd_user_blocks_written;
    ssd_gc_moves += other.ssd_gc_moves;
    ssd_gc_runs += other.ssd_gc_runs;
    ssd_failed_demotes += other.ssd_failed_demotes;
    ssd_planned_recompute_tokens += other.ssd_planned_recompute_tokens;
    peer_spill_out_tokens += other.peer_spill_out_tokens;
    peer_spill_in_tokens += other.peer_spill_in_tokens;
    dedup_hit_requests += other.dedup_hit_requests;
    reused_shared_tokens += other.reused_shared_tokens;
    shared_attached_chunks += other.shared_attached_chunks;
    cow_copies += other.cow_copies;
    peak_shared_blocks = std::max(peak_shared_blocks, other.peak_shared_blocks);
    kv_quant_blocks += other.kv_quant_blocks;
    kv_quant_bytes_saved += other.kv_quant_bytes_saved;
    kv_block_acquires += other.kv_block_acquires;
    kv_block_releases += other.kv_block_releases;
    kv_blocks_live += other.kv_blocks_live;
    gpu_peak_allocated_blocks =
        std::max(gpu_peak_allocated_blocks, other.gpu_peak_allocated_blocks);
    return *this;
  }

  // Fraction of needed history tokens served from cache (any tier).
  double CacheHitRate() const {
    const int64_t hits = reused_gpu_tokens + reused_cpu_tokens + reused_ssd_tokens;
    const int64_t total = hits + recomputed_history_tokens;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
  // Fraction of GPU-missing history tokens that the CPU tier saved.
  double CpuCacheHitRate() const {
    const int64_t misses =
        reused_cpu_tokens + reused_ssd_tokens + recomputed_history_tokens;
    return misses == 0 ? 0.0
                       : static_cast<double>(reused_cpu_tokens) /
                             static_cast<double>(misses);
  }
  // Fraction of tokens missing from both GPU and CPU that the flash tier
  // saved from recomputation.
  double SsdCacheHitRate() const {
    const int64_t misses = reused_ssd_tokens + recomputed_history_tokens;
    return misses == 0 ? 0.0
                       : static_cast<double>(reused_ssd_tokens) /
                             static_cast<double>(misses);
  }
  // Flash write amplification: physical writes (user appends + GC
  // relocations) per user append. 1.0 with no GC traffic or no tier.
  double SsdWriteAmplification() const {
    return ssd_user_blocks_written == 0
               ? 1.0
               : static_cast<double>(ssd_user_blocks_written + ssd_gc_moves) /
                     static_cast<double>(ssd_user_blocks_written);
  }
};

struct StepResult {
  // Seconds of simulated hardware time consumed by this step (0 if idle).
  double duration = 0.0;
  bool idle = false;
  // Requests that computed in this step and the input tokens they processed
  // (decode tokens + prefill tokens), for telemetry.
  int64_t batch_requests = 0;
  int64_t batch_tokens = 0;
  std::vector<RequestOutcome> finished;
};

// Instantaneous load snapshot, used by cluster routers to pick a replica.
struct EngineLoad {
  int64_t waiting_requests = 0;
  int64_t running_requests = 0;
  // Input tokens the engine still has to prefill (queued work).
  int64_t queued_input_tokens = 0;
  // Output tokens still owed by running requests (decode backlog).
  int64_t outstanding_output_tokens = 0;
  // History tokens queued-but-unadmitted requests will have to recompute
  // because no local KV covers them. `queued_input_tokens` only counts an
  // unadmitted request's new prompt (the recompute tail is priced at
  // admission); without this term a prefill-pool dispatcher herds cold
  // conversations onto one replica whose queue looks short by prompt
  // tokens but is long by prefill work.
  int64_t queued_uncached_prefill_tokens = 0;

  int64_t OutstandingTokens() const {
    return queued_input_tokens + outstanding_output_tokens;
  }
  // Outstanding work including the unadmitted recompute backlog — what
  // prefill-pool dispatch balances on.
  int64_t WeightedTokens() const {
    return OutstandingTokens() + queued_uncached_prefill_tokens;
  }
  int64_t TotalRequests() const { return waiting_requests + running_requests; }
};

// A conversation's KV state as shipped between replicas (cluster migration).
// Only sizes travel in simulated mode; `resident_tokens` is what actually
// crosses the wire, the leading remainder had already been dropped at the
// source and must be recomputed wherever the conversation lands.
struct MigratedKvState {
  int64_t kv_len = 0;           // total history tokens with chunk bookkeeping
  int64_t resident_tokens = 0;  // trailing tokens with live KV copies
  // Wire size of the resident KV across all tensor-parallel slices, filled
  // by the exporting engine (it knows its KV geometry).
  double bytes = 0.0;
  // Layer-pipelined handoff streams (DESIGN.md §13) land directly in the
  // receiving GPU's KV pool — the decode side admits without a host->device
  // restore. Overload rehoming keeps the default host-memory landing.
  bool gpu_direct = false;

  bool Empty() const { return kv_len == 0; }
};

// What a crashing (or draining) engine still owed: every queued and running
// request in arrival order, plus the decode progress that is thrown away
// (re-routed requests restart generation from scratch elsewhere).
struct DrainedWork {
  std::vector<Request> requests;
  int64_t lost_generated_tokens = 0;
};

// One CPU-tier eviction offered to a peer replica instead of being dropped
// (cross-replica spill, DESIGN.md §14). Token offsets are absolute within
// the conversation's history; the chunk was at the leading edge of the
// dropped/SSD prefix, so successive offers of one conversation are
// contiguous and stack into a single peer-side segment.
struct PeerSpillOffer {
  int64_t conversation_id = 0;
  int64_t first_token = 0;
  int64_t num_tokens = 0;
  double bytes = 0.0;  // wire size across all tensor-parallel slices
};

class Engine {
 public:
  virtual ~Engine() = default;

  virtual const std::string& name() const = 0;

  // Delivers a request at virtual time `now`.
  virtual void Enqueue(const Request& request, double now) = 0;

  // True if any request is queued or running.
  virtual bool HasWork() const = 0;

  // Executes one scheduling iteration at virtual time `now`.
  virtual StepResult Step(double now) = 0;

  virtual const EngineStats& stats() const = 0;

  // Load snapshot for cluster routing decisions.
  virtual EngineLoad Load() const = 0;

  // --- Cluster state migration -------------------------------------------
  // Stateful engines can hand a conversation's cached KV to another replica.
  // A stateless engine keeps nothing between requests, so the defaults make
  // migration a no-op re-home.
  virtual bool SupportsStateMigration() const { return false; }

  // Tokens of this conversation's history with live KV copies here (either
  // tier). Routers use it to score how much a migration would save.
  virtual int64_t CachedConversationTokens(int64_t conversation_id) const {
    return 0;
  }

  // Detaches the conversation's cached state and forgets it locally. Must
  // not be called while the conversation has a queued or running request.
  virtual MigratedKvState ExportConversationState(int64_t conversation_id) {
    return {};
  }

  // Adopts migrated state ahead of the conversation's next request. The
  // transferred KV lands in the CPU tier (it arrives in host memory); the
  // normal swap-in path restores it on first use. Returns the tokens
  // actually adopted (less than state.resident_tokens if the receiving CPU
  // tier is short on space).
  virtual int64_t ImportConversationState(int64_t conversation_id,
                                          const MigratedKvState& state,
                                          double now) {
    return 0;
  }

  // --- Fault injection -----------------------------------------------------
  // Removes every queued and running request (crash/drain path) and returns
  // them sorted by request id (= arrival order). Cache bookkeeping for the
  // drained conversations is not released: the caller is about to discard
  // the whole engine (replica failure) or explicitly migrate the state.
  virtual DrainedWork DrainUnfinished() { return {}; }

  // Drain variant for a replica that stays alive (quarantine / scale-down
  // retirement, DESIGN.md §14): same contract as DrainUnfinished, but the
  // engine additionally unwinds running requests' admission state (pins,
  // partially restored chunks) so their conversations are immediately
  // exportable over the migration path.
  virtual DrainedWork DrainForRehome() { return DrainUnfinished(); }

  // --- Cross-replica CPU-tier spill (DESIGN.md §14) ------------------------
  // Drains the CPU-tier evictions this engine offered to peers since the
  // last call. The chunks were dropped locally either way; a successful peer
  // transfer is pure upside and a failed one degrades to exactly the
  // recompute path the drop already implied.
  virtual std::vector<PeerSpillOffer> TakePeerSpillOffers() { return {}; }

  // Idle CPU-tier capacity (tokens) a peer's spill could occupy.
  virtual int64_t IdleCpuCacheTokens() const { return 0; }

  // Reserves CPU-tier capacity for a peer's spilled KV (all-or-nothing;
  // returns the tokens actually reserved, 0 when the tier is short), and
  // releases it again when the stash is fetched back or invalidated.
  virtual int64_t ReserveForeignCpuTokens(int64_t tokens) { return 0; }
  virtual void ReleaseForeignCpuTokens(int64_t tokens) {}

  // Whether AcceptPeerPrefix would adopt any of the stash segment
  // [first_token, last_token): the placement rules, plus one free CPU-tier
  // block. The cluster driver asks before it ships a segment back (after
  // releasing the stash's own reservation), so a segment that would adopt
  // nothing never crosses the NIC.
  virtual bool AcceptsPeerPrefix(int64_t conversation_id, int64_t first_token,
                                 int64_t last_token,
                                 int64_t kv_len_hint) const {
    return false;
  }

  // Re-adopts a fetched-back stash segment [first_token, last_token) into
  // the conversation's dropped prefix ahead of its next request.
  // `kv_len_hint` is the conversation's history length per the incoming
  // request, used when this engine has no bookkeeping for it. Returns the
  // tokens actually adopted: 0 when AcceptsPeerPrefix refuses the segment,
  // fewer than offered when the CPU tier runs out of room.
  virtual int64_t AcceptPeerPrefix(int64_t conversation_id,
                                   int64_t first_token, int64_t last_token,
                                   int64_t kv_len_hint, double now) {
    return 0;
  }

  // Total history tokens with live KV copies on this engine, either tier —
  // what a replica failure destroys. Stateless engines keep nothing between
  // requests.
  virtual int64_t TotalCachedTokens() const { return 0; }
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SERVING_ENGINE_H_
