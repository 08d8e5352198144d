// Request and outcome types shared by every serving engine.

#ifndef PENSIEVE_SRC_SCHEDULER_REQUEST_H_
#define PENSIEVE_SRC_SCHEDULER_REQUEST_H_

#include <cstdint>

#include "src/common/logging.h"

namespace pensieve {

// One turn of a conversation submitted to the serving system. The prompt is
// described by lengths; raw token ids are rematerialized on demand from the
// persistent history store (SyntheticToken) where numerics are needed.
struct Request {
  int64_t request_id = 0;
  int64_t conversation_id = 0;
  int32_t turn_index = 0;
  // Tokens in the new user prompt of this turn.
  int64_t new_prompt_len = 0;
  // Raw conversation tokens accumulated before this turn (all previous
  // prompts and responses). A stateless system re-processes these.
  int64_t history_len = 0;
  // Response length; generation stops after this many tokens (stand-in for
  // the model emitting EOS).
  int64_t target_output_len = 0;
  double arrival_time = 0.0;
  // Shared-prefix template metadata: the conversation's first
  // `template_prefix_len` raw tokens are the deterministic token stream of
  // template `template_id` (TemplatePrefixToken), identical across every
  // conversation carrying the same id. -1 = no template.
  int32_t template_id = -1;
  int64_t template_prefix_len = 0;
  // Disaggregated serving (DESIGN.md §13). `prefill_only`: the engine
  // finishes this request right after its prefill step (one token emitted);
  // the cluster driver then streams the KV to a decode replica.
  // `handoff_continuation`: the decode-side remainder of a handed-off
  // request; its outcome is merged with the prefill side's before being
  // recorded. Both are false outside disaggregated runs.
  bool prefill_only = false;
  bool handoff_continuation = false;
};

// Completion record for one request, with the reuse accounting that the
// paper's Figure 14 analysis reports.
struct RequestOutcome {
  Request request;
  double first_scheduled_time = 0.0;
  double finish_time = 0.0;
  // Input tokens processed during this request's prefill (new prompt plus
  // any recomputed history).
  int64_t prefill_input_tokens = 0;
  // History tokens served from the GPU cache without recomputation.
  int64_t reused_gpu_tokens = 0;
  // History tokens restored from the CPU cache (swap-in).
  int64_t reused_cpu_tokens = 0;
  // History tokens promoted from the flash (SSD) tier, then restored. Counted
  // separately from reused_cpu_tokens: these paid the extra flash read.
  int64_t reused_ssd_tokens = 0;
  // Tokens attached as views over blocks another conversation prefilled
  // (shared-prefix dedup). A subset of reused_gpu_tokens — the shared run is
  // GPU-resident at admission — broken out because no conversation-local
  // cache could have served them.
  int64_t reused_shared_tokens = 0;
  // History tokens recomputed because their KV had been dropped (or the
  // system is stateless).
  int64_t recomputed_tokens = 0;
  // Output tokens actually generated. Normally equals
  // request.target_output_len; smaller when a run is cut short (e.g. a
  // max_steps abort mid-generation would leave partial requests, and future
  // EOS-style termination ends early by design).
  int64_t generated_tokens = 0;
  // Times the request was suspended and re-queued (paper §4.3.5).
  int32_t suspensions = 0;
  // Virtual time the first output token was emitted (end of the prefill
  // step); 0 when the engine predates the field or the request never
  // prefilled. TTFT = first_token_time - arrival, inter-token latency =
  // (finish - first_token_time) / (generated - 1).
  double first_token_time = 0.0;
  // Start of the step that ran this request's prefill — the window over
  // which a handoff stream's per-layer chunks become ready. Only stamped for
  // prefill_only requests.
  double prefill_compute_start = 0.0;
  // Disaggregated handoff attribution (-1 / 0 when the request never handed
  // off): the replica that ran the prefill, when its KV stream landed at the
  // decode replica, and when the decode side first scheduled the
  // continuation. first_scheduled_time stays the *prefill-side* admission.
  int32_t prefill_replica = -1;
  double handoff_stream_done = 0.0;
  double decode_admit_time = 0.0;

  // Adds `other`'s work counters (token counts and suspensions) into this
  // outcome; used to merge the two halves of a handed-off turn.
  void AddWork(const RequestOutcome& other) {
    prefill_input_tokens += other.prefill_input_tokens;
    reused_gpu_tokens += other.reused_gpu_tokens;
    reused_cpu_tokens += other.reused_cpu_tokens;
    reused_ssd_tokens += other.reused_ssd_tokens;
    reused_shared_tokens += other.reused_shared_tokens;
    recomputed_tokens += other.recomputed_tokens;
    generated_tokens += other.generated_tokens;
    suspensions += other.suspensions;
  }

  double NormalizedLatency() const {
    PENSIEVE_CHECK_GT(request.target_output_len, 0);
    return (finish_time - request.arrival_time) /
           static_cast<double>(request.target_output_len);
  }
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SCHEDULER_REQUEST_H_
