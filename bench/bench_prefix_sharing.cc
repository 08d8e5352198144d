// Shared-prefix dedup benchmark: refcounted copy-on-write KV blocks.
//
// Replays the same conversation trace four ways — no templates with sharing
// on and off, then N shared prompt templates with sharing off and on — and
// reports what block-granular dedup buys: first-turn prefill work and TTFT
// of template-matching conversations, dedup/CoW traffic, and peak GPU KV
// footprint (resident conversations per GB).
//
// Self-checks (always on; --smoke only shrinks the workload):
//   * dedup-off pin: on a trace with no templates, the sharing-enabled
//     engine is bit-identical to the sharing-disabled engine (same
//     completions, schedule, steps — sharing must be pay-for-use);
//   * refcount balance identity on every run:
//     acquires == releases + live blocks;
//   * sharing trades no requests: template runs complete the same request
//     count with sharing on and off;
//   * with templates, the sharing run actually dedups (hits > 0) and
//     first-turn prefill of template conversations drops by more than half
//     the prefix length — the shared run became a cache hit;
//   * peak GPU block usage never grows with sharing on;
//   * repeated runs are deterministic.
// Any violation fails the binary, making the ctest --smoke entry a real
// test.
//
// Emits machine-readable JSON (default BENCH_prefix.json): one entry per
// (templates x sharing) configuration.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_serving_common.h"
#include "src/common/flags.h"
#include "src/common/stats.h"
#include "src/kvcache/block.h"
#include "src/serving/driver.h"

namespace pensieve {
namespace {

struct RunResult {
  ServingSummary summary;
  double mean_ttft = 0.0;
  double p99_ttft = 0.0;
  // First-turn requests of template-carrying conversations: the population
  // whose prefill the dedup is supposed to absorb.
  int64_t template_first_turns = 0;
  double template_mean_prefill = 0.0;
  double template_mean_ttft = 0.0;
};

RunResult RunOnce(const GpuCostModel& cost_model, const Workload& workload,
                  const EngineOverrides& overrides) {
  const WorkloadTrace trace(workload.profile, workload.trace);
  auto engine = MakeEngine(SystemKind::kPensieve, cost_model, overrides);
  std::vector<RequestOutcome> outcomes;
  DriverOptions driver;
  driver.outcomes = &outcomes;
  RunResult result;
  result.summary = RunServingExperiment(engine.get(), trace, driver);
  SampleStats ttft;
  SampleStats template_prefill;
  SampleStats template_ttft;
  for (const RequestOutcome& o : outcomes) {
    const double t = o.first_scheduled_time - o.request.arrival_time;
    ttft.Add(t);
    if (o.request.template_id >= 0 && o.request.turn_index == 0) {
      template_prefill.Add(static_cast<double>(o.prefill_input_tokens));
      template_ttft.Add(t);
    }
  }
  if (!ttft.empty()) {
    result.mean_ttft = ttft.Mean();
    result.p99_ttft = ttft.Percentile(0.99);
  }
  if (!template_prefill.empty()) {
    result.template_first_turns = static_cast<int64_t>(template_prefill.count());
    result.template_mean_prefill = template_prefill.Mean();
    result.template_mean_ttft = template_ttft.Mean();
  }
  return result;
}

// Stats fields that must be reproducible run-to-run; also the fields the
// dedup-off pin compares, so it includes the sharing counters (all zero on
// a template-free trace).
std::string StatsFingerprint(const ServingSummary& s) {
  const EngineStats& e = s.engine_stats;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "completed=%lld steps=%lld generated=%lld prefill=%lld "
      "reused_gpu=%lld reused_cpu=%lld reused_ssd=%lld reused_shared=%lld "
      "recomputed=%lld dedup_hits=%lld cow=%lld acquires=%lld releases=%lld "
      "peak=%lld busy=%.9e makespan=%.9e",
      static_cast<long long>(s.completed_requests),
      static_cast<long long>(e.steps),
      static_cast<long long>(e.generated_tokens),
      static_cast<long long>(e.prefill_tokens),
      static_cast<long long>(e.reused_gpu_tokens),
      static_cast<long long>(e.reused_cpu_tokens),
      static_cast<long long>(e.reused_ssd_tokens),
      static_cast<long long>(e.reused_shared_tokens),
      static_cast<long long>(e.recomputed_history_tokens),
      static_cast<long long>(e.dedup_hit_requests),
      static_cast<long long>(e.cow_copies),
      static_cast<long long>(e.kv_block_acquires),
      static_cast<long long>(e.kv_block_releases),
      static_cast<long long>(e.gpu_peak_allocated_blocks), e.busy_seconds,
      s.makespan);
  return buf;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  AddWorkloadFlags(&flags, {.model = "opt-66b",
                            .rate = 1.5,
                            .conversations = 0,
                            .conversations_help =
                                "conversation count (0 = bench default, 150)",
                            .think = 60.0});
  flags.AddDouble("cache_scale", 4.0,
                  "GPU+CPU cache scale (1.0 = paper setup). The default is "
                  "large enough that the trace's retained KV fits the GPU, "
                  "so peak block usage measures working-set size — the "
                  "capacity axis dedup improves — instead of clipping at "
                  "tier capacity");
  flags.AddInt("templates", 8, "number of shared prompt templates");
  flags.AddInt("prefix-len", 512,
               "template prefix length prepended to each first turn (tokens)");
  flags.AddString("json", "BENCH_prefix.json", "output JSON path");
  flags.AddBool("smoke", false, "CI-sized run: small trace, short prefixes");
  ParseFlagsOrExit(&flags, argc, argv,
                   "bench_prefix_sharing: shared-prefix dedup benchmark");
  const bool smoke = flags.GetBool("smoke");
  Workload workload = WorkloadFromFlags(flags);
  const ModelConfig& model = workload.model;
  const GpuCostModel cost_model(model, A100Spec(model.num_gpus));

  EngineOverrides base;
  base.cache_scale = flags.GetDouble("cache_scale");

  if (workload.trace.num_conversations <= 0) {
    workload.trace.num_conversations = smoke ? 20 : BenchConversations(150);
  }
  const int64_t conversations = workload.trace.num_conversations;
  const int64_t templates =
      smoke ? std::min<int64_t>(flags.GetInt("templates"), 4)
            : flags.GetInt("templates");
  const int64_t prefix_len =
      smoke ? std::min<int64_t>(flags.GetInt("prefix-len"), 128)
            : flags.GetInt("prefix-len");
  // GiB of KV held by the peak number of allocated GPU blocks.
  const double gb_per_block =
      static_cast<double>(kDefaultBlockSize) *
      static_cast<double>(model.KvBytesPerToken()) / (1024.0 * 1024.0 * 1024.0);

  int failures = 0;
  std::vector<std::string> json_entries;
  std::printf("==== prefix sharing (%s, %s, %ld conversations, %ld templates "
              "x %ld tokens) ====\n",
              model.name.c_str(), workload.profile.name.c_str(),
              static_cast<long>(conversations), static_cast<long>(templates),
              static_cast<long>(prefix_len));
  std::printf("%-5s %-6s %9s %12s %12s %14s %11s %10s %10s %11s\n", "tmpl",
              "share", "completed", "mean_ttft_ms", "tmpl_ttft_ms",
              "tmpl_prefill", "dedup_hits", "cow", "peak_blks", "conv_per_gb");

  RunResult pin;          // templates=0, sharing off: the pre-dedup baseline
  RunResult template_off; // templates=N, sharing off
  for (const int64_t tmpl : {static_cast<int64_t>(0), templates}) {
    workload.trace.num_prefix_templates = tmpl;
    workload.trace.prefix_len = tmpl > 0 ? prefix_len : 0;
    for (int share = 0; share <= 1; ++share) {
      EngineOverrides overrides = base;
      overrides.enable_prefix_sharing = share == 1;
      const RunResult r = RunOnce(cost_model, workload, overrides);
      const EngineStats& e = r.summary.engine_stats;
      const double peak_gb =
          static_cast<double>(e.gpu_peak_allocated_blocks) * gb_per_block;
      const double conv_per_gb =
          peak_gb > 0.0 ? static_cast<double>(conversations) / peak_gb : 0.0;
      std::printf("%-5ld %-6s %9ld %12.1f %12.1f %14.1f %11ld %10ld %10ld %11.2f\n",
                  static_cast<long>(tmpl), share ? "on" : "off",
                  static_cast<long>(r.summary.completed_requests),
                  r.mean_ttft * 1e3, r.template_mean_ttft * 1e3,
                  r.template_mean_prefill,
                  static_cast<long>(e.dedup_hit_requests),
                  static_cast<long>(e.cow_copies),
                  static_cast<long>(e.gpu_peak_allocated_blocks), conv_per_gb);
      char entry[640];
      std::snprintf(
          entry, sizeof(entry),
          "{\"templates\": %ld, \"prefix_len\": %ld, \"sharing\": %d, "
          "\"completed\": %ld, \"mean_ttft_s\": %.6e, \"p99_ttft_s\": %.6e, "
          "\"template_first_turns\": %ld, \"template_mean_ttft_s\": %.6e, "
          "\"template_mean_prefill_tokens\": %.2f, \"dedup_hit_requests\": "
          "%ld, \"reused_shared_tokens\": %ld, \"cow_copies\": %ld, "
          "\"peak_gpu_blocks\": %ld, \"peak_kv_gb\": %.4f, "
          "\"conversations_per_gb\": %.4f, \"kv_block_acquires\": %ld, "
          "\"kv_block_releases\": %ld, \"kv_blocks_live\": %ld}",
          static_cast<long>(tmpl), static_cast<long>(tmpl > 0 ? prefix_len : 0),
          share, static_cast<long>(r.summary.completed_requests), r.mean_ttft,
          r.p99_ttft, static_cast<long>(r.template_first_turns),
          r.template_mean_ttft, r.template_mean_prefill,
          static_cast<long>(e.dedup_hit_requests),
          static_cast<long>(e.reused_shared_tokens),
          static_cast<long>(e.cow_copies),
          static_cast<long>(e.gpu_peak_allocated_blocks), peak_gb, conv_per_gb,
          static_cast<long>(e.kv_block_acquires),
          static_cast<long>(e.kv_block_releases),
          static_cast<long>(e.kv_blocks_live));
      json_entries.push_back(entry);

      // Self-check: the refcount ledger balances on every configuration.
      if (e.kv_block_acquires != e.kv_block_releases + e.kv_blocks_live) {
        std::fprintf(stderr,
                     "FAIL tmpl=%ld share=%d: refcount identity violated "
                     "(%lld acquires != %lld releases + %lld live)\n",
                     static_cast<long>(tmpl), share,
                     static_cast<long long>(e.kv_block_acquires),
                     static_cast<long long>(e.kv_block_releases),
                     static_cast<long long>(e.kv_blocks_live));
        ++failures;
      }
      if (tmpl == 0 && share == 0) {
        pin = r;
      } else if (tmpl == 0 && share == 1) {
        // Self-check: sharing is pay-for-use. Without templates the enabled
        // engine must match the disabled engine exactly.
        if (StatsFingerprint(r.summary) != StatsFingerprint(pin.summary)) {
          std::fprintf(stderr,
                       "FAIL: sharing-on diverged on a template-free trace\n"
                       "  off: %s\n  on:  %s\n",
                       StatsFingerprint(pin.summary).c_str(),
                       StatsFingerprint(r.summary).c_str());
          ++failures;
        }
      } else if (tmpl > 0 && share == 0) {
        template_off = r;
      } else {
        // Self-check: dedup trades no requests ...
        if (r.summary.completed_requests !=
            template_off.summary.completed_requests) {
          std::fprintf(stderr,
                       "FAIL: sharing-on completed %ld != sharing-off %ld\n",
                       static_cast<long>(r.summary.completed_requests),
                       static_cast<long>(template_off.summary.completed_requests));
          ++failures;
        }
        // ... actually dedups ...
        if (e.dedup_hit_requests == 0 || e.reused_shared_tokens == 0) {
          std::fprintf(stderr, "FAIL: template run produced no dedup hits\n");
          ++failures;
        }
        // ... turns the shared run into a cache hit (template conversations
        // skip more than half the prefix on average; publishers and
        // early-arriving conversations keep the mean above zero) ...
        if (r.template_mean_prefill >
            template_off.template_mean_prefill -
                0.5 * static_cast<double>(prefix_len)) {
          std::fprintf(stderr,
                       "FAIL: template first-turn prefill %.1f with sharing "
                       "vs %.1f without — dedup did not absorb the prefix\n",
                       r.template_mean_prefill,
                       template_off.template_mean_prefill);
          ++failures;
        }
        // ... and never costs peak capacity (more resident conversations
        // per GB of KV).
        if (e.gpu_peak_allocated_blocks >
            template_off.summary.engine_stats.gpu_peak_allocated_blocks) {
          std::fprintf(
              stderr,
              "FAIL: sharing-on peak %lld blocks > sharing-off peak %lld\n",
              static_cast<long long>(e.gpu_peak_allocated_blocks),
              static_cast<long long>(
                  template_off.summary.engine_stats.gpu_peak_allocated_blocks));
          ++failures;
        }
        // Self-check: deterministic replay.
        const RunResult again = RunOnce(cost_model, workload, overrides);
        if (StatsFingerprint(again.summary) != StatsFingerprint(r.summary)) {
          std::fprintf(stderr,
                       "FAIL: repeated template run diverged\n  1st: %s\n"
                       "  2nd: %s\n",
                       StatsFingerprint(r.summary).c_str(),
                       StatsFingerprint(again.summary).c_str());
          ++failures;
        }
      }
    }
  }

  const std::string json_path = flags.GetString("json");
  std::ofstream out(json_path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  out << BenchJsonHeader("prefix_sharing") << "  \"model\": \"" << model.name
      << "\",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"entries\": [\n";
  for (size_t i = 0; i < json_entries.size(); ++i) {
    out << "    " << json_entries[i]
        << (i + 1 < json_entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("\nwrote %s\n", json_path.c_str());

  if (failures > 0) {
    return 1;
  }
  std::printf("self-checks held: dedup-off bit-identical, refcount ledger "
              "balanced, no dropped requests, prefix absorbed, peak capacity "
              "not exceeded, deterministic replay\n");
  return 0;
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Run(argc, argv); }
