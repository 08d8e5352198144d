// Flash-tier serving benchmark: three-tier GPU -> CPU -> SSD KV cache.
//
// A KV-quant capacity check, then a conversation-set sweep: traces of
// increasing conversation count replayed with the flash tier off and on.
// While the working set fits the CPU tier the two configurations match; once
// it spills, the flash-off build recomputes evicted history while the flash
// build promotes it back over the simulated SSD link, and tail TTFT (p99 of
// first-scheduled minus arrival) separates.
//
// Self-checks (always on; --smoke only shrinks the workload):
//   * --ssd-capacity 0 is bit-identical to the flash-off build: same
//     completions, same per-request schedule times, same step count;
//   * the flash tier never drops a request: every configuration completes
//     exactly the flash-off request count;
//   * repeated runs are deterministic: the largest flash-on point replayed
//     twice gives identical engine stats;
//   * flash accounting: promoted + evicted <= demoted chunks, write-amp
//     >= 1, SSD hit rate in [0, 1].
// Any violation fails the binary, which makes the ctest --smoke entry a
// real test.
//
// Emits machine-readable JSON (default BENCH_flash.json): the capacity
// check plus one entry per (sweep point x flash setting).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_serving_common.h"
#include "src/common/flags.h"
#include "src/common/stats.h"
#include "src/serving/driver.h"
#include "src/serving/pensieve_engine.h"

namespace pensieve {
namespace {

struct RunResult {
  ServingSummary summary;
  double p99_ttft = 0.0;
  double mean_ttft = 0.0;
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
  for (const RequestOutcome& o : outcomes) {
    ttft.Add(o.first_scheduled_time - o.request.arrival_time);
  }
  if (!ttft.empty()) {
    result.p99_ttft = ttft.Percentile(0.99);
    result.mean_ttft = ttft.Mean();
  }
  return result;
}

// Stats fields that must be reproducible run-to-run; used both for the
// determinism self-check and the ssd-capacity-0 equivalence check.
std::string StatsFingerprint(const ServingSummary& s) {
  const EngineStats& e = s.engine_stats;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "completed=%lld steps=%lld generated=%lld prefill=%lld "
      "reused_gpu=%lld reused_cpu=%lld reused_ssd=%lld recomputed=%lld "
      "demoted=%lld promoted=%lld evicted=%lld user_blocks=%lld "
      "gc_moves=%lld gc_runs=%lld busy=%.9e makespan=%.9e",
      static_cast<long long>(s.completed_requests),
      static_cast<long long>(e.steps),
      static_cast<long long>(e.generated_tokens),
      static_cast<long long>(e.prefill_tokens),
      static_cast<long long>(e.reused_gpu_tokens),
      static_cast<long long>(e.reused_cpu_tokens),
      static_cast<long long>(e.reused_ssd_tokens),
      static_cast<long long>(e.recomputed_history_tokens),
      static_cast<long long>(e.ssd_demoted_chunks),
      static_cast<long long>(e.ssd_promoted_chunks),
      static_cast<long long>(e.ssd_evicted_chunks),
      static_cast<long long>(e.ssd_user_blocks_written),
      static_cast<long long>(e.ssd_gc_moves),
      static_cast<long long>(e.ssd_gc_runs), e.busy_seconds, s.makespan);
  return buf;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  AddWorkloadFlags(&flags, {.model = "opt-66b", .rate = 1.5, .think = 60.0});
  flags.AddDouble("cache_scale", 0.3,
                  "GPU+CPU cache scale; must keep the GPU larger than the "
                  "longest conversation");
  flags.AddDouble("cpu-scale", 0.3,
                  "extra CPU-tier multiplier; sets the working-set size at "
                  "which the sweep crosses into flash territory");
  flags.AddDouble("ssd-capacity", 128.0, "flash tier capacity in GiB");
  flags.AddInt("ssd-segment-blocks", 64, "blocks per flash log segment");
  flags.AddBool("kv-quant", false,
                "int8 KV in the CPU/SSD tiers (on/off): the same byte "
                "budget holds ~2x the blocks, so ~2x the conversations "
                "stay resident per GB");
  flags.AddString("json", "BENCH_flash.json", "output JSON path");
  flags.AddBool("smoke", false, "CI-sized run: one small sweep point");
  ParseFlagsOrExit(&flags, argc, argv,
                   "bench_flash_tier: three-tier KV cache benchmark");
  const bool smoke = flags.GetBool("smoke");
  Workload workload = WorkloadFromFlags(flags);
  const GpuCostModel cost_model(workload.model, A100Spec(workload.model.num_gpus));

  EngineOverrides base;
  base.cache_scale = flags.GetDouble("cache_scale");
  base.cpu_cache_scale = flags.GetDouble("cpu-scale");
  if (smoke) {
    // A CI-sized trace fits the paper-scale CPU tier; shrink it so the
    // smoke run still exercises demotes, promotes and flash GC.
    base.cpu_cache_scale = std::min(base.cpu_cache_scale, 0.02);
  }
  base.ssd_segment_blocks = flags.GetInt("ssd-segment-blocks");
  const double ssd_gb = flags.GetDouble("ssd-capacity");
  base.kv_quant = flags.GetBool("kv-quant");

  const std::vector<int64_t> sweep_sizes =
      smoke ? std::vector<int64_t>{12}
            : std::vector<int64_t>{15, BenchConversations(60),
                                   BenchConversations(150)};
  int failures = 0;
  std::vector<std::string> json_entries;

  // ---- 0. KV-quant capacity check (always on) ----------------------------
  // The CPU/SSD budgets are byte-denominated: with int8 KV the same budget
  // must hold >= 1.8x the blocks, which is >= 1.8x the conversations
  // resident per GB (mean conversation footprint is workload-invariant).
  // Measured on freshly built engines, so this checks what the serving
  // stack actually sizes, not flag arithmetic.
  {
    EngineOverrides fp16 = base;
    fp16.kv_quant = false;
    fp16.ssd_capacity_gb = ssd_gb;
    EngineOverrides int8 = base;
    int8.kv_quant = true;
    int8.ssd_capacity_gb = ssd_gb;
    const auto engine_fp16 = MakeEngine(SystemKind::kPensieve, cost_model, fp16);
    const auto engine_int8 = MakeEngine(SystemKind::kPensieve, cost_model, int8);
    const auto* p_fp16 = dynamic_cast<const PensieveEngine*>(engine_fp16.get());
    const auto* p_int8 = dynamic_cast<const PensieveEngine*>(engine_int8.get());
    const int64_t cpu_blocks_fp16 = p_fp16->cache().cpu_allocator().num_free();
    const int64_t cpu_blocks_int8 = p_int8->cache().cpu_allocator().num_free();
    const double capacity_ratio =
        cpu_blocks_fp16 > 0
            ? static_cast<double>(cpu_blocks_int8) /
                  static_cast<double>(cpu_blocks_fp16)
            : 0.0;
    std::printf("kv-quant capacity: cpu tier %ld blocks (fp16) -> %ld blocks "
                "(int8) at the same byte budget = %.2fx conversations per GB\n",
                static_cast<long>(cpu_blocks_fp16),
                static_cast<long>(cpu_blocks_int8), capacity_ratio);
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "{\"phase\": \"kv_quant_capacity\", \"cpu_blocks_fp16\": "
                  "%ld, \"cpu_blocks_int8\": %ld, \"capacity_ratio\": %.4f}",
                  static_cast<long>(cpu_blocks_fp16),
                  static_cast<long>(cpu_blocks_int8), capacity_ratio);
    json_entries.push_back(entry);
    if (capacity_ratio < 1.8) {
      std::fprintf(stderr,
                   "FAIL kv-quant capacity ratio %.3f < 1.8 (fp16 %ld vs "
                   "int8 %ld cpu blocks)\n",
                   capacity_ratio, static_cast<long>(cpu_blocks_fp16),
                   static_cast<long>(cpu_blocks_int8));
      ++failures;
    }
  }

  // ---- 1. Conversation-set sweep: flash off vs on ------------------------
  std::printf("==== flash-tier sweep (%s, %s, cache x%.2f, cpu x%.2f, ssd "
              "%.0f GiB) ====\n",
              workload.model.name.c_str(), workload.profile.name.c_str(),
              base.cache_scale, base.cpu_cache_scale, ssd_gb);
  std::printf("%-7s %-6s %9s %12s %12s %12s %9s %9s %12s\n", "convs", "flash",
              "completed", "p99_ttft_ms", "mean_ttft_ms", "p99 ms/tok",
              "hit_rate", "ssd_hit", "recomputed");
  for (int64_t convs : sweep_sizes) {
    workload.trace.num_conversations = convs;
    RunResult off;
    for (int flash = 0; flash <= 1; ++flash) {
      EngineOverrides overrides = base;
      overrides.ssd_capacity_gb = flash ? ssd_gb : 0.0;
      const RunResult r = RunOnce(cost_model, workload, overrides);
      const EngineStats& e = r.summary.engine_stats;
      std::printf("%-7ld %-6s %9ld %12.1f %12.1f %12.1f %9.3f %9.3f %12ld\n",
                  static_cast<long>(convs), flash ? "on" : "off",
                  static_cast<long>(r.summary.completed_requests),
                  r.p99_ttft * 1e3, r.mean_ttft * 1e3,
                  r.summary.p99_normalized_latency * 1e3, e.CacheHitRate(),
                  e.SsdCacheHitRate(),
                  static_cast<long>(e.recomputed_history_tokens));
      char entry[512];
      std::snprintf(
          entry, sizeof(entry),
          "{\"phase\": \"sweep\", \"conversations\": %ld, \"flash\": %d, "
          "\"completed\": %ld, \"p99_ttft_s\": %.6e, \"mean_ttft_s\": %.6e, "
          "\"p99_norm_latency_s\": %.6e, \"cache_hit_rate\": %.4f, "
          "\"ssd_hit_rate\": %.4f, \"recomputed_tokens\": %ld, "
          "\"ssd_write_amp\": %.4f}",
          static_cast<long>(convs), flash,
          static_cast<long>(r.summary.completed_requests), r.p99_ttft,
          r.mean_ttft, r.summary.p99_normalized_latency, e.CacheHitRate(),
          e.SsdCacheHitRate(),
          static_cast<long>(e.recomputed_history_tokens),
          e.SsdWriteAmplification());
      json_entries.push_back(entry);

      if (flash == 0) {
        off = r;
        // Self-check: --ssd-capacity 0 is the flash-off build. A second run
        // through the num_ssd_blocks=0 engine must reproduce it exactly.
        EngineOverrides zero = base;
        zero.ssd_capacity_gb = 0.0;
        const RunResult z = RunOnce(cost_model, workload, zero);
        if (StatsFingerprint(z.summary) != StatsFingerprint(r.summary)) {
          std::fprintf(stderr,
                       "FAIL convs=%ld: ssd-capacity=0 diverged from the "
                       "flash-off build\n  off:  %s\n  zero: %s\n",
                       static_cast<long>(convs),
                       StatsFingerprint(r.summary).c_str(),
                       StatsFingerprint(z.summary).c_str());
          ++failures;
        }
      } else {
        // Self-check: the flash tier trades latency, never requests.
        if (r.summary.completed_requests != off.summary.completed_requests) {
          std::fprintf(stderr,
                       "FAIL convs=%ld: flash-on completed %ld != flash-off "
                       "%ld\n",
                       static_cast<long>(convs),
                       static_cast<long>(r.summary.completed_requests),
                       static_cast<long>(off.summary.completed_requests));
          ++failures;
        }
        // Self-check: flash accounting identities.
        if (e.ssd_promoted_chunks + e.ssd_evicted_chunks >
                e.ssd_demoted_chunks ||
            e.SsdWriteAmplification() < 1.0 || e.SsdCacheHitRate() < 0.0 ||
            e.SsdCacheHitRate() > 1.0) {
          std::fprintf(stderr,
                       "FAIL convs=%ld: flash accounting identity violated "
                       "(%lld promoted + %lld evicted vs %lld demoted, "
                       "write-amp %.3f)\n",
                       static_cast<long>(convs),
                       static_cast<long long>(e.ssd_promoted_chunks),
                       static_cast<long long>(e.ssd_evicted_chunks),
                       static_cast<long long>(e.ssd_demoted_chunks),
                       e.SsdWriteAmplification());
          ++failures;
        }
        // Self-check: the same trace through the flash tier twice is
        // deterministic (checked once, on the largest sweep point).
        if (convs == sweep_sizes.back()) {
          const RunResult again = RunOnce(cost_model, workload, overrides);
          if (StatsFingerprint(again.summary) != StatsFingerprint(r.summary)) {
            std::fprintf(stderr,
                         "FAIL convs=%ld: repeated flash-on run diverged\n"
                         "  1st: %s\n  2nd: %s\n",
                         static_cast<long>(convs),
                         StatsFingerprint(r.summary).c_str(),
                         StatsFingerprint(again.summary).c_str());
            ++failures;
          }
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
  out << BenchJsonHeader("flash_tier") << "  \"model\": \"" << workload.model.name
      << "\",\n  \"kv_quant\": " << (base.kv_quant ? "true" : "false")
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
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
  std::printf("self-checks held: ssd-capacity-0 bit-identical, no dropped "
              "requests, deterministic replay, accounting balanced\n");
  return 0;
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Run(argc, argv); }
