#include "src/core/experiment.h"

#include <algorithm>
#include <cstdio>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"

namespace pensieve {

const char* SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kPensieve:
      return "pensieve";
    case SystemKind::kPensieveGpuOnly:
      return "pensieve-gpu-cache";
    case SystemKind::kVllm:
      return "vllm";
    case SystemKind::kTensorRtLlm:
      return "tensorrt-llm";
  }
  return "?";
}

int64_t GpuKvCacheTokens(const ModelConfig& model, const HardwareSpec& hw) {
  return hw.gpu_kv_cache_bytes / model.KvBytesPerTokenPerGpu();
}

int64_t CpuKvCacheTokens(const ModelConfig& model, const HardwareSpec& hw) {
  return hw.cpu_kv_cache_bytes / model.KvBytesPerTokenPerGpu();
}

Status EngineOverrides::Validate(SystemKind kind) const {
  return CheckRules({
      {ssd_capacity_gb < 0.0, "ssd_capacity_gb must be >= 0"},
      {ssd_segment_blocks < 1, "ssd_segment_blocks must be >= 1"},
      {ssd_capacity_gb > 0.0 && kind != SystemKind::kPensieve,
       "ssd_capacity_gb > 0 needs system pensieve: the flash tier sits behind "
       "the CPU tier, which the other systems do not have"},
      {kv_quant && kind != SystemKind::kPensieve &&
           kind != SystemKind::kPensieveGpuOnly,
       "kv_quant needs a Pensieve system: vllm and tensorrt-llm keep no KV "
       "off the GPU"},
  });
}

std::unique_ptr<Engine> MakeEngine(SystemKind kind, const GpuCostModel& cost_model,
                                   const EngineOverrides& overrides) {
  PENSIEVE_CHECK_OK(overrides.Validate(kind));
  const ModelConfig& model = cost_model.model();
  const HardwareSpec& hw = cost_model.hardware();
  const int64_t gpu_tokens = static_cast<int64_t>(
      static_cast<double>(GpuKvCacheTokens(model, hw)) * overrides.cache_scale);
  const int64_t cpu_tokens = static_cast<int64_t>(
      static_cast<double>(CpuKvCacheTokens(model, hw)) * overrides.cache_scale *
      overrides.cpu_cache_scale);

  switch (kind) {
    case SystemKind::kPensieve:
    case SystemKind::kPensieveGpuOnly: {
      PensieveEngineOptions options;
      options.name = SystemKindName(kind) + overrides.name_suffix;
      options.block_size = kDefaultBlockSize;
      options.num_gpu_blocks = gpu_tokens / options.block_size;
      options.num_cpu_blocks = cpu_tokens / options.block_size;
      options.max_batch_tokens = overrides.max_batch_tokens;
      options.max_running = overrides.max_running;
      options.use_cpu_cache = kind == SystemKind::kPensieve;
      options.unified_scheduling = overrides.unified_scheduling;
      options.pipelined_restore = overrides.pipelined_restore;
      options.prioritize_swap_in = overrides.prioritize_swap_in;
      options.enable_prefix_sharing = overrides.enable_prefix_sharing;
      options.policy = overrides.policy;
      options.pcie_fault_profile = overrides.pcie_fault_profile;
      options.fault_retry = overrides.fault_retry;
      options.fault_seed = overrides.fault_seed;
      options.kv_quant = overrides.kv_quant;
      if (overrides.ssd_capacity_gb > 0.0) {
        const int64_t ssd_tokens = static_cast<int64_t>(
            overrides.ssd_capacity_gb * 1024.0 * 1024.0 * 1024.0 /
            static_cast<double>(model.KvBytesPerTokenPerGpu()));
        options.num_ssd_blocks = ssd_tokens / options.block_size;
        options.ssd_segment_blocks = overrides.ssd_segment_blocks;
        options.ssd_fault_profile = overrides.ssd_fault_profile;
      }
      return std::make_unique<PensieveEngine>(cost_model, options);
    }
    case SystemKind::kVllm:
    case SystemKind::kTensorRtLlm: {
      StatelessEngineOptions options;
      options.name = SystemKindName(kind) + overrides.name_suffix;
      options.block_size = 16;
      options.num_gpu_blocks = gpu_tokens / options.block_size;
      options.max_batch_tokens = overrides.max_batch_tokens;
      options.max_running = overrides.max_running;
      options.dense_speedup =
          kind == SystemKind::kTensorRtLlm ? kTensorRtDenseSpeedup : 1.0;
      return std::make_unique<StatelessEngine>(cost_model, options);
    }
  }
  PENSIEVE_LOG_FATAL << "unknown system kind";
  return nullptr;
}

void AddWorkloadFlags(FlagParser* flags, const WorkloadDefaults& defaults) {
  flags->AddString("model", defaults.model,
                   "model preset: opt-13b, opt-66b, llama2-13b, llama2-70b");
  flags->AddString("dataset", "sharegpt", "workload profile: sharegpt or ultrachat");
  flags->AddDouble("rate", defaults.rate, "conversation arrival rate (conversations/s)");
  if (defaults.conversations.has_value()) {
    flags->AddInt("conversations", *defaults.conversations, defaults.conversations_help);
  }
  flags->AddDouble("think", defaults.think, "mean user think time (s)");
  flags->AddInt("seed", 42, "workload seed");
}

Workload WorkloadFromFlags(const FlagParser& flags) {
  Workload workload;
  if (!ModelConfigByName(flags.GetString("model"), &workload.model)) {
    ExitWithUsage(flags, "unknown model '" + flags.GetString("model") + "'");
  }
  if (!DatasetProfileByName(flags.GetString("dataset"), &workload.profile)) {
    ExitWithUsage(flags, "unknown dataset '" + flags.GetString("dataset") + "'");
  }
  if (flags.Has("conversations")) {
    workload.trace.num_conversations = flags.GetInt("conversations");
  }
  workload.trace.conversation_rate = flags.GetDouble("rate");
  workload.trace.mean_think_time = flags.GetDouble("think");
  workload.trace.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  return workload;
}

std::vector<SweepPoint> RateSweep(SystemKind kind, const GpuCostModel& cost_model,
                                  const DatasetProfile& profile,
                                  const std::vector<double>& conversation_rates,
                                  const SweepOptions& options) {
  const int64_t num_points = static_cast<int64_t>(conversation_rates.size());
  std::vector<SweepPoint> points(conversation_rates.size());
  const auto run_point = [&](int64_t i) {
    const double rate = conversation_rates[static_cast<size_t>(i)];
    TraceOptions trace_options;
    trace_options.num_conversations = options.num_conversations;
    if (options.target_arrival_span > 0.0) {
      trace_options.num_conversations =
          std::max(trace_options.num_conversations,
                   static_cast<int64_t>(rate * options.target_arrival_span));
    }
    trace_options.conversation_rate = rate;
    trace_options.mean_think_time = options.mean_think_time;
    trace_options.seed = options.seed;
    WorkloadTrace trace(profile, trace_options);
    std::unique_ptr<Engine> engine = MakeEngine(kind, cost_model, options.overrides);
    SweepPoint& point = points[static_cast<size_t>(i)];
    point.conversation_rate = rate;
    point.summary = RunServingExperiment(engine.get(), trace);
  };
  // Points are independent (each builds its own trace and engine) and land
  // in their own slot, so the result is the same at every thread count.
  // Point cost grows with the rate, so worker w takes points w, w + W, ...
  // instead of one contiguous block.
  const int64_t workers =
      std::min<int64_t>(ThreadPool::Global().num_threads(), num_points);
  ParallelFor(0, workers, [&](int64_t begin, int64_t end) {
    for (int64_t w = begin; w < end; ++w) {
      for (int64_t i = w; i < num_points; i += workers) {
        run_point(i);
      }
    }
  });
  return points;
}

void PrintSweep(const std::string& title, const std::vector<SweepPoint>& points) {
  std::printf("## %s\n", title.c_str());
  std::printf("%-12s %-14s %-16s %-18s %-18s %-10s %-10s\n", "conv_rate",
              "tput(req/s)", "tok_tput(tok/s)", "p90_norm_lat(ms)",
              "mean_norm_lat(ms)", "hit_rate", "cpu_hit");
  for (const SweepPoint& p : points) {
    const ServingSummary& s = p.summary;
    std::printf("%-12.3f %-14.3f %-16.1f %-18.1f %-18.1f %-10.3f %-10.3f\n",
                p.conversation_rate, s.throughput_rps, s.token_throughput,
                s.p90_normalized_latency * 1e3, s.mean_normalized_latency * 1e3,
                s.engine_stats.CacheHitRate(), s.engine_stats.CpuCacheHitRate());
  }
  std::printf("\n");
}

}  // namespace pensieve
