// Simulator wall-clock benchmark: how fast the discrete-event simulator
// itself runs, in scheduler steps per wall second, on four fixed configs:
//
//   single_rate3        one opt-13b engine, 2000 ShareGPT conversations at
//                       3 conversations/s (pensieve_sim --conversations=2000
//                       --rate=3)
//   cluster4_affinity   4 replicas behind the session-affinity router
//   flash_prefix_int8   one engine with a flash tier behind a shrunken CPU
//                       tier, shared template prefixes and int8 KV
//   disagg_elastic      1 prefill + 3 decode replicas with health probes, a
//                       sick window, a crash + recovery and NIC faults
//
// Usage:
//   bench_sim [--smoke] [--json=BENCH_sim.json] [--label=NAME] [--threads=N]
//
// Writes a host-headed JSON with one entry per config: conversations,
// scheduler steps, completed requests, wall seconds and steps/s. --label
// tags the entries (e.g. "before" / "after" when comparing two builds run
// back to back on one host). --smoke shrinks every config to CI size and runs each twice,
// failing (exit 1) unless the two runs' simulated outcomes are identical.
// Timing is reported, never gated: run-to-run wall-clock noise on a shared
// host is about 2x.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_serving_common.h"
#include "src/cluster/cluster_driver.h"
#include "src/common/flags.h"
#include "src/core/experiment.h"
#include "src/model/model_config.h"
#include "src/sim/hardware.h"
#include "src/workload/trace.h"

namespace pensieve {
namespace {

// The simulated outcome of one run: what two runs of the same config must
// agree on, plus the step count the throughput is measured in.
struct Outcome {
  int64_t steps = 0;
  int64_t completed = 0;
  int64_t generated_tokens = 0;
  double makespan = 0.0;
  bool operator==(const Outcome&) const = default;
};

Outcome OutcomeOf(const ServingSummary& s) {
  return Outcome{s.engine_stats.steps, s.completed_requests,
                 s.engine_stats.generated_tokens, s.makespan};
}

struct SimConfig {
  const char* name;
  int64_t conversations;
  int64_t smoke_conversations;
  std::function<Outcome(int64_t conversations)> run;
};

GpuCostModel Opt13BModel() { return GpuCostModel(Opt13BConfig(), A100Spec(1)); }

WorkloadTrace ShareGptTrace(int64_t conversations, double rate, double think,
                            int64_t templates = 0, int64_t prefix_len = 0) {
  TraceOptions t;
  t.num_conversations = conversations;
  t.conversation_rate = rate;
  t.mean_think_time = think;
  t.seed = 42;
  t.num_prefix_templates = templates;
  t.prefix_len = prefix_len;
  return WorkloadTrace(ShareGptProfile(), t);
}

std::vector<SimConfig> Configs() {
  std::vector<SimConfig> configs;
  configs.push_back({"single_rate3", 2000, 120, [](int64_t conversations) {
    const GpuCostModel model = Opt13BModel();
    const WorkloadTrace trace = ShareGptTrace(conversations, 3.0, 60.0);
    auto engine = MakeEngine(SystemKind::kPensieve, model);
    return OutcomeOf(RunServingExperiment(engine.get(), trace));
  }});
  configs.push_back({"cluster4_affinity", 3000, 160, [](int64_t conversations) {
    const GpuCostModel model = Opt13BModel();
    const WorkloadTrace trace = ShareGptTrace(conversations, 10.0, 60.0);
    ClusterOptions options;
    options.num_replicas = 4;
    options.router.policy = RouterPolicy::kSessionAffinity;
    return OutcomeOf(RunClusterExperiment(
        [&model](int32_t) { return MakeEngine(SystemKind::kPensieve, model); }, trace,
        options).cluster);
  }});
  configs.push_back({"flash_prefix_int8", 1200, 100, [](int64_t conversations) {
    const GpuCostModel model = Opt13BModel();
    const WorkloadTrace trace =
        ShareGptTrace(conversations, 2.0, 60.0, /*templates=*/6, /*prefix_len=*/256);
    EngineOverrides o;
    o.cache_scale = 0.3;
    o.cpu_cache_scale = 0.25;
    o.ssd_capacity_gb = 64.0;
    o.kv_quant = true;
    o.enable_prefix_sharing = true;
    auto engine = MakeEngine(SystemKind::kPensieve, model, o);
    return OutcomeOf(RunServingExperiment(engine.get(), trace));
  }});
  configs.push_back({"disagg_elastic", 800, 60, [](int64_t conversations) {
    const GpuCostModel model = Opt13BModel();
    const WorkloadTrace trace = ShareGptTrace(conversations, 4.0, 30.0);
    ClusterOptions options;
    options.num_replicas = 4;
    options.disagg.enabled = true;
    options.disagg.prefill_replicas = 1;
    options.disagg.min_handoff_tokens = 64;
    options.disagg.stream_layers = Opt13BConfig().num_layers;
    options.elastic.health.enabled = true;
    options.elastic.health.probe_interval = 0.5;
    options.elastic.health.sick.push_back({3, 20.0, 40.0});
    options.faults = {{60.0, 2, false}, {90.0, 2, true}};
    options.nic_fault_profile.timeout_rate = 0.05;
    options.nic_fault_profile.partial_rate = 0.1;
    options.nic_fault_profile.corruption_rate = 0.05;
    options.fault_seed = 7;
    return OutcomeOf(RunClusterExperiment(
        [&model](int32_t) {
          EngineOverrides o;
          o.cache_scale = 0.3;
          o.cpu_cache_scale = 0.25;
          return MakeEngine(SystemKind::kPensieve, model, o);
        },
        trace, options).cluster);
  }});
  return configs;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("json", "BENCH_sim.json", "output JSON path");
  flags.AddString("label", "current", "tag recorded on every entry");
  flags.AddBool("smoke", false, "CI-sized configs, each run twice and compared");
  ParseFlagsOrExit(&flags, argc, argv, "bench_sim: simulator wall-clock benchmark");
  const bool smoke = flags.GetBool("smoke");
  const std::string label = flags.GetString("label");

  std::printf("%-20s %-8s %-10s %-10s %-10s %-12s\n", "config", "convs", "steps",
              "completed", "wall_s", "steps_per_s");
  std::vector<std::string> entries;
  int failures = 0;
  for (const SimConfig& config : Configs()) {
    const int64_t conversations = smoke ? config.smoke_conversations : config.conversations;
    const auto start = std::chrono::steady_clock::now();
    const Outcome outcome = config.run(conversations);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const double steps_per_s = static_cast<double>(outcome.steps) / wall_s;
    std::printf("%-20s %-8ld %-10ld %-10ld %-10.3f %-12.0f\n", config.name,
                static_cast<long>(conversations), static_cast<long>(outcome.steps),
                static_cast<long>(outcome.completed), wall_s, steps_per_s);
    if (smoke && !(config.run(conversations) == outcome)) {
      std::fprintf(stderr, "%s: two runs of the same config disagree\n", config.name);
      ++failures;
    }
    char entry[512];
    std::snprintf(entry, sizeof(entry),
                  "{\"config\": \"%s\", \"label\": \"%s\", \"conversations\": %ld, "
                  "\"steps\": %ld, \"completed\": %ld, \"wall_s\": %.3f, "
                  "\"steps_per_s\": %.0f}",
                  config.name, label.c_str(), static_cast<long>(conversations),
                  static_cast<long>(outcome.steps), static_cast<long>(outcome.completed),
                  wall_s, steps_per_s);
    entries.push_back(entry);
  }

  const std::string json_path = flags.GetString("json");
  std::ofstream out(json_path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  out << BenchJsonHeader("sim") << "  \"threads\": " << ThreadPool::Global().num_threads()
      << ",\n  \"smoke\": " << (smoke ? "true" : "false") << ",\n  \"entries\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    out << "    " << entries[i] << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("\nwrote %s\n", json_path.c_str());
  if (failures > 0) {
    return 1;
  }
  if (smoke) {
    std::printf("self-check held: every config replays identically\n");
  }
  return 0;
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Run(argc, argv); }
