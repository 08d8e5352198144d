// pensieve_sim — command-line serving-experiment runner.
//
// Runs one serving experiment on the simulated A100 testbed and prints the
// summary; optionally dumps per-request outcomes and per-step traces as CSV
// for plotting.
//
// Examples:
//   pensieve_sim --model=llama2-13b --dataset=sharegpt --system=pensieve
//                --rate=1.0 --conversations=600 --think=60
//   pensieve_sim --model=opt-66b --system=vllm --rate=0.4
//                --outcomes_csv=/tmp/outcomes.csv --steps_csv=/tmp/steps.csv

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "src/common/flags.h"
#include "src/core/pensieve.h"
#include "src/serving/telemetry.h"
#include "src/sim/fault_injector.h"
#include "src/workload/trace_io.h"

namespace pensieve {
namespace {

// Splits a replica list "ID@REST[,ID@REST...]" and hands each replica id
// and its REST to `add`, which returns false on a malformed REST. The list
// parsers check syntax only; ClusterOptions::Validate checks the values.
bool ParseReplicaList(
    const std::string& spec,
    const std::function<bool(int32_t id, const std::string& rest)>& add) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string item = spec.substr(pos, comma - pos);
    const size_t at = item.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= item.size()) {
      return false;
    }
    try {
      if (!add(static_cast<int32_t>(std::stol(item.substr(0, at))),
               item.substr(at + 1))) {
        return false;
      }
    } catch (...) {
      return false;
    }
    pos = comma + 1;
  }
  return true;
}

// "ID@T1:T2[,...]": probes of replica ID fail in [T1, T2) virtual seconds.
bool ParseSickList(const std::string& spec, std::vector<SickWindow>* out) {
  return ParseReplicaList(spec, [&](int32_t id, const std::string& rest) {
    const size_t colon = rest.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size()) {
      return false;
    }
    out->push_back(SickWindow{id, std::stod(rest.substr(0, colon)),
                              std::stod(rest.substr(colon + 1))});
    return true;
  });
}

// "ID@T[,...]": replica ID fails (or recovers) at virtual time T seconds.
bool ParseFaultList(const std::string& spec, bool recover,
                    std::vector<ReplicaFault>* out) {
  return ParseReplicaList(spec, [&](int32_t id, const std::string& rest) {
    out->push_back(ReplicaFault{std::stod(rest), id, recover});
    return true;
  });
}

// The completion, throughput and latency lines both summary blocks print.
void PrintRequestLines(const ServingSummary& s) {
  std::printf("requests:          %ld completed, makespan %.1f s\n",
              static_cast<long>(s.completed_requests), s.makespan);
  std::printf("throughput:        %.3f req/s (%.1f tok/s) over steady window "
              "[%.1f, %.1f] s\n",
              s.throughput_rps, s.token_throughput, s.window_begin, s.window_end);
  std::printf("norm latency:      mean %.1f / p50 %.1f / p90 %.1f / p99 %.1f "
              "ms per token\n",
              s.mean_normalized_latency * 1e3, s.p50_normalized_latency * 1e3,
              s.p90_normalized_latency * 1e3, s.p99_normalized_latency * 1e3);
}

// The cache-feature lines both summary blocks print; each is empty when its
// feature saw no traffic.
void PrintCacheFeatureLines(const EngineStats& stats) {
  std::printf("%s", FormatKvFaultSummary(stats).c_str());
  std::printf("%s", FormatSsdTierSummary(stats).c_str());
  std::printf("%s", FormatPrefixSharingSummary(stats).c_str());
  std::printf("%s", FormatKvQuantSummary(stats).c_str());
}

// The single-engine summary block.
void PrintEngineSummary(const ServingSummary& s, const ModelConfig& model,
                        const std::vector<StepTraceEntry>& steps) {
  std::printf("system:            %s\n", s.engine_name.c_str());
  std::printf("model:             %s on %d GPU(s)\n", model.name.c_str(),
              model.num_gpus);
  PrintRequestLines(s);
  std::printf("cache:             hit %.3f (cpu-tier hit %.3f), %ld tokens "
              "recomputed, %.2f s recompute\n",
              s.engine_stats.CacheHitRate(), s.engine_stats.CpuCacheHitRate(),
              static_cast<long>(s.engine_stats.recomputed_history_tokens),
              s.engine_stats.recompute_seconds);
  std::printf("swapping:          %ld AOT tokens out, %ld forced, %ld dropped, "
              "%.2f s restore stall\n",
              static_cast<long>(s.engine_stats.aot_swap_out_tokens),
              static_cast<long>(s.engine_stats.forced_swap_out_tokens),
              static_cast<long>(s.engine_stats.dropped_tokens),
              s.engine_stats.restore_stall_seconds);
  PrintCacheFeatureLines(s.engine_stats);
  const StepTraceSummary st = SummarizeStepTrace(steps);
  std::printf("scheduler:         %ld steps, mean batch %.1f requests / %.1f "
              "tokens, %.1f s busy\n",
              static_cast<long>(st.steps), st.mean_batch_requests,
              st.mean_batch_tokens, st.busy_seconds);
}

// The cluster summary block: the merged run, then one line per replica.
void PrintClusterSummary(const ClusterSummary& cs, const ModelConfig& model,
                         const std::string& system) {
  const ServingSummary& s = cs.cluster;
  std::printf("cluster:           %d x %s behind %s router\n", cs.num_replicas,
              system.c_str(), cs.router_name.c_str());
  std::printf("model:             %s on %d GPU(s) per replica\n",
              model.name.c_str(), model.num_gpus);
  PrintRequestLines(s);
  std::printf("cache:             hit %.3f (cpu-tier hit %.3f), %ld tokens "
              "recomputed\n",
              s.engine_stats.CacheHitRate(), s.engine_stats.CpuCacheHitRate(),
              static_cast<long>(s.engine_stats.recomputed_history_tokens));
  std::printf("balance:           load imbalance %.2f (peak/mean busy)\n",
              cs.load_imbalance);
  std::printf("migration:         %ld transfers (%ld rehomes, %ld queued at "
              "home), %.1f MB, %ld tokens adopted, %.3f s stall\n",
              static_cast<long>(cs.migration.migrations),
              static_cast<long>(cs.migration.rehomes),
              static_cast<long>(cs.migration.overload_queued),
              cs.migration.migrated_bytes / 1e6,
              static_cast<long>(cs.migration.migrated_tokens),
              cs.migration.migration_stall_seconds);
  if (cs.faults.failures > 0 || cs.faults.recoveries > 0) {
    std::printf("faults:            %ld failure(s), %ld recovery(ies); %ld "
                "requests re-routed (%ld orphaned), %ld KV tokens lost, %ld "
                "generated tokens lost\n",
                static_cast<long>(cs.faults.failures),
                static_cast<long>(cs.faults.recoveries),
                static_cast<long>(cs.faults.rerouted_requests),
                static_cast<long>(cs.faults.orphaned_requests),
                static_cast<long>(cs.faults.lost_kv_tokens),
                static_cast<long>(cs.faults.lost_generated_tokens));
  }
  if (cs.nic_link_faults.InjectedFaults() > 0 ||
      cs.migration.failed_migrations > 0) {
    std::printf("nic-faults:        %s\n",
                FormatLinkFaultLine(cs.nic_link_faults).c_str());
    std::printf("nic-degrade:       %ld failed migrations, %ld KV tokens "
                "recomputed at destination\n",
                static_cast<long>(cs.migration.failed_migrations),
                static_cast<long>(cs.migration.kv_tokens_lost_in_transit));
  }
  // Empty unless the run actually handed off, so colocated output is
  // bit-identical to pre-disaggregation builds.
  std::printf("%s", FormatHandoffSummary(cs.handoff).c_str());
  // Likewise empty when no probing or scaling happened.
  std::printf("%s", FormatElasticSummary(cs.elastic).c_str());
  PrintCacheFeatureLines(s.engine_stats);
  for (size_t i = 0; i < cs.replicas.size(); ++i) {
    const ServingSummary& r = cs.replicas[i];
    std::printf("  replica %-2zu       %ld requests, %.1f s busy, hit %.3f\n",
                i, static_cast<long>(r.completed_requests),
                r.engine_stats.busy_seconds, r.engine_stats.CacheHitRate());
  }
}

int Run(int argc, char** argv) {
  FlagParser flags;
  AddWorkloadFlags(&flags, {.rate = 1.0, .conversations = 600, .think = 60.0});
  flags.AddString("system", "pensieve",
                  "serving system: pensieve, pensieve-gpu, vllm, tensorrt-llm");
  flags.AddString("policy", "retention",
                  "eviction policy: retention, lru, conversation-lru, cost-only");
  flags.AddDouble("cache_scale", 1.0,
                  "scales both cache tiers relative to the paper's 40 GB setup");
  flags.AddDouble("cpu-scale", 1.0,
                  "extra multiplier on the CPU tier only (on top of "
                  "cache_scale); < 1 forces traffic into the flash tier");
  flags.AddDouble("ssd-capacity", 0.0,
                  "flash (SSD) tier capacity in GiB of KV data behind the CPU "
                  "tier; 0 disables the tier. --system=pensieve only (other "
                  "systems reject a positive value); not scaled by "
                  "cache_scale");
  flags.AddInt("ssd-segment-blocks", 64,
               "blocks per append-only flash log segment (GC granularity); "
               "must be >= 1");
  flags.AddInt("prefix-templates", 0,
               "number of shared prompt templates; conversation i opens with "
               "template (i mod N) prepended to its first prompt (0 = none)");
  flags.AddInt("prefix-len", 0,
               "tokens per shared prompt template (ignored unless "
               "--prefix-templates > 0)");
  flags.AddBool("prefix-share", true,
                "cross-conversation shared-prefix dedup (Pensieve variants): "
                "conversations opening with the same template attach "
                "refcounted views over the first conversation's KV blocks "
                "instead of prefilling; off = every conversation prefills its "
                "own copy");
  flags.AddInt("replicas", 1,
               "number of serving replicas; > 1 runs the cluster layer");
  flags.AddString("router", "session-affinity",
                  "cluster routing policy: round-robin, least-loaded, "
                  "session-affinity");
  flags.AddInt("overload_tokens", 8192,
               "affinity failover: absolute outstanding-token floor before a "
               "home replica counts as overloaded");
  flags.AddDouble("overload_factor", 2.0,
                  "affinity failover: overloaded when outstanding tokens also "
                  "exceed this multiple of the cluster mean");
  flags.AddBool("disagg", false,
                "prefill/decode disaggregation (DESIGN.md §13): on splits "
                "the cluster into prefill- and decode-role replicas and "
                "streams each prefill's KV layer-by-layer over the NIC into "
                "the decode replica; off (default) is bit-identical to the "
                "colocated cluster");
  flags.AddInt("prefill-replicas", 1,
               "replicas [0, N) serve prefill when --disagg=on; must leave "
               "at least one decode replica (1 <= N <= --replicas - 1)");
  flags.AddInt("disagg-min-prefill", 64,
               "minimum pending prefill tokens (prompt + uncached history) "
               "for a turn to be handed to the prefill pool");
  flags.AddBool("health-probe", false,
                "active health probing (DESIGN.md §14): on runs a seeded "
                "probe loop over every active replica and quarantines "
                "replicas that fail consecutive probes — routers stop "
                "dispatching to them and their conversations drain to "
                "healthy peers; off is bit-identical to the unprobed "
                "cluster");
  flags.AddDouble("probe-interval", 1.0,
                  "virtual seconds between health-probe rounds");
  flags.AddDouble("probe-timeout-ms", 50.0,
                  "probe round-trips slower than this count as failed");
  flags.AddInt("probe-quarantine-after", 4,
               "consecutive probe failures before quarantine (a replica "
               "turns suspect at half this count)");
  flags.AddInt("probe-healthy-after", 3,
               "consecutive probe successes a quarantined replica needs to "
               "rejoin the dispatch set");
  flags.AddDouble("probe-loss", 0.0,
                  "ambient probe-loss probability on the probe link "
                  "(independent seeded stream; models a flaky control plane)");
  flags.AddString("sick-replica", "",
                  "force probes of replica ID to fail during [T1, T2): "
                  "ID@T1:T2[,ID@T1:T2...]; models a degraded replica that "
                  "probing can catch before it hard-fails");
  flags.AddBool("autoscale", false,
                "queue/latency-driven autoscaling (DESIGN.md §14): on "
                "starts --min-replicas active out of --replicas slots and "
                "grows/shrinks the active set mid-run; retiring replicas "
                "drain before destruction. off is bit-identical to the "
                "fixed-size cluster");
  flags.AddInt("min-replicas", 1,
               "autoscaling floor: active replicas never drop below this");
  flags.AddInt("max-replicas", 0,
               "autoscaling ceiling (0 = --replicas); must not exceed "
               "--replicas, which sizes the slot vector");
  flags.AddDouble("scale-interval", 2.0,
                  "virtual seconds between autoscaler evaluations");
  flags.AddDouble("scale-cooldown", 10.0,
                  "minimum virtual seconds between two scale actions");
  flags.AddInt("scale-up-tokens", 4096,
               "grow when mean outstanding weighted tokens per active "
               "replica exceeds this");
  flags.AddInt("scale-down-tokens", 512,
               "shrink when mean outstanding weighted tokens per active "
               "replica falls below this (and the latency signal is calm)");
  flags.AddDouble("scale-up-p99-ms", 0.0,
                  "also grow when the p99 normalized latency (ms/token) of "
                  "recently finished requests exceeds this (0 = queue-depth "
                  "signal only)");
  flags.AddString("fail-replica", "",
                  "kill replica ID at virtual time T: ID@T[,ID@T...]; its KV "
                  "is lost and its requests re-route to surviving replicas");
  flags.AddString("recover-replica", "",
                  "bring replica ID back (empty) at virtual time T: "
                  "ID@T[,ID@T...]");
  flags.AddBool("split_scheduling", false,
                "disable unified batching (Figure 13 ablation)");
  flags.AddString("trace_csv", "",
                  "replay conversations from this CSV (see src/workload/trace_io.h) "
                  "instead of synthesizing them");
  flags.AddString("outcomes_csv", "", "write per-request outcomes CSV here");
  flags.AddString("steps_csv", "", "write per-step trace CSV here");
  flags.AddString("weight-quant", "fp32",
                  "weight storage: fp32 (default, bit-identical to prior "
                  "builds) or int8 (per-column symmetric scales; the cost "
                  "model's per-step weight-read floor streams 1 B/param)");
  flags.AddBool("kv-quant", false,
                "int8 KV compression at the GPU boundary: on quantizes "
                "blocks demoted to the CPU/SSD tiers (~2x capacity, "
                "compressed transfers), off keeps fp16 KV everywhere. "
                "Pensieve systems only (vllm and tensorrt-llm reject on)");
  AddFaultFlags(&flags);
  ParseFlagsOrExit(&flags, argc, argv, "pensieve_sim: serving-experiment runner");
  const Workload workload = WorkloadFromFlags(flags);
  const ModelConfig& model = workload.model;
  SystemKind kind = SystemKind::kPensieve;
  const std::string system = flags.GetString("system");
  if (system == "pensieve") {
    kind = SystemKind::kPensieve;
  } else if (system == "pensieve-gpu") {
    kind = SystemKind::kPensieveGpuOnly;
  } else if (system == "vllm") {
    kind = SystemKind::kVllm;
  } else if (system == "tensorrt-llm") {
    kind = SystemKind::kTensorRtLlm;
  } else {
    ExitWithUsage(flags, "unknown system '" + system + "'");
  }
  EngineOverrides overrides;
  overrides.cache_scale = flags.GetDouble("cache_scale");
  overrides.cpu_cache_scale = flags.GetDouble("cpu-scale");
  overrides.unified_scheduling = !flags.GetBool("split_scheduling");
  overrides.enable_prefix_sharing = flags.GetBool("prefix-share");
  const std::string policy = flags.GetString("policy");
  if (policy == "retention") {
    overrides.policy = EvictionPolicyKind::kRetentionValue;
  } else if (policy == "lru") {
    overrides.policy = EvictionPolicyKind::kLru;
  } else if (policy == "conversation-lru") {
    overrides.policy = EvictionPolicyKind::kConversationLru;
  } else if (policy == "cost-only") {
    overrides.policy = EvictionPolicyKind::kCostOnly;
  } else {
    ExitWithUsage(flags, "unknown policy '" + policy + "'");
  }
  const FaultConfig fault_config = FaultConfigFromFlags(flags);
  overrides.pcie_fault_profile = fault_config.pcie;
  overrides.fault_retry = fault_config.retry;
  overrides.fault_seed = fault_config.seed;
  overrides.ssd_capacity_gb = flags.GetDouble("ssd-capacity");
  overrides.ssd_segment_blocks = flags.GetInt("ssd-segment-blocks");
  overrides.ssd_fault_profile = fault_config.ssd;
  overrides.kv_quant = flags.GetBool("kv-quant");
  QuantMode weight_quant = QuantMode::kFp32;
  if (!QuantModeByName(flags.GetString("weight-quant"), &weight_quant)) {
    ExitWithUsage(flags, "unknown weight-quant '" +
                             flags.GetString("weight-quant") + "' (fp32 or int8)");
  }

  const int64_t replicas = flags.GetInt("replicas");
  ClusterOptions cluster_options;
  cluster_options.num_replicas = static_cast<int32_t>(replicas);
  if (!RouterPolicyByName(flags.GetString("router"),
                          &cluster_options.router.policy)) {
    ExitWithUsage(flags, "unknown router '" + flags.GetString("router") + "'");
  }
  cluster_options.router.min_overload_tokens = flags.GetInt("overload_tokens");
  cluster_options.router.overload_factor = flags.GetDouble("overload_factor");
  if (!ParseFaultList(flags.GetString("fail-replica"), /*recover=*/false,
                      &cluster_options.faults) ||
      !ParseFaultList(flags.GetString("recover-replica"), /*recover=*/true,
                      &cluster_options.faults)) {
    ExitWithUsage(flags, "malformed fault spec (expected ID@T[,ID@T...]): "
                         "--fail-replica='" + flags.GetString("fail-replica") +
                         "' --recover-replica='" +
                         flags.GetString("recover-replica") + "'");
  }
  cluster_options.nic_fault_profile = fault_config.nic;
  cluster_options.fault_retry = fault_config.retry;
  cluster_options.fault_seed = fault_config.seed;
  DisaggOptions& disagg = cluster_options.disagg;
  disagg.enabled = flags.GetBool("disagg");
  disagg.prefill_replicas =
      static_cast<int32_t>(flags.GetInt("prefill-replicas"));
  disagg.min_handoff_tokens = flags.GetInt("disagg-min-prefill");
  disagg.stream_layers = model.num_layers;
  HealthOptions& health = cluster_options.elastic.health;
  health.enabled = flags.GetBool("health-probe");
  health.probe_interval = flags.GetDouble("probe-interval");
  health.probe_timeout = flags.GetDouble("probe-timeout-ms") / 1e3;
  health.quarantine_after =
      static_cast<int32_t>(flags.GetInt("probe-quarantine-after"));
  health.suspect_after = std::max<int32_t>(1, health.quarantine_after / 2);
  health.healthy_after =
      static_cast<int32_t>(flags.GetInt("probe-healthy-after"));
  health.probe_faults.timeout_rate = flags.GetDouble("probe-loss");
  if (!ParseSickList(flags.GetString("sick-replica"), &health.sick)) {
    ExitWithUsage(flags,
                  "malformed sick spec (expected ID@T1:T2[,ID@T1:T2...]): "
                  "--sick-replica='" + flags.GetString("sick-replica") + "'");
  }
  AutoscaleOptions& autoscale = cluster_options.elastic.autoscale;
  autoscale.enabled = flags.GetBool("autoscale");
  autoscale.min_replicas = static_cast<int32_t>(flags.GetInt("min-replicas"));
  autoscale.max_replicas = static_cast<int32_t>(
      flags.GetInt("max-replicas") == 0 ? replicas
                                        : flags.GetInt("max-replicas"));
  autoscale.check_interval = flags.GetDouble("scale-interval");
  autoscale.cooldown = flags.GetDouble("scale-cooldown");
  autoscale.up_queue_tokens = flags.GetInt("scale-up-tokens");
  autoscale.down_queue_tokens = flags.GetInt("scale-down-tokens");
  autoscale.up_p99_latency = flags.GetDouble("scale-up-p99-ms") / 1e3;
  // The library owns every legality rule; an option it rejects is a usage
  // error here, reported before any work.
  for (const Status& status :
       {overrides.Validate(kind), cluster_options.Validate()}) {
    if (!status.ok()) {
      ExitWithUsage(flags, status.ToString());
    }
  }

  const GpuCostModel cost_model(model, A100Spec(model.num_gpus), weight_quant);
  TraceOptions trace_options = workload.trace;
  trace_options.num_prefix_templates = flags.GetInt("prefix-templates");
  trace_options.prefix_len = flags.GetInt("prefix-len");
  std::optional<WorkloadTrace> trace_storage;
  if (!flags.GetString("trace_csv").empty()) {
    auto loaded = LoadConversationsCsv(flags.GetString("trace_csv"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    trace_storage.emplace(std::move(loaded).value(), workload.profile,
                          trace_options);
  } else {
    trace_storage.emplace(workload.profile, trace_options);
  }
  const WorkloadTrace& trace = *trace_storage;

  // Replica faults and the elastic features print the cluster summary even
  // with one replica; a plain one-replica run prints the engine summary.
  const bool single_engine = replicas == 1 && cluster_options.faults.empty() &&
                             !cluster_options.elastic.Enabled();
  std::vector<RequestOutcome> outcomes;
  std::vector<ClusterStepTraceEntry> steps;
  cluster_options.outcomes = &outcomes;
  cluster_options.step_trace = &steps;
  const ClusterSummary cs = RunClusterExperiment(
      [&](int32_t replica_id) {
        // Each replica (and each recovery incarnation) draws from its own
        // deterministic fault stream; a single engine draws from the seed
        // itself.
        EngineOverrides replica_overrides = overrides;
        if (!single_engine) {
          replica_overrides.fault_seed =
              fault_config.seed +
              0x9E3779B9ull * static_cast<uint64_t>(replica_id + 1);
        }
        return MakeEngine(kind, cost_model, replica_overrides);
      },
      trace, cluster_options);
  std::vector<StepTraceEntry> engine_steps;
  if (single_engine) {
    for (const ClusterStepTraceEntry& entry : steps) {
      engine_steps.push_back(entry.step);
    }
    PrintEngineSummary(cs.replicas[0], model, engine_steps);
  } else {
    PrintClusterSummary(cs, model, system);
  }

  if (!flags.GetString("outcomes_csv").empty()) {
    const Status status = WriteOutcomesCsv(flags.GetString("outcomes_csv"), outcomes);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.GetString("outcomes_csv").c_str());
  }
  if (!flags.GetString("steps_csv").empty()) {
    const std::string path = flags.GetString("steps_csv");
    const Status status =
        single_engine ? WriteStepTraceCsv(path, engine_steps, weight_quant)
                      : WriteClusterStepTraceCsv(path, steps);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Run(argc, argv); }
