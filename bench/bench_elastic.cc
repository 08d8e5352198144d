// Elastic replica set benchmark (DESIGN.md §14).
//
// Three experiments plus a chaos soak:
//
//  * Sick replica: a replica degrades (probes fail) for a window and then
//    hard-fails. With probing off the crash is the first signal — every
//    request still homed there re-routes reactively and all its KV dies.
//    With probing on the replica is quarantined while still alive, its
//    conversations drain over the NIC ahead of the crash, and the crash
//    itself finds less to destroy.
//
//  * Flash crowd: a diurnal trace whose arrivals compress into a burst
//    (1 -> N -> 1 demand). A fixed-small cluster misses the TTFT SLO
//    through the burst; autoscaling grows the active set into it and
//    retires replicas afterwards, recovering most of the fixed-large SLO
//    attainment at a fraction of the replica-seconds.
//
//  * Peer spill: CPU tiers sized below the working set. Without spill an
//    overloaded replica's CPU-tier evictions drop straight to recompute;
//    with spill they park in a peer's idle CPU tier and come back over the
//    NIC on next use.
//
// Self-checks (always on; a violation exits nonzero, so the --smoke ctest
// entry is a real test):
//  * every variant completes every request — quarantine, drain, scale-down
//    and spill faults degrade to recompute, never drop;
//  * probe accounting identity: probes_sent == probes_ok + probes_failed;
//  * spill accounting identity: spilled == fetched + degraded
//    + invalidated + remaining;
//  * NIC fault-injection identity: injected == recovered + unrecovered;
//  * probe-quarantine beats hard-fail-only on crash-time damage
//    (re-routed requests + KV tokens lost);
//  * autoscaling improves TTFT SLO attainment over the fixed-small
//    cluster and actually scales both directions.
//
// --chaos runs the soak alone (CI runs it under ASan/UBSan): randomized
// NIC/PCIe/SSD fault schedule + probe loss + a sick window + a mid-run
// crash/recover + autoscaling + peer spill, all seeded, with the no-drop
// and identity checks enforced.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_serving_common.h"
#include "src/cluster/cluster_driver.h"
#include "src/common/flags.h"
#include "src/model/model_config.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

void Fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  std::exit(1);
}

struct VariantResult {
  std::string name;
  ClusterSummary summary;
  std::vector<RequestOutcome> outcomes;
  double slo_attainment = 0.0;  // flash-crowd variants only
};

VariantResult RunVariant(const std::string& name,
                         const GpuCostModel& cost_model,
                         const WorkloadTrace& trace, ClusterOptions options,
                         const EngineOverrides& overrides) {
  VariantResult result;
  result.name = name;
  options.outcomes = &result.outcomes;
  result.summary = RunClusterExperiment(
      [&](int32_t replica_id) {
        EngineOverrides replica_overrides = overrides;
        replica_overrides.fault_seed =
            overrides.fault_seed +
            0x9E3779B9ull * static_cast<uint64_t>(replica_id + 1);
        return MakeEngine(SystemKind::kPensieve, cost_model, replica_overrides);
      },
      trace, options);
  return result;
}

void CheckIdentities(const VariantResult& v, int64_t expected_completed) {
  if (v.summary.cluster.completed_requests != expected_completed) {
    std::fprintf(stderr, "FAIL: %s completed %ld of %ld requests\n",
                 v.name.c_str(),
                 static_cast<long>(v.summary.cluster.completed_requests),
                 static_cast<long>(expected_completed));
    std::exit(1);
  }
  const HealthStats& h = v.summary.elastic.health;
  if (h.probes_sent != h.probes_ok + h.probes_failed) {
    Fail("probe accounting identity violated (sent != ok + failed)");
  }
  const PeerSpillStats& p = v.summary.elastic.peer_spill;
  if (p.spilled_tokens != p.fetched_tokens + p.degraded_tokens +
                              p.invalidated_tokens + p.remaining_tokens) {
    Fail("peer-spill accounting identity violated");
  }
  const LinkFaultStats& nic = v.summary.nic_link_faults;
  if (nic.injected_timeouts + nic.injected_partials + nic.injected_corruptions !=
      nic.recovered_faults + nic.unrecovered_faults) {
    Fail("NIC fault accounting identity violated");
  }
}

// ---------------------------------------------------------------------------
// Sick replica: probe-quarantine vs hard-fail-only.

VariantResult RunSick(const std::string& name, const GpuCostModel& cost_model,
                      const WorkloadTrace& trace, bool probe, double sick_begin,
                      double fail_time, double recover_time) {
  ClusterOptions options;
  options.num_replicas = 3;
  options.router.policy = RouterPolicy::kSessionAffinity;
  options.router.min_overload_tokens = 64;
  options.router.overload_factor = 1.1;
  options.fault_seed = 1234;
  options.faults.push_back({fail_time, 1, /*recover=*/false});
  options.faults.push_back({recover_time, 1, /*recover=*/true});
  if (probe) {
    options.elastic.health.enabled = true;
    options.elastic.health.probe_interval = 1.0;
    options.elastic.health.sick.push_back({1, sick_begin, fail_time});
  }
  EngineOverrides overrides;
  overrides.cache_scale = 0.5;
  overrides.fault_seed = 1234;
  return RunVariant(name, cost_model, trace, options, overrides);
}

// ---------------------------------------------------------------------------
// Flash crowd: fixed-small vs autoscale vs fixed-large.

double Ttft(const RequestOutcome& o) {
  return o.first_token_time - o.request.arrival_time;
}

double SloAttainment(const std::vector<RequestOutcome>& outcomes, double slo) {
  if (outcomes.empty()) {
    return 0.0;
  }
  int64_t ok = 0;
  for (const RequestOutcome& o : outcomes) {
    if (Ttft(o) <= slo) {
      ++ok;
    }
  }
  return static_cast<double>(ok) / static_cast<double>(outcomes.size());
}

VariantResult RunCrowd(const std::string& name, const GpuCostModel& cost_model,
                       const WorkloadTrace& trace, int32_t replicas,
                       bool autoscale, int32_t max_replicas) {
  ClusterOptions options;
  options.num_replicas = replicas;
  options.router.policy = RouterPolicy::kLeastLoaded;
  options.fault_seed = 99;
  if (autoscale) {
    options.elastic.autoscale.enabled = true;
    options.elastic.autoscale.min_replicas = 1;
    options.elastic.autoscale.max_replicas = max_replicas;
    options.elastic.autoscale.check_interval = 2.0;
    options.elastic.autoscale.cooldown = 6.0;
    options.elastic.autoscale.up_queue_tokens = 1536;
    options.elastic.autoscale.down_queue_tokens = 256;
  }
  EngineOverrides overrides;
  overrides.cache_scale = 0.5;
  overrides.fault_seed = 99;
  return RunVariant(name, cost_model, trace, options, overrides);
}

// ---------------------------------------------------------------------------
// Peer spill: CPU tiers below the working set, spill off vs on.

// Skewed tiers: replica 0's CPU tier is sized far below its share of the
// working set while its peers have idle CPU budget — the regime where
// parking evictions at a peer beats recomputing them.
VariantResult RunSpill(const std::string& name, const GpuCostModel& cost_model,
                       const WorkloadTrace& trace, bool spill) {
  ClusterOptions options;
  options.num_replicas = 3;
  options.router.policy = RouterPolicy::kSessionAffinity;
  options.fault_seed = 7;
  VariantResult result;
  result.name = name;
  options.outcomes = &result.outcomes;
  result.summary = RunClusterExperiment(
      [&](int32_t replica_id) {
        EngineOverrides overrides;
        overrides.cache_scale = 0.15;
        overrides.cpu_cache_scale = replica_id == 0 ? 0.15 : 2.0;
        overrides.fault_seed =
            7 + 0x9E3779B9ull * static_cast<uint64_t>(replica_id + 1);
        overrides.peer_spill = spill;
        return MakeEngine(SystemKind::kPensieve, cost_model, overrides);
      },
      trace, options);
  return result;
}

// ---------------------------------------------------------------------------
// Chaos soak: everything at once under a randomized fault schedule.

VariantResult RunChaos(const GpuCostModel& cost_model,
                       const WorkloadTrace& trace, uint64_t seed) {
  ClusterOptions options;
  options.num_replicas = 3;
  options.router.policy = RouterPolicy::kSessionAffinity;
  options.router.min_overload_tokens = 64;
  options.router.overload_factor = 1.1;
  options.fault_seed = seed;
  options.nic_fault_profile.timeout_rate = 0.15;
  options.nic_fault_profile.partial_rate = 0.1;
  options.nic_fault_profile.corruption_rate = 0.1;
  options.fault_retry.max_attempts = 2;
  options.faults.push_back({40.0, 0, /*recover=*/false});
  options.faults.push_back({80.0, 0, /*recover=*/true});
  options.elastic.health.enabled = true;
  options.elastic.health.probe_interval = 0.5;
  options.elastic.health.probe_faults.timeout_rate = 0.1;
  options.elastic.health.sick.push_back({2, 30.0, 55.0});
  options.elastic.autoscale.enabled = true;
  options.elastic.autoscale.min_replicas = 2;
  options.elastic.autoscale.max_replicas = 3;
  options.elastic.autoscale.check_interval = 2.0;
  options.elastic.autoscale.cooldown = 5.0;
  options.elastic.autoscale.up_queue_tokens = 1024;
  options.elastic.autoscale.down_queue_tokens = 128;
  EngineOverrides overrides;
  overrides.cache_scale = 0.15;
  overrides.cpu_cache_scale = 0.25;
  overrides.ssd_capacity_gb = 0.5;
  overrides.fault_seed = seed;
  overrides.peer_spill = true;
  overrides.pcie_fault_profile.timeout_rate = 0.05;
  overrides.pcie_fault_profile.corruption_rate = 0.05;
  overrides.ssd_fault_profile.timeout_rate = 0.05;
  overrides.ssd_fault_profile.corruption_rate = 0.05;
  return RunVariant("chaos seed=" + std::to_string(seed), cost_model, trace,
                    options, overrides);
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddBool("smoke", false, "CI-sized run with the self-checks");
  flags.AddBool("chaos", false, "run only the seeded chaos soak");
  flags.AddString("json", "", "output JSON path (empty = no JSON)");
  ParseFlagsOrExit(&flags, argc, argv, "bench_elastic: elastic replica set benchmark");
  const bool smoke = flags.GetBool("smoke");
  const bool chaos_only = flags.GetBool("chaos");
  const std::string json_path = flags.GetString("json");

  const GpuCostModel cost_model(Opt13BConfig(), A100Spec(1));

  if (chaos_only) {
    TraceOptions chaos_options;
    chaos_options.num_conversations = BenchConversations(smoke ? 24 : 60);
    chaos_options.conversation_rate = 3.0;
    chaos_options.mean_think_time = 3.0;
    chaos_options.seed = 42;
    const WorkloadTrace chaos_trace(ShareGptProfile(), chaos_options);
    const int64_t expected = chaos_trace.TotalRequests();
    for (uint64_t seed : {1234ull, 77777ull}) {
      const VariantResult v = RunChaos(cost_model, chaos_trace, seed);
      CheckIdentities(v, expected);
      const ElasticStats& e = v.summary.elastic;
      std::printf("%-18s %ld req, %ld probes (%ld failed), %ld quarantines, "
                  "%ld up / %ld down, %ld spills, %ld KV lost\n",
                  v.name.c_str(),
                  static_cast<long>(v.summary.cluster.completed_requests),
                  static_cast<long>(e.health.probes_sent),
                  static_cast<long>(e.health.probes_failed),
                  static_cast<long>(e.health.quarantines),
                  static_cast<long>(e.autoscale.scale_ups),
                  static_cast<long>(e.autoscale.scale_downs),
                  static_cast<long>(e.peer_spill.spills),
                  static_cast<long>(v.summary.faults.lost_kv_tokens));
      if (e.health.probes_sent == 0) {
        Fail("chaos soak never probed");
      }
    }
    std::printf("chaos soak OK: every request completed under randomized "
                "NIC/PCIe/SSD faults + crash + quarantine + scaling + spill\n");
    return 0;
  }

  // ---- Sick replica ----
  TraceOptions sick_options;
  sick_options.num_conversations = BenchConversations(smoke ? 40 : 100);
  sick_options.conversation_rate = 4.0;
  sick_options.mean_think_time = 2.0;
  sick_options.seed = 42;
  const WorkloadTrace sick_trace(ShareGptProfile(), sick_options);
  const int64_t sick_expected = sick_trace.TotalRequests();

  const double sick_begin = 20.0;
  const double fail_time = 60.0;
  const double recover_time = 120.0;
  std::printf("==== Sick replica (degrades at %.0fs, crashes at %.0fs): "
              "probe-quarantine vs hard-fail-only ====\n",
              sick_begin, fail_time);
  std::printf("%-18s %-10s %-10s %-12s %-10s %-12s\n", "variant", "completed",
              "rerouted", "kv_lost", "drained", "drained_kv");
  VariantResult hard = RunSick("hard-fail only", cost_model, sick_trace,
                               /*probe=*/false, sick_begin, fail_time,
                               recover_time);
  VariantResult probed = RunSick("probe+quarantine", cost_model, sick_trace,
                                 /*probe=*/true, sick_begin, fail_time,
                                 recover_time);
  for (const VariantResult* v : {&hard, &probed}) {
    const FaultStats& f = v->summary.faults;
    const HealthStats& h = v->summary.elastic.health;
    std::printf("%-18s %-10ld %-10ld %-12ld %-10ld %-12ld\n", v->name.c_str(),
                static_cast<long>(v->summary.cluster.completed_requests),
                static_cast<long>(f.rerouted_requests),
                static_cast<long>(f.lost_kv_tokens),
                static_cast<long>(h.drained_requests),
                static_cast<long>(h.drained_kv_tokens));
    CheckIdentities(*v, sick_expected);
  }
  if (probed.summary.elastic.health.quarantines < 1) {
    Fail("sick replica was never quarantined");
  }
  if (probed.summary.elastic.health.drained_requests < 1) {
    Fail("quarantine drained no requests ahead of the crash");
  }
  const int64_t hard_damage = hard.summary.faults.rerouted_requests +
                              hard.summary.faults.lost_kv_tokens;
  const int64_t probed_damage = probed.summary.faults.rerouted_requests +
                                probed.summary.faults.lost_kv_tokens;
  if (probed_damage >= hard_damage) {
    Fail("probe-quarantine did not reduce crash-time damage "
         "(re-routed requests + KV tokens lost)");
  }

  // ---- Flash crowd ----
  TraceOptions crowd_options;
  crowd_options.num_conversations = BenchConversations(smoke ? 96 : 240);
  crowd_options.conversation_rate = 3.0;
  crowd_options.mean_think_time = 2.0;
  crowd_options.seed = 7;
  WorkloadTrace crowd_trace(ShareGptProfile(), crowd_options);
  // Diurnal warp with a flash crowd: off-peak arrivals stretch 1.5x, the
  // middle 40% of the arrival span compresses 10x into a burst.
  const double span = static_cast<double>(crowd_options.num_conversations) /
                      crowd_options.conversation_rate;
  const double burst_begin = 0.3 * span;
  const double burst_end = 0.7 * span;
  const double stretch = 1.5;
  const double compress = 10.0;
  crowd_trace.WarpFirstArrivals([&](double t) {
    if (t < burst_begin) {
      return t * stretch;
    }
    const double head = burst_begin * stretch;
    if (t < burst_end) {
      return head + (t - burst_begin) / compress;
    }
    return head + (burst_end - burst_begin) / compress +
           (t - burst_end) * stretch;
  });
  const int64_t crowd_expected = crowd_trace.TotalRequests();

  VariantResult fixed_small = RunCrowd("fixed-1", cost_model, crowd_trace,
                                       /*replicas=*/1, /*autoscale=*/false, 0);
  VariantResult scaled = RunCrowd("autoscale 1..4", cost_model, crowd_trace,
                                  /*replicas=*/4, /*autoscale=*/true, 4);
  VariantResult fixed_large = RunCrowd("fixed-4", cost_model, crowd_trace,
                                       /*replicas=*/4, /*autoscale=*/false, 0);
  // TTFT SLO anchored on the uncontended fixed-large cluster.
  std::vector<double> large_ttfts;
  large_ttfts.reserve(fixed_large.outcomes.size());
  for (const RequestOutcome& o : fixed_large.outcomes) {
    large_ttfts.push_back(Ttft(o));
  }
  std::sort(large_ttfts.begin(), large_ttfts.end());
  const double slo =
      std::max(0.1, 5.0 * large_ttfts[large_ttfts.size() / 2]);
  std::printf("\n==== Flash crowd (%.0fx burst mid-trace), TTFT SLO %.0f ms "
              "====\n",
              compress, slo * 1e3);
  std::printf("%-18s %-10s %-12s %-12s %-10s %-10s\n", "variant", "completed",
              "slo_attain", "p99ttft(ms)", "ups", "downs");
  for (VariantResult* v : {&fixed_small, &scaled, &fixed_large}) {
    v->slo_attainment = SloAttainment(v->outcomes, slo);
    const AutoscaleStats& a = v->summary.elastic.autoscale;
    std::printf("%-18s %-10ld %-12.3f %-12.1f %-10ld %-10ld\n",
                v->name.c_str(),
                static_cast<long>(v->summary.cluster.completed_requests),
                v->slo_attainment, v->summary.cluster.p99_ttft * 1e3,
                static_cast<long>(a.scale_ups),
                static_cast<long>(a.scale_downs));
    CheckIdentities(*v, crowd_expected);
  }
  if (scaled.summary.elastic.autoscale.scale_ups < 1 ||
      scaled.summary.elastic.autoscale.scale_downs < 1) {
    Fail("autoscaler never scaled both directions through the flash crowd");
  }
  if (scaled.slo_attainment <= fixed_small.slo_attainment) {
    Fail("autoscaling did not improve TTFT SLO attainment over the "
         "fixed-small cluster");
  }

  // ---- Peer spill ----
  TraceOptions spill_options;
  spill_options.num_conversations = BenchConversations(smoke ? 40 : 100);
  spill_options.conversation_rate = 4.0;
  spill_options.mean_think_time = 2.0;
  spill_options.seed = 21;
  const WorkloadTrace spill_trace(ShareGptProfile(), spill_options);
  const int64_t spill_expected = spill_trace.TotalRequests();

  std::printf("\n==== Peer spill (CPU tiers below working set) ====\n");
  std::printf("%-18s %-10s %-10s %-12s %-12s %-12s\n", "variant", "completed",
              "spills", "fetched_tok", "recomputed", "cpu_hit");
  VariantResult no_spill =
      RunSpill("spill off", cost_model, spill_trace, /*spill=*/false);
  VariantResult with_spill =
      RunSpill("spill on", cost_model, spill_trace, /*spill=*/true);
  for (const VariantResult* v : {&no_spill, &with_spill}) {
    const PeerSpillStats& p = v->summary.elastic.peer_spill;
    std::printf("%-18s %-10ld %-10ld %-12ld %-12ld %-12.3f\n", v->name.c_str(),
                static_cast<long>(v->summary.cluster.completed_requests),
                static_cast<long>(p.spills),
                static_cast<long>(p.fetched_tokens),
                static_cast<long>(
                    v->summary.cluster.engine_stats.recomputed_history_tokens),
                v->summary.cluster.engine_stats.CpuCacheHitRate());
    CheckIdentities(*v, spill_expected);
  }
  if (with_spill.summary.elastic.peer_spill.spills < 1) {
    Fail("peer spill never landed a transfer despite CPU pressure");
  }
  if (with_spill.summary.elastic.peer_spill.fetched_tokens < 1) {
    Fail("no spilled segment was ever fetched back");
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << BenchJsonHeader("elastic");
    const FaultStats& hf = hard.summary.faults;
    const FaultStats& pf = probed.summary.faults;
    const HealthStats& ph = probed.summary.elastic.health;
    out << "  \"sick_replica\": {\n"
        << "    \"hard_fail_only\": {\"completed\": "
        << hard.summary.cluster.completed_requests
        << ", \"rerouted\": " << hf.rerouted_requests
        << ", \"lost_kv_tokens\": " << hf.lost_kv_tokens << "},\n"
        << "    \"probe_quarantine\": {\"completed\": "
        << probed.summary.cluster.completed_requests
        << ", \"rerouted\": " << pf.rerouted_requests
        << ", \"lost_kv_tokens\": " << pf.lost_kv_tokens
        << ", \"quarantines\": " << ph.quarantines
        << ", \"drained_requests\": " << ph.drained_requests
        << ", \"drained_kv_tokens\": " << ph.drained_kv_tokens << "}\n"
        << "  },\n";
    out << "  \"flash_crowd\": {\n    \"slo_ttft_ms\": " << slo * 1e3
        << ",\n    \"variants\": [\n";
    const std::vector<const VariantResult*> crowd = {&fixed_small, &scaled,
                                                     &fixed_large};
    for (size_t i = 0; i < crowd.size(); ++i) {
      const VariantResult& v = *crowd[i];
      const AutoscaleStats& a = v.summary.elastic.autoscale;
      out << "      {\"name\": \"" << v.name
          << "\", \"completed\": " << v.summary.cluster.completed_requests
          << ", \"slo_attainment\": " << v.slo_attainment
          << ", \"p99_ttft_ms\": " << v.summary.cluster.p99_ttft * 1e3
          << ", \"scale_ups\": " << a.scale_ups
          << ", \"scale_downs\": " << a.scale_downs << "}"
          << (i + 1 < crowd.size() ? "," : "") << "\n";
    }
    out << "    ]\n  },\n";
    const PeerSpillStats& sp = with_spill.summary.elastic.peer_spill;
    out << "  \"peer_spill\": {\"spills\": " << sp.spills
        << ", \"spilled_tokens\": " << sp.spilled_tokens
        << ", \"fetched_tokens\": " << sp.fetched_tokens
        << ", \"degraded_tokens\": " << sp.degraded_tokens
        << ", \"invalidated_tokens\": " << sp.invalidated_tokens
        << ", \"remaining_tokens\": " << sp.remaining_tokens << "}\n";
    out << "}\n";
    if (!out.good()) {
      Fail("could not write JSON");
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Main(argc, argv); }
