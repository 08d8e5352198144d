// Replica fault-injection recovery cost, per routing policy.
//
// Replays the same trace through each routing policy twice — once untouched
// and once with replica 0 killed partway through the arrival process and
// (optionally) recovered later — and tabulates what the failure cost:
// requests re-routed off the dead replica, KV tokens lost (recomputed at the
// conversations' new homes), extra history recompute versus the clean run,
// and the p99 normalized-latency inflation. Session affinity concentrates
// whole conversations on their home replica, so it loses the most KV per
// crash; round-robin spreads each conversation's turns and pays recompute
// everywhere instead. This bench puts numbers on that trade.
//
// Accepts the pensieve_sim workload flags (--model, --dataset, --rate,
// --conversations, --think, --seed) plus --replicas, --fail_frac and
// --recover_frac (fractions of the conversation-arrival span; recover_frac
// >= 1 disables recovery so the cluster finishes the run a replica short).

#include <cstdio>
#include <vector>

#include "bench_serving_common.h"
#include "src/cluster/cluster_driver.h"
#include "src/common/flags.h"
#include "src/serving/experiment_core.h"
#include "src/workload/trace.h"

namespace pensieve {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  AddWorkloadFlags(&flags, {.rate = 1.2, .conversations = BenchConversations(300),
                            .think = 20.0});
  flags.AddInt("replicas", 2, "cluster size");
  flags.AddDouble("fail_frac", 0.3,
                  "kill replica 0 at this fraction of the arrival span");
  flags.AddDouble("recover_frac", 0.7,
                  "recover replica 0 at this fraction of the arrival span "
                  "(>= 1 disables recovery)");
  ParseFlagsOrExit(&flags, argc, argv,
                   "bench_fault_recovery: replica crash recovery cost");
  const Workload workload = WorkloadFromFlags(flags);
  const int32_t num_replicas = static_cast<int32_t>(flags.GetInt("replicas"));
  if (num_replicas < 2) {
    ExitWithUsage(flags, "--replicas must be >= 2 (someone must survive)");
  }
  const GpuCostModel cost_model(workload.model, A100Spec(workload.model.num_gpus));
  const WorkloadTrace trace(workload.profile, workload.trace);

  const double span = ArrivalSpan(trace);
  const double fail_time = flags.GetDouble("fail_frac") * span;
  const double recover_frac = flags.GetDouble("recover_frac");
  const bool with_recovery = recover_frac < 1.0;
  const double recover_time = recover_frac * span;

  std::printf("==== fault recovery (%s, %s, %d replicas) ====\n",
              workload.model.name.c_str(), workload.profile.name.c_str(), num_replicas);
  std::printf("replica 0 dies at t=%.1f s", fail_time);
  if (with_recovery) {
    std::printf(", recovers at t=%.1f s", recover_time);
  }
  std::printf(" (arrival span %.1f s)\n\n", span);
  std::printf("%-17s %10s %12s %12s %10s %12s %11s\n", "router", "req/s",
              "p99 ms/tok", "p99 infl.", "rerouted", "recompute+", "kv lost");

  const RouterPolicy policies[] = {RouterPolicy::kRoundRobin,
                                   RouterPolicy::kLeastLoaded,
                                   RouterPolicy::kSessionAffinity};
  for (const RouterPolicy policy : policies) {
    ClusterOptions base;
    base.num_replicas = num_replicas;
    base.router.policy = policy;
    auto make = [&](int32_t) {
      return MakeEngine(SystemKind::kPensieve, cost_model);
    };
    const ClusterSummary clean = RunClusterExperiment(make, trace, base);

    ClusterOptions faulted = base;
    faulted.faults.push_back(ReplicaFault{fail_time, 0, /*recover=*/false});
    if (with_recovery) {
      faulted.faults.push_back(ReplicaFault{recover_time, 0, /*recover=*/true});
    }
    const ClusterSummary crashed = RunClusterExperiment(make, trace, faulted);

    const double p99_clean = clean.cluster.p99_normalized_latency * 1e3;
    const double p99_crashed = crashed.cluster.p99_normalized_latency * 1e3;
    const int64_t recompute_delta =
        crashed.cluster.engine_stats.recomputed_history_tokens -
        clean.cluster.engine_stats.recomputed_history_tokens;
    std::printf("%-17s %10.3f %12.1f %11.2fx %10ld %12ld %11ld\n",
                RouterPolicyName(policy), crashed.cluster.throughput_rps,
                p99_crashed, p99_clean > 0.0 ? p99_crashed / p99_clean : 0.0,
                static_cast<long>(crashed.faults.rerouted_requests),
                static_cast<long>(recompute_delta),
                static_cast<long>(crashed.faults.lost_kv_tokens));
  }
  return 0;
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Run(argc, argv); }
