// Cluster routing-policy comparison.
//
// For N in {1, 2, 4} replicas, replays the same trace through each routing
// policy and tabulates throughput, tail latency, cluster cache-hit rate and
// migration traffic. The workload scales with the replica count (arrival
// rate and conversation count proportional to N) so every cluster size runs
// at comparable per-replica load; with 1 replica every policy degenerates to
// the single-engine experiment, which anchors the table.
//
// Accepts the pensieve_sim workload flags (--model, --dataset, --rate,
// --conversations, --think, --seed); --rate and --conversations set the
// per-replica baseline.

#include <cstdio>
#include <vector>

#include "bench_serving_common.h"
#include "src/cluster/cluster_driver.h"
#include "src/common/flags.h"
#include "src/workload/trace.h"

namespace pensieve {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  AddWorkloadFlags(&flags, {.rate = 0.6,
                            .conversations = BenchConversations(300),
                            .conversations_help = "per-replica conversation count",
                            .think = 20.0});
  ParseFlagsOrExit(&flags, argc, argv,
                   "bench_cluster_routing: routing-policy comparison");
  const Workload workload = WorkloadFromFlags(flags);
  const GpuCostModel cost_model(workload.model, A100Spec(workload.model.num_gpus));

  const RouterPolicy policies[] = {RouterPolicy::kRoundRobin,
                                   RouterPolicy::kLeastLoaded,
                                   RouterPolicy::kSessionAffinity};

  std::printf("==== cluster routing (%s, %s) ====\n", workload.model.name.c_str(),
              workload.profile.name.c_str());
  for (const int32_t n : {1, 2, 4}) {
    TraceOptions trace_options = workload.trace;
    trace_options.num_conversations *= n;
    trace_options.conversation_rate *= n;
    const WorkloadTrace trace(workload.profile, trace_options);

    std::printf("\n-- %d replica(s), %ld conversations at %.2f conv/s --\n", n,
                static_cast<long>(trace_options.num_conversations),
                trace_options.conversation_rate);
    std::printf("%-17s %10s %12s %9s %12s %10s\n", "router", "req/s",
                "p99 ms/tok", "hit rate", "migrated MB", "imbalance");
    for (const RouterPolicy policy : policies) {
      ClusterOptions options;
      options.num_replicas = n;
      options.router.policy = policy;
      const ClusterSummary s = RunClusterExperiment(
          [&](int32_t) {
            return MakeEngine(SystemKind::kPensieve, cost_model);
          },
          trace, options);
      std::printf("%-17s %10.3f %12.1f %9.3f %12.2f %10.2f\n",
                  RouterPolicyName(policy), s.cluster.throughput_rps,
                  s.cluster.p99_normalized_latency * 1e3,
                  s.cluster.engine_stats.CacheHitRate(),
                  s.migration.migrated_bytes / 1e6, s.load_imbalance);
    }
  }
  return 0;
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Run(argc, argv); }
