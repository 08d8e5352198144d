// The benchmark's own checks.
//
// 1. Parity: a one-replica RunClusterExperiment — the path sim-sweep drives —
//    gives the same simulated metrics as the single-engine
//    RunServingExperiment on the same trace.
// 2. The engine decorator is invisible: a decorated one-replica run equals an
//    undecorated one.
//
// Exits 0 when every check passes, 1 otherwise.

#include <cstdio>
#include <memory>
#include <string>

#include "perfbench/driver/sim_workloads.h"
#include "perfbench/driver/traced_engine.h"
#include "src/cluster/cluster_driver.h"
#include "src/core/experiment.h"
#include "src/serving/driver.h"
#include "src/sim/cost_model.h"
#include "src/sim/hardware.h"
#include "src/workload/trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

}  // namespace

int main() {
  using namespace pensieve;
  const ModelConfig model = Opt13BConfig();
  const GpuCostModel cost_model(model, A100Spec(model.num_gpus));
  TraceOptions t;
  t.num_conversations = 120;
  t.conversation_rate = 2.0;
  t.mean_think_time = 20.0;
  t.seed = 7;
  const WorkloadTrace trace(ShareGptProfile(), t);

  std::unique_ptr<Engine> single = MakeEngine(SystemKind::kPensieve, cost_model);
  const ServingSummary reference = RunServingExperiment(single.get(), trace);

  const ClusterSummary cluster = RunClusterExperiment(
      [&](int32_t) { return MakeEngine(SystemKind::kPensieve, cost_model); }, trace);
  std::string why;
  Expect(perfbench::SameSimulatedMetrics(reference, cluster.cluster, &why),
         "N=1 RunClusterExperiment == RunServingExperiment " + why);
  Expect(reference.completed_requests == trace.TotalRequests(),
         "every trace request completes");

  perfbench::ServingCallStats calls;
  perfbench::SpanRecorder spans;
  const ClusterSummary decorated = RunClusterExperiment(
      [&](int32_t id) -> std::unique_ptr<Engine> {
        return std::make_unique<perfbench::TracedEngine>(
            MakeEngine(SystemKind::kPensieve, cost_model), id, &calls, &spans);
      },
      trace);
  Expect(perfbench::SameSimulatedMetrics(cluster.cluster, decorated.cluster, &why),
         "decorated run == undecorated run " + why);
  Expect(static_cast<int64_t>(calls.step_wall_us.count()) ==
             decorated.cluster.engine_stats.steps + calls.idle_steps,
         "decorator saw every Step call");
  Expect(!spans.spans().empty(), "spans recorded");
  return failures == 0 ? 0 : 1;
}
