#include "src/serving/driver.h"

#include <memory>
#include <utility>

#include "src/cluster/cluster_driver.h"
#include "src/common/logging.h"

namespace pensieve {

ServingSummary RunServingExperiment(Engine* engine, const WorkloadTrace& trace,
                                    const DriverOptions& options) {
  PENSIEVE_CHECK(engine != nullptr);
  // The caller keeps its engine (and inspects it afterwards); the replica
  // gets a handle that does not own it.
  const std::shared_ptr<Engine> borrowed(engine, [](Engine*) {});
  std::vector<ClusterStepTraceEntry> steps;
  ClusterOptions cluster;
  cluster.max_steps = options.max_steps;
  cluster.outcomes = options.outcomes;
  if (options.step_trace != nullptr) {
    cluster.step_trace = &steps;
  }
  ClusterSummary summary = RunClusterExperiment(
      [&](int32_t) { return borrowed; }, trace, cluster);
  for (const ClusterStepTraceEntry& entry : steps) {
    options.step_trace->push_back(entry.step);
  }
  return std::move(summary.replicas[0]);
}

}  // namespace pensieve
