// Virtual-time serving experiment on one engine.
//
// Replays a WorkloadTrace against an engine: new conversations arrive by the
// pre-sampled Poisson process; a conversation's next turn arrives only after
// the engine finishes the previous turn plus the sampled user think time
// (causal dependency, paper §6.1). The run is a one-replica
// RunClusterExperiment (src/cluster/cluster_driver.h) on the caller's engine,
// so single-engine and cluster numbers come from the same event loop.

#ifndef PENSIEVE_SRC_SERVING_DRIVER_H_
#define PENSIEVE_SRC_SERVING_DRIVER_H_

#include <vector>

#include "src/serving/engine.h"
#include "src/serving/metrics.h"
#include "src/serving/telemetry.h"
#include "src/workload/trace.h"

namespace pensieve {

struct DriverOptions {
  // Safety valve on simulated steps (0 = unlimited).
  int64_t max_steps = 0;
  // When non-null, receives one entry per scheduler iteration.
  std::vector<StepTraceEntry>* step_trace = nullptr;
  // When non-null, receives every request outcome (for CSV export).
  std::vector<RequestOutcome>* outcomes = nullptr;
};

// Runs the trace on `engine`, which stays the caller's: it is neither
// destroyed nor replaced, so its state can be inspected after the run.
ServingSummary RunServingExperiment(Engine* engine, const WorkloadTrace& trace,
                                    const DriverOptions& options = {});

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SERVING_DRIVER_H_
