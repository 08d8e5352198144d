// The two simulated workloads. Both drive the library through
// RunClusterExperiment (sim-sweep with one replica), building engines with
// MakeEngine, so they depend on neither RateSweep nor the single-engine
// driver.
//
//   sim-sweep    one Pensieve engine (opt-13b, 1x A100, ShareGPT, 60 s think
//                time), a fresh engine per rate, swept from below the
//                latency knee into overload.
//   sim-cluster  4 replicas: 1 prefill + 3 decode (disaggregated), 8 shared
//                512-token templates, a flash tier behind a shrunk CPU tier,
//                int8 KV, health probes, one replica crash and recovery.

#ifndef PERFBENCH_DRIVER_SIM_WORKLOADS_H_
#define PERFBENCH_DRIVER_SIM_WORKLOADS_H_

#include <string>

#include "perfbench/driver/report.h"
#include "src/serving/metrics.h"

namespace perfbench {

// Runs "sim-sweep" or "sim-cluster" (options.workload).
RunResult RunSimWorkload(const RunOptions& options);

// True when two summaries agree on every simulated quantity the benchmark
// reports or checks (exact floating-point equality); `why` names the first
// difference.
bool SameSimulatedMetrics(const pensieve::ServingSummary& a,
                          const pensieve::ServingSummary& b, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SIM_WORKLOADS_H_
