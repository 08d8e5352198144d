// Result plumbing shared by the benchmark workloads: wall clock, peak memory,
// and the JSON lines the driver prints. Order statistics come from
// pensieve::SampleStats.

#ifndef PERFBENCH_DRIVER_REPORT_H_
#define PERFBENCH_DRIVER_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// High-water resident set size of this process, in MB.
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One workload run's outcome. `attempted`/`failed` count operations (trace
// requests, chat turns) plus output checks; every failed check is one
// failed operation.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Free-form notes printed on the info line (check failures, counts).
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records one output check; a failing check marks the run incorrect.
  void Check(bool ok, const std::string& what);
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where a traced run writes its Chrome trace-event JSON.
  std::string trace_path;
  // When the process started (setup_s is measured from here).
  SteadyClock::time_point process_start;
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} on one
// line, every value printed with all its digits.
std::string ResultJson(const RunResult& result);

// {"host": {...}} line: core count, dispatched GEMM ISA, pool threads, seed,
// and the tracing overhead (null on untraced runs).
std::string HostHeaderJson(const RunOptions& options, double trace_overhead_share,
                           const std::vector<std::string>& notes);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPORT_H_
