// Repository benchmark driver.
//
//   perfbench --workload <sim-sweep|sim-cluster> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-path <file>]
//
// Prints a host-header JSON line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// the workload, or with --trace 1 its per-layer metrics from a separate
// traced run (and a Chrome trace-event file at --trace-path). A run does a
// fixed amount of work, sized to take about the benchmark's declared run
// length; --seconds is recorded in the header. Exits 1 when an output check
// failed, 2 on bad arguments.

#include <cstdio>
#include <string>

#include "perfbench/driver/report.h"
#include "perfbench/driver/sim_workloads.h"
#include "src/common/flags.h"

namespace {

int Usage(const std::string& why, const pensieve::FlagParser& flags) {
  std::fprintf(stderr, "perfbench: %s\nflags:\n%s", why.c_str(), flags.Help().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = perfbench::SteadyClock::now();
  pensieve::FlagParser flags;
  flags.AddString("workload", "", "sim-sweep or sim-cluster");
  flags.AddInt("seed", 1, "seed the workload's inputs are generated from");
  flags.AddDouble("seconds", 10.0, "declared run length, recorded in the header");
  flags.AddInt("trace", 0, "1: traced run reporting the per-layer metrics");
  flags.AddString("trace-path", "", "Chrome trace-event output of a traced run");
  const pensieve::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    return Usage(status.message(), flags);
  }
  if (!flags.positional().empty()) {
    return Usage("unexpected argument '" + flags.positional().front() + "'", flags);
  }
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.seconds = flags.GetDouble("seconds");
  const int64_t trace = flags.GetInt("trace");
  options.trace = trace == 1;
  options.trace_path = flags.GetString("trace-path");
  if (trace != 0 && trace != 1) {
    return Usage("--trace takes 0 or 1", flags);
  }
  if (options.seconds <= 0.0) {
    return Usage("--seconds must be positive", flags);
  }
  if (options.workload != "sim-sweep" && options.workload != "sim-cluster") {
    return Usage("unknown workload '" + options.workload + "'", flags);
  }
  if (options.trace_path.empty()) {
    options.trace_path = ".bench_build/traces/" + options.workload + ".json";
  }
  const perfbench::RunResult result = perfbench::RunSimWorkload(options);

  double overhead = 0.0;
  for (const perfbench::Metric& m : result.metrics) {
    if (m.name == "bench.trace_overhead_share") {
      overhead = m.value;
    }
  }
  std::printf("%s\n", perfbench::HostHeaderJson(options, overhead, result.notes).c_str());
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
