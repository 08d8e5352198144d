#include "perfbench/driver/report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>

#include "src/common/thread_pool.h"
#include "src/tensor/packed_matrix.h"

namespace perfbench {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    notes.push_back("check failed: " + what);
  }
}

namespace {

std::string Escaped(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + Escaped(m.name) + "\": {\"value\": " +
           Number(m.value) + ", \"unit\": \"" + Escaped(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::string HostHeaderJson(const RunOptions& options, double trace_overhead_share,
                           const std::vector<std::string>& notes) {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  std::string out = "{\"host\": {\"nproc\": " + std::to_string(cores);
  out += ", \"isa\": \"" + std::string(pensieve::GemmIsaName()) + "\"";
  out += ", \"pool_threads\": " +
         std::to_string(pensieve::ThreadPool::Global().num_threads());
  out += ", \"workload\": \"" + Escaped(options.workload) + "\"";
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + Number(options.seconds);
  out += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  out += ", \"trace_overhead_share\": " +
         (options.trace ? Number(trace_overhead_share) : std::string("null"));
  out += "}, \"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + Escaped(notes[i]) + "\"";
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
