// Shared helpers for the serving-figure benchmark binaries.

#ifndef PENSIEVE_BENCH_BENCH_SERVING_COMMON_H_
#define PENSIEVE_BENCH_BENCH_SERVING_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "src/common/thread_pool.h"
#include "src/core/experiment.h"
#include "src/tensor/packed_matrix.h"

namespace pensieve {

// Detected host core count for BENCH_*.json headers. Containers can make
// std::thread::hardware_concurrency() report 1 (or 0) while the worker pool
// is sized wider via PENSIEVE_THREADS — the old bench_gemm header recorded
// that bogus 1 next to "threads": 8 entries. Take the max of the visible-CPU
// count and the pool default so the header always covers the sweep that ran.
inline int BenchDetectedCores() {
  int cores = static_cast<int>(std::thread::hardware_concurrency());
#if defined(_SC_NPROCESSORS_ONLN)
  cores = std::max(cores, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
#endif
  return std::max(cores, ThreadPool::DefaultThreads());
}

// Opening fields shared by every BENCH_*.json writer: bench name, the
// detected core count, and the GEMM ISA this process dispatched to (avx2 or
// sse) — what a reader needs to interpret thread counts and absolute
// per-call times across hosts. Callers append their own fields after it.
inline std::string BenchJsonHeader(const char* bench) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"%s\",\n  \"nproc\": %d,\n  \"isa\": \"%s\",\n",
                bench, BenchDetectedCores(), GemmIsaName());
  return std::string(buf);
}

// Number of conversations per experiment; override with PENSIEVE_BENCH_CONVS
// for quicker smoke runs.
inline int64_t BenchConversations(int64_t default_value = 300) {
  const char* env = std::getenv("PENSIEVE_BENCH_CONVS");
  if (env != nullptr) {
    return std::strtoll(env, nullptr, 10);
  }
  return default_value;
}

inline void RunSystemsSweep(const std::string& title, const GpuCostModel& cost_model,
                            const DatasetProfile& profile,
                            const std::vector<SystemKind>& systems,
                            const std::vector<double>& rates,
                            const SweepOptions& base_options) {
  std::printf("==== %s ====\n", title.c_str());
  for (SystemKind kind : systems) {
    std::vector<SweepPoint> points =
        RateSweep(kind, cost_model, profile, rates, base_options);
    PrintSweep(SystemKindName(kind), points);
  }
}

}  // namespace pensieve

#endif  // PENSIEVE_BENCH_BENCH_SERVING_COMMON_H_
