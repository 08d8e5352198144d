// Prefill/decode disaggregation sweep (DESIGN.md §13).
//
// Runs a prefill-heavy trace (long prompts, short responses — the regime
// where a colocated cluster's decode steps queue behind multi-thousand-token
// prefills) through a colocated baseline and disaggregated splits of the
// same replica count, and reports TTFT / inter-token latency side by side.
// The disaggregated rows should show materially better p99 inter-token
// latency: decode replicas only ever prefill one-token continuations, so no
// decode step waits out a long prefill.
//
// Self-checks (always on; a violation exits nonzero, so the --smoke ctest
// entry is a real test):
//  * every variant completes every request (degradation contract: handoff
//    breakage may cost recompute, never a request);
//  * streams overlap: the pipelined stream finishes no later than the
//    equivalent blocking transfer issued at prefill completion, so
//    aggregate overlap_saved >= 0 — and > 0 whenever streams ran;
//  * with NIC faults armed, the injector's accounting identity holds and
//    still nothing is dropped;
//  * the best disaggregated split beats the colocated baseline on p99
//    inter-token latency.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_serving_common.h"
#include "src/cluster/cluster_driver.h"
#include "src/common/flags.h"
#include "src/model/model_config.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

// Long prompts, short answers: retrieval-augmented / document-QA shape,
// the prefill:decode ratio the paper's chat datasets do not stress.
DatasetProfile PrefillHeavyProfile() {
  DatasetProfile profile;
  profile.name = "prefill-heavy";
  profile.mean_turns = 3.0;
  profile.mean_input_len = 1400.0;
  profile.input_len_cv = 0.6;
  profile.mean_output_len = 48.0;
  profile.output_len_cv = 0.5;
  return profile;
}

struct VariantResult {
  std::string name;
  int32_t prefill_replicas = 0;  // 0 = colocated
  ClusterSummary summary;
};

VariantResult RunVariant(const std::string& name, const GpuCostModel& cost_model,
                         const WorkloadTrace& trace, int32_t num_replicas,
                         int32_t prefill_replicas,
                         const LinkFaultProfile& nic_faults) {
  ClusterOptions options;
  options.num_replicas = num_replicas;
  options.router.policy = RouterPolicy::kSessionAffinity;
  options.nic_fault_profile = nic_faults;
  options.fault_seed = 1234;
  if (prefill_replicas > 0) {
    options.disagg.enabled = true;
    options.disagg.prefill_replicas = prefill_replicas;
    options.disagg.min_handoff_tokens = 256;
    options.disagg.stream_layers = cost_model.model().num_layers;
  }
  EngineOverrides overrides;
  overrides.cache_scale = 0.5;
  VariantResult result;
  result.name = name;
  result.prefill_replicas = prefill_replicas;
  result.summary = RunClusterExperiment(
      [&](int32_t replica_id) {
        EngineOverrides replica_overrides = overrides;
        replica_overrides.fault_seed =
            1234 + 0x9E3779B9ull * static_cast<uint64_t>(replica_id + 1);
        return MakeEngine(SystemKind::kPensieve, cost_model, replica_overrides);
      },
      trace, options);
  return result;
}

void PrintVariant(const VariantResult& v) {
  const ServingSummary& s = v.summary.cluster;
  std::printf("%-22s %-10ld %-12.3f %-11.1f %-11.1f %-11.2f %-11.2f %-8ld %-12.1f\n",
              v.name.c_str(), static_cast<long>(s.completed_requests),
              s.throughput_rps, s.mean_ttft * 1e3, s.p99_ttft * 1e3,
              s.mean_itl * 1e3, s.p99_itl * 1e3,
              static_cast<long>(v.summary.handoff.streams),
              v.summary.handoff.overlap_saved_seconds * 1e3);
  if (std::getenv("PENSIEVE_BENCH_VERBOSE") != nullptr) {
    for (size_t i = 0; i < v.summary.replicas.size(); ++i) {
      const ServingSummary& r = v.summary.replicas[i];
      std::printf("    replica %zu: %ld req, %.1f s busy, itl %.2f/%.2f ms, "
                  "ttft %.1f ms\n", i, static_cast<long>(r.completed_requests),
                  r.engine_stats.busy_seconds, r.mean_itl * 1e3,
                  r.p99_itl * 1e3, r.mean_ttft * 1e3);
    }
    std::printf("    stream wait %.1f ms over %ld streams\n",
                v.summary.handoff.stream_wait_seconds * 1e3,
                static_cast<long>(v.summary.handoff.streams));
  }
}

void Fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  std::exit(1);
}

void CheckVariant(const VariantResult& v, int64_t expected_completed) {
  if (v.summary.cluster.completed_requests != expected_completed) {
    std::fprintf(stderr, "FAIL: %s completed %ld of %ld requests\n",
                 v.name.c_str(),
                 static_cast<long>(v.summary.cluster.completed_requests),
                 static_cast<long>(expected_completed));
    std::exit(1);
  }
  const HandoffStats& h = v.summary.handoff;
  if (h.overlap_saved_seconds < 0.0) {
    Fail("a pipelined stream finished after its blocking equivalent");
  }
  if (v.prefill_replicas > 0 && h.streams > 0 && h.failed_streams == 0 &&
      h.overlap_saved_seconds <= 0.0) {
    Fail("fault-free streams saved no overlap vs blocking transfers");
  }
  const LinkFaultStats& nic = v.summary.nic_link_faults;
  if (nic.injected_timeouts + nic.injected_partials + nic.injected_corruptions !=
      nic.recovered_faults + nic.unrecovered_faults) {
    Fail("NIC fault accounting identity violated");
  }
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddBool("smoke", false, "CI-sized run with the self-checks");
  flags.AddString("json", "", "output JSON path (empty = no JSON)");
  ParseFlagsOrExit(&flags, argc, argv,
                   "bench_disagg: prefill/decode disaggregation sweep");
  const bool smoke = flags.GetBool("smoke");
  const std::string json_path = flags.GetString("json");

  const GpuCostModel cost_model(Opt13BConfig(), A100Spec(1));
  TraceOptions trace_options;
  trace_options.num_conversations = BenchConversations(smoke ? 16 : 120);
  trace_options.conversation_rate = 2.0;
  trace_options.mean_think_time = 10.0;
  trace_options.seed = 42;
  const WorkloadTrace trace(PrefillHeavyProfile(), trace_options);

  const int32_t replicas = 4;
  std::printf("==== Prefill/decode disaggregation: %d replicas, "
              "prefill-heavy trace (%ld conversations) ====\n",
              replicas, static_cast<long>(trace_options.num_conversations));
  std::printf("%-22s %-10s %-12s %-11s %-11s %-11s %-11s %-8s %-12s\n",
              "variant", "completed", "tput(req/s)", "ttft(ms)", "p99ttft",
              "itl(ms)", "p99itl", "streams", "overlap(ms)");

  std::vector<VariantResult> results;
  results.push_back(RunVariant("colocated", cost_model, trace, replicas, 0,
                               LinkFaultProfile{}));
  results.push_back(RunVariant("disagg 1:3", cost_model, trace, replicas, 1,
                               LinkFaultProfile{}));
  results.push_back(RunVariant("disagg 2:2", cost_model, trace, replicas, 2,
                               LinkFaultProfile{}));
  // Same 1:3 split with the NIC misbehaving mid-stream: chunk stalls,
  // partial deliveries and corruption retries. Slower, never lossy.
  LinkFaultProfile faulty;
  faulty.stall_rate = 0.05;
  faulty.partial_rate = 0.05;
  faulty.corruption_rate = 0.03;
  results.push_back(RunVariant("disagg 1:3 +faults", cost_model, trace,
                               replicas, 1, faulty));

  const int64_t expected = results.front().summary.cluster.completed_requests;
  for (const VariantResult& v : results) {
    PrintVariant(v);
    CheckVariant(v, expected);
  }

  const VariantResult& colocated = results[0];
  double best_p99_itl = results[1].summary.cluster.p99_itl;
  for (size_t i = 1; i + 1 < results.size(); ++i) {
    best_p99_itl = std::min(best_p99_itl, results[i].summary.cluster.p99_itl);
  }
  if (results[1].summary.handoff.streams == 0) {
    Fail("disaggregated run never streamed (threshold or routing broken)");
  }
  if (best_p99_itl >= colocated.summary.cluster.p99_itl) {
    Fail("disaggregation did not improve p99 inter-token latency on a "
         "prefill-heavy trace");
  }
  std::printf("\nbest disagg p99 ITL %.2f ms vs colocated %.2f ms\n",
              best_p99_itl * 1e3, colocated.summary.cluster.p99_itl * 1e3);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << BenchJsonHeader("disagg");
    out << "  \"replicas\": " << replicas << ",\n";
    out << "  \"variants\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const VariantResult& v = results[i];
      const ServingSummary& s = v.summary.cluster;
      out << "    {\"name\": \"" << v.name << "\", \"prefill_replicas\": "
          << v.prefill_replicas << ", \"completed\": " << s.completed_requests
          << ", \"throughput_rps\": " << s.throughput_rps
          << ", \"mean_ttft_ms\": " << s.mean_ttft * 1e3
          << ", \"p99_ttft_ms\": " << s.p99_ttft * 1e3
          << ", \"mean_itl_ms\": " << s.mean_itl * 1e3
          << ", \"p99_itl_ms\": " << s.p99_itl * 1e3
          << ", \"streams\": " << v.summary.handoff.streams
          << ", \"failed_streams\": " << v.summary.handoff.failed_streams
          << ", \"overlap_saved_ms\": "
          << v.summary.handoff.overlap_saved_seconds * 1e3 << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    if (!out.good()) {
      Fail("could not write JSON");
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Main(argc, argv); }
