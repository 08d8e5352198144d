// KV-transfer fault-injection sweep: serving cost of an unreliable PCIe link.
//
// Replays the same trace through the Pensieve engine at increasing link
// fault rates (a mix of timeouts, stalls, partial transfers and silent
// corruption split across the PCIe AND flash (SSD) fault profiles) and
// tabulates what the faults cost: retries and backoff charged to the
// simulated clock, p99 normalized-latency inflation, and how much history
// had to be recomputed when retries exhausted and the engine degraded
// corrupted or undeliverable KV to the recompute path. The caches are
// deliberately scaled down so swap AND demote traffic — and therefore fault
// exposure on both links — is heavy.
//
// Every row is checked against two invariants from the failure model, each
// applied independently to the PCIe link and the SSD link:
//   * accounting: injected timeouts + partials + corruptions ==
//     recovered + unrecovered faults (stalls deliver late, never retry);
//   * no dropped requests: every fault rate completes exactly the requests
//     the fault-free row completes.
// A violated invariant fails the binary, which makes --smoke a real test.
//
// Accepts the pensieve_sim workload flags (--model, --dataset, --rate,
// --conversations, --think, --seed) plus --cache_scale, --cpu-scale,
// --ssd-capacity, --max_attempts and --smoke (CI-sized run: 12
// conversations, rates {0, 0.05}).

#include <cstdio>
#include <vector>

#include "bench_serving_common.h"
#include "src/common/flags.h"
#include "src/serving/driver.h"

namespace pensieve {
namespace {

// Splits one scalar fault rate across the four fault kinds so every
// mechanism (retry, late delivery, checksum rejection) stays exercised.
LinkFaultProfile MixedProfile(double rate) {
  LinkFaultProfile profile;
  profile.timeout_rate = 0.35 * rate;
  profile.stall_rate = 0.15 * rate;
  profile.partial_rate = 0.15 * rate;
  profile.corruption_rate = 0.35 * rate;
  return profile;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  AddWorkloadFlags(&flags, {.rate = 1.2, .conversations = BenchConversations(120),
                            .think = 20.0});
  flags.AddDouble("cache_scale", 0.15,
                  "KV-cache scale; small values force swap traffic");
  flags.AddDouble("cpu-scale", 0.3,
                  "extra CPU-tier multiplier; small values force demotes "
                  "into the flash tier so SSD faults are exercised");
  flags.AddDouble("ssd-capacity", 16.0,
                  "flash tier capacity in GiB; 0 turns the tier (and SSD "
                  "fault arming) off");
  flags.AddInt("max_attempts", 4, "transfer attempts before degrading");
  flags.AddInt("fault_seed", 7, "fault-injection RNG seed");
  flags.AddBool("smoke", false,
                "CI-sized run: 12 conversations, rates {0, 0.05}");
  ParseFlagsOrExit(&flags, argc, argv,
                   "bench_kv_faults: KV-transfer fault-injection sweep");
  const bool smoke = flags.GetBool("smoke");
  Workload workload = WorkloadFromFlags(flags);
  if (smoke) {
    workload.trace.num_conversations = 12;
  }
  const GpuCostModel cost_model(workload.model, A100Spec(workload.model.num_gpus));
  const WorkloadTrace trace(workload.profile, workload.trace);

  std::vector<double> rates;
  if (smoke) {
    rates = {0.0, 0.05};
  } else {
    rates = {0.0, 1e-3, 1e-2, 5e-2, 1e-1};
  }

  std::printf(
      "==== KV-transfer faults (%s, %s, cache x%.2f, ssd %.0f GiB, %ld "
      "attempts) ====\n",
      workload.model.name.c_str(), workload.profile.name.c_str(),
      flags.GetDouble("cache_scale"), flags.GetDouble("ssd-capacity"),
      static_cast<long>(flags.GetInt("max_attempts")));
  std::printf("%-10s %9s %10s %12s %9s %8s %8s %7s %9s %8s %7s %9s %11s %9s\n",
              "fault_rate", "completed", "req/s", "p99 ms/tok", "injected",
              "retries", "recov", "unrec", "ssd_inj", "ssd_rec", "ssd_unr",
              "degraded", "recompute+", "backoff_s");

  int64_t baseline_completed = -1;
  int failures = 0;
  for (double rate : rates) {
    EngineOverrides overrides;
    overrides.cache_scale = flags.GetDouble("cache_scale");
    overrides.cpu_cache_scale = flags.GetDouble("cpu-scale");
    overrides.ssd_capacity_gb = flags.GetDouble("ssd-capacity");
    overrides.pcie_fault_profile = MixedProfile(rate);
    if (overrides.ssd_capacity_gb > 0.0) {
      // Arm the flash link with the same mixed profile; its injector draws
      // from a decorrelated stream, so this never shifts the PCIe faults.
      overrides.ssd_fault_profile = MixedProfile(rate);
    }
    overrides.fault_retry.max_attempts =
        static_cast<int32_t>(flags.GetInt("max_attempts"));
    overrides.fault_seed = static_cast<uint64_t>(flags.GetInt("fault_seed"));
    auto engine = MakeEngine(SystemKind::kPensieve, cost_model, overrides);
    const ServingSummary s = RunServingExperiment(engine.get(), trace);

    const LinkFaultStats& lf = s.engine_stats.link_faults;
    const LinkFaultStats& sf = s.engine_stats.ssd_link_faults;
    std::printf(
        "%-10.3g %9ld %10.3f %12.1f %9ld %8ld %8ld %7ld %9ld %8ld %7ld %9ld "
        "%11ld %9.3f\n",
        rate, static_cast<long>(s.completed_requests), s.throughput_rps,
        s.p99_normalized_latency * 1e3, static_cast<long>(lf.InjectedFaults()),
        static_cast<long>(lf.retries), static_cast<long>(lf.recovered_faults),
        static_cast<long>(lf.unrecovered_faults),
        static_cast<long>(sf.InjectedFaults()),
        static_cast<long>(sf.recovered_faults),
        static_cast<long>(sf.unrecovered_faults),
        static_cast<long>(s.engine_stats.fault_degraded_admissions),
        static_cast<long>(s.engine_stats.fault_recompute_tokens),
        lf.retry_backoff_seconds + sf.retry_backoff_seconds);

    // Invariant: every retryable fault is accounted recovered or
    // unrecovered — independently on each armed link.
    const struct {
      const char* link;
      const LinkFaultStats& f;
    } links[] = {{"pcie", lf}, {"ssd", sf}};
    for (const auto& [link, f] : links) {
      const int64_t retryable =
          f.injected_timeouts + f.injected_partials + f.injected_corruptions;
      if (retryable != f.recovered_faults + f.unrecovered_faults) {
        std::fprintf(stderr,
                     "FAIL rate=%g link=%s: fault accounting leak (%ld "
                     "retryable != %ld recovered + %ld unrecovered)\n",
                     rate, link, static_cast<long>(retryable),
                     static_cast<long>(f.recovered_faults),
                     static_cast<long>(f.unrecovered_faults));
        ++failures;
      }
    }
    // Invariant: faults degrade latency, never drop requests.
    if (baseline_completed < 0) {
      baseline_completed = s.completed_requests;
    } else if (s.completed_requests != baseline_completed) {
      std::fprintf(stderr,
                   "FAIL rate=%g: completed %ld != fault-free %ld (request "
                   "dropped by a KV fault)\n",
                   rate, static_cast<long>(s.completed_requests),
                   static_cast<long>(baseline_completed));
      ++failures;
    }
  }
  if (failures > 0) {
    return 1;
  }
  std::printf("\ninvariants held: fault accounting balanced on both links, "
              "no requests dropped at any rate\n");
  return 0;
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Run(argc, argv); }
