// §5 ablation: "prioritize data retrieval over eviction".
//
// The paper measured an 18-20% per-direction throughput drop when PCIe
// transfers run full duplex, and therefore makes eviction traffic wait for
// in-flight swap-ins. This bench shows (1) the link-level effect and (2) the
// end-to-end effect of the waiting mechanism on a swap-heavy workload.

#include <cstdio>

#include "bench/bench_serving_common.h"
#include "src/common/flags.h"
#include "src/model/model_config.h"
#include "src/sim/hardware.h"
#include "src/sim/pcie_link.h"

namespace pensieve {
namespace {

// --smoke self-check: prioritizing swap-ins must never slow the swap-in
// (and must push the eviction behind it).
void CheckPriorityInvariant(double restore_duplex, double restore_prio,
                            double evict_duplex, double evict_prio) {
  if (restore_prio > restore_duplex || evict_prio < evict_duplex) {
    std::fprintf(stderr,
                 "FAIL: swap-in priority made restore slower (%.3f -> %.3f ms) "
                 "or eviction faster (%.3f -> %.3f ms)\n", restore_duplex * 1e3,
                 restore_prio * 1e3, evict_duplex * 1e3, evict_prio * 1e3);
    std::exit(1);
  }
}

void LinkLevel(bool smoke) {
  std::printf("==== PCIe link model: swap-in completion time for 1 GB with a "
              "concurrent 1 GB eviction ====\n");
  std::printf("%-34s %-22s %-22s\n", "mode", "swap_in_done(ms)", "eviction_done(ms)");
  double restore_duplex = 0.0;
  double evict_duplex = 0.0;
  {
    PcieLink link(25e9, 0.8, /*prioritize_h2d=*/false);
    evict_duplex = link.ScheduleDeviceToHost(0.0, 1e9);
    restore_duplex = link.ScheduleHostToDevice(0.0, 1e9);
    std::printf("%-34s %-22.1f %-22.1f\n", "full duplex (no priority)",
                restore_duplex * 1e3, evict_duplex * 1e3);
  }
  {
    PcieLink link(25e9, 0.8, /*prioritize_h2d=*/true);
    const double restore = link.ScheduleHostToDevice(0.0, 1e9);
    const double evict = link.ScheduleDeviceToHost(0.0, 1e9);
    std::printf("%-34s %-22.1f %-22.1f\n", "swap-in prioritized (Pensieve)",
                restore * 1e3, evict * 1e3);
    if (smoke) {
      CheckPriorityInvariant(restore_duplex, restore, evict_duplex, evict);
    }
  }
  std::printf("\n");
}

void EndToEnd(bool smoke) {
  const GpuCostModel cost_model(Opt13BConfig(), A100Spec(1));
  const std::vector<double> rates =
      smoke ? std::vector<double>{2.0} : std::vector<double>{1.0, 2.0, 3.0};
  std::printf("==== End-to-end: swap-in priority on/off, opt-13b / sharegpt, "
              "cache scaled to 25%% (swap-heavy) ====\n");
  for (bool prioritize : {true, false}) {
    SweepOptions options;
    options.num_conversations = BenchConversations(smoke ? 12 : 200);
    options.mean_think_time = 60.0;
    options.overrides.cache_scale = 0.25;
    options.overrides.prioritize_swap_in = prioritize;
    PrintSweep(prioritize ? "pensieve (swap-in prioritized)"
                          : "pensieve (full-duplex PCIe)",
               RateSweep(SystemKind::kPensieve, cost_model, ShareGptProfile(),
                         rates, options));
  }
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) {
  pensieve::FlagParser flags;
  flags.AddBool("smoke", false, "CI-sized run with the swap-in priority self-check");
  pensieve::ParseFlagsOrExit(&flags, argc, argv,
                             "bench_pcie_duplex: PCIe duplex ablation");
  const bool smoke = flags.GetBool("smoke");
  pensieve::LinkLevel(smoke);
  pensieve::EndToEnd(smoke);
  return 0;
}
