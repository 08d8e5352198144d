// Per-worker PCIe links of a tensor-parallel engine (paper §4.4.2).
//
// For multi-GPU models, Pensieve partitions the model — and therefore the
// KV cache — along the feature dimension across N workers, one per GPU.
// Cache decisions are made once by the scheduler; because partitioning is
// feature-wise, the *same* migration plan applies to every worker, each of
// which moves its own 1/N slice of every chunk over its own PCIe link.
// TpLinkGroup holds those N links: a transfer of per-worker `bytes` is
// scheduled on every link, and the group completion is the slowest
// worker's completion (links can be skewed). The simulator models the rest
// of tensor parallelism in GpuCostModel.

#ifndef PENSIEVE_SRC_SIM_TP_GROUP_H_
#define PENSIEVE_SRC_SIM_TP_GROUP_H_

#include <memory>
#include <vector>

#include "src/sim/pcie_link.h"

namespace pensieve {

class TpLinkGroup {
 public:
  TpLinkGroup(int num_workers, double bandwidth_per_dir, double duplex_factor,
              bool prioritize_h2d);

  int num_workers() const { return static_cast<int>(links_.size()); }
  PcieLink& link(int worker) { return *links_[static_cast<size_t>(worker)]; }

  // Schedules `bytes_per_worker` on every worker's link; returns the group
  // completion time (slowest worker).
  double ScheduleHostToDevice(double now, double bytes_per_worker);
  double ScheduleDeviceToHost(double now, double bytes_per_worker);

 private:
  std::vector<std::unique_ptr<PcieLink>> links_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_SIM_TP_GROUP_H_
