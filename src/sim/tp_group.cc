#include "src/sim/tp_group.h"

#include <algorithm>

#include "src/common/logging.h"

namespace pensieve {

TpLinkGroup::TpLinkGroup(int num_workers, double bandwidth_per_dir,
                         double duplex_factor, bool prioritize_h2d) {
  PENSIEVE_CHECK_GT(num_workers, 0);
  links_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    links_.push_back(
        std::make_unique<PcieLink>(bandwidth_per_dir, duplex_factor, prioritize_h2d));
  }
}

double TpLinkGroup::ScheduleHostToDevice(double now, double bytes_per_worker) {
  double done = now;
  for (auto& link : links_) {
    done = std::max(done, link->ScheduleHostToDevice(now, bytes_per_worker));
  }
  return done;
}

double TpLinkGroup::ScheduleDeviceToHost(double now, double bytes_per_worker) {
  double done = now;
  for (auto& link : links_) {
    done = std::max(done, link->ScheduleDeviceToHost(now, bytes_per_worker));
  }
  return done;
}

}  // namespace pensieve
