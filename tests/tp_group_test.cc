// Tests for the tensor-parallel per-worker link group (paper §4.4.2).

#include <gtest/gtest.h>

#include "src/sim/tp_group.h"

namespace pensieve {
namespace {

TEST(TpLinkGroupTest, IdenticalLinksFinishTogether) {
  TpLinkGroup group(4, 10e9, 0.8, true);
  const double done = group.ScheduleHostToDevice(0.0, 5e9);
  EXPECT_NEAR(done, 0.5, 1e-9);
  for (int w = 0; w < 4; ++w) {
    EXPECT_NEAR(group.link(w).h2d_busy_until(), 0.5, 1e-9);
  }
}

TEST(TpLinkGroupTest, SkewedWorkerDelaysGroupCompletion) {
  TpLinkGroup group(4, 10e9, 0.8, true);
  // Worker 2's link is busy with an unrelated transfer until t = 1.0.
  group.link(2).ScheduleHostToDevice(0.0, 10e9);
  const double done = group.ScheduleHostToDevice(0.0, 5e9);
  // Workers 0/1/3 finish at 0.5, worker 2 at 1.5: the group (and thus the
  // layer's attention) waits for the slowest partition.
  EXPECT_NEAR(done, 1.5, 1e-9);
}

TEST(TpLinkGroupTest, EvictionWaitsPerWorker) {
  TpLinkGroup group(2, 10e9, 0.8, /*prioritize_h2d=*/true);
  group.ScheduleHostToDevice(0.0, 10e9);  // busy until 1.0 on both
  const double done = group.ScheduleDeviceToHost(0.0, 5e9);
  EXPECT_NEAR(done, 1.5, 1e-9);  // waits for the swap-in, then 0.5s
}

TEST(TpLinkGroupTest, PerWorkerBytesNotTotal) {
  // A chunk's KV is split feature-wise: each worker moves 1/N of the bytes,
  // so N workers move a chunk in the time one worker moves 1/N of it.
  TpLinkGroup one(1, 10e9, 0.8, true);
  TpLinkGroup four(4, 10e9, 0.8, true);
  const double total_bytes = 8e9;
  const double t1 = one.ScheduleHostToDevice(0.0, total_bytes);
  const double t4 = four.ScheduleHostToDevice(0.0, total_bytes / 4);
  EXPECT_NEAR(t1, 0.8, 1e-9);
  EXPECT_NEAR(t4, 0.2, 1e-9);
}

}  // namespace
}  // namespace pensieve
