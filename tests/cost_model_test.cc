// Tests for the hardware simulator (src/sim): cost model, PCIe link, stalls.

#include <gtest/gtest.h>

#include "src/model/model_config.h"
#include "src/sim/cost_model.h"
#include "src/sim/hardware.h"
#include "src/sim/pcie_link.h"
#include "src/sim/virtual_clock.h"

namespace pensieve {
namespace {

GpuCostModel Opt13BModel() {
  return GpuCostModel(Opt13BConfig(), A100Spec(1));
}

// --- VirtualClock -------------------------------------------------------------

TEST(VirtualClockTest, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.Advance(1.5);
  clock.AdvanceTo(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(VirtualClockDeathTest, RejectsTimeTravel) {
  VirtualClock clock;
  clock.Advance(5.0);
  EXPECT_DEATH(clock.AdvanceTo(4.0), "Check failed");
}

// --- GpuCostModel --------------------------------------------------------------

TEST(CostModelTest, MarginalLinearTimeScalesExactly) {
  GpuCostModel m = Opt13BModel();
  EXPECT_NEAR(m.MarginalLinearTime(200) / m.MarginalLinearTime(100), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.MarginalLinearTime(0), 0.0);
}

TEST(CostModelTest, LinearTimeReflectsSmallBatchUnderutilization) {
  GpuCostModel m = Opt13BModel();
  EXPECT_DOUBLE_EQ(m.LinearTime(0), 0.0);
  // Per-token dense cost shrinks as the batch grows (GEMM utilization).
  const double small = m.LinearTime(32) / 32.0;
  const double large = m.LinearTime(4096) / 4096.0;
  EXPECT_GT(small, 1.5 * large);
  // At large batches the whole-step cost approaches the marginal cost.
  EXPECT_NEAR(m.LinearTime(8192), m.MarginalLinearTime(8192),
              m.MarginalLinearTime(8192) * 0.05);
  // Sub-linear doubling in the ramp-up region.
  const double ratio = m.LinearTime(200) / m.LinearTime(100);
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.0);
}

TEST(CostModelTest, AttentionTimeGrowsLinearlyWithContext) {
  // Paper Figure 4: attention cost of a fixed-size chunk grows linearly
  // with context length.
  GpuCostModel m = Opt13BModel();
  const double t1k = m.AttentionTime(32, 1024);
  const double t2k = m.AttentionTime(32, 2048);
  const double t4k = m.AttentionTime(32, 4096);
  EXPECT_NEAR(t2k / t1k, 2.0, 0.1);
  EXPECT_NEAR(t4k / t2k, 2.0, 0.1);
}

TEST(CostModelTest, Figure4CrossoverShape) {
  // Figure 4 normalizes attention time by non-attention time for a 32-token
  // chunk; the ratio must start well below 1 at small contexts and grow
  // past 1 for multi-thousand-token contexts.
  GpuCostModel m = Opt13BModel();
  const double other = m.MarginalLinearTime(32);
  EXPECT_LT(m.AttentionTime(32, 128) / other, 0.5);
  EXPECT_GT(m.AttentionTime(32, 16384) / other, 1.0);
}

TEST(CostModelTest, DecodeStepIsMemoryBoundAtSmallBatch) {
  // A single-token decode step is dominated by reading the weights once.
  GpuCostModel m = Opt13BModel();
  std::vector<GpuCostModel::BatchItem> batch = {{1, 512}};
  const double step = m.StepTime(batch);
  EXPECT_GE(step, m.WeightReadTime());
  // And the weight read itself dwarfs the math for one token.
  EXPECT_GT(m.WeightReadTime(), m.MarginalLinearTime(1));
}

TEST(CostModelTest, PrefillOutgrowsGenerationWithHistory) {
  // Paper Figure 3: prefill of 200 prompt tokens with a growing history
  // eventually costs more than 200 generation steps... per-step, the
  // prefill step cost grows linearly in history length.
  GpuCostModel m = Opt13BModel();
  std::vector<GpuCostModel::BatchItem> no_history(32, {200, 200});
  std::vector<GpuCostModel::BatchItem> with_history(32, {200 + 4000, 200 + 4000});
  EXPECT_GT(m.StepTime(with_history), 3.0 * m.StepTime(no_history));
}

TEST(CostModelTest, StepTimeEmptyBatchIsZero) {
  GpuCostModel m = Opt13BModel();
  EXPECT_DOUBLE_EQ(m.StepTime({}), 0.0);
}

TEST(CostModelTest, MultiGpuSpeedsUpCompute) {
  GpuCostModel one(Opt13BConfig(), A100Spec(1));
  ModelConfig quad_model = Opt13BConfig();
  quad_model.num_gpus = 4;
  GpuCostModel four(quad_model, A100Spec(4));
  std::vector<GpuCostModel::BatchItem> batch = {{2048, 2048}};
  EXPECT_LT(four.StepTime(batch), one.StepTime(batch));
  // KV per GPU shrinks accordingly.
  EXPECT_EQ(four.KvBytesPerToken(), one.KvBytesPerToken() / 4);
}

TEST(CostModelTest, ChunkRecomputeCostMonotoneInContext) {
  GpuCostModel m = Opt13BModel();
  double prev = 0.0;
  for (int64_t ctx = 32; ctx <= 16384; ctx *= 2) {
    const double cost = m.ChunkRecomputeCost(32, ctx);
    EXPECT_GT(cost, prev);
    prev = cost;
  }
}

TEST(CostModelTest, GqaModelHasCheaperAttentionMemoryTraffic) {
  GpuCostModel opt(Opt13BConfig(), A100Spec(1));
  GpuCostModel llama(Llama2_13BConfig(), A100Spec(1));
  // Same context: Llama's GQA KV is 4x smaller, so memory-bound decode
  // attention is cheaper.
  EXPECT_LT(llama.AttentionTime(1, 8192), opt.AttentionTime(1, 8192));
}

// --- RestoreStall --------------------------------------------------------------

TEST(RestoreStallTest, NoTransferNoStall) {
  EXPECT_DOUBLE_EQ(RestoreStall(0.01, 0.0, 40, true), 0.0);
}

TEST(RestoreStallTest, BlockingModePaysFullTransfer) {
  EXPECT_DOUBLE_EQ(RestoreStall(0.01, 0.005, 40, false), 0.005);
}

TEST(RestoreStallTest, PipelinedHidesTransferBehindCompute) {
  // Transfer shorter than compute: only the first-layer slice is exposed.
  const double stall = RestoreStall(0.010, 0.005, 40, true);
  EXPECT_LT(stall, 0.005);
  EXPECT_NEAR(stall, 0.005 / 40, 1e-6);
}

TEST(RestoreStallTest, PipelinedExposesTransferOverhang) {
  // Transfer much longer than compute: stall approaches transfer - compute.
  const double stall = RestoreStall(0.002, 0.020, 40, true);
  EXPECT_GT(stall, 0.017);
  EXPECT_LT(stall, 0.020);
}

TEST(RestoreStallTest, PipelinedNeverWorseThanBlocking) {
  for (double compute : {0.001, 0.01, 0.1}) {
    for (double transfer : {0.0005, 0.005, 0.05}) {
      EXPECT_LE(RestoreStall(compute, transfer, 40, true),
                RestoreStall(compute, transfer, 40, false) + 1e-12);
    }
  }
}

// --- PcieLink -------------------------------------------------------------------

TEST(PcieLinkTest, SingleTransferTakesBytesOverBandwidth) {
  PcieLink link(25e9, 0.8, true);
  const double done = link.ScheduleHostToDevice(0.0, 25e9);
  EXPECT_NEAR(done, 1.0, 1e-9);
}

TEST(PcieLinkTest, SameDirectionTransfersQueue) {
  PcieLink link(10e9, 0.8, true);
  link.ScheduleHostToDevice(0.0, 10e9);           // finishes at 1.0
  const double done = link.ScheduleHostToDevice(0.5, 10e9);
  EXPECT_NEAR(done, 2.0, 1e-9);
}

TEST(PcieLinkTest, PrioritizedEvictionWaitsForSwapIn) {
  // Paper §5: device-to-host eviction waits for in-flight swap-ins.
  PcieLink link(10e9, 0.8, /*prioritize_h2d=*/true);
  link.ScheduleHostToDevice(0.0, 10e9);  // busy until 1.0
  const double done = link.ScheduleDeviceToHost(0.2, 5e9);
  // Starts at 1.0 (after the swap-in), full bandwidth: 0.5s.
  EXPECT_NEAR(done, 1.5, 1e-9);
}

TEST(PcieLinkTest, DuplexPenaltyWithoutPrioritization) {
  PcieLink link(10e9, 0.8, /*prioritize_h2d=*/false);
  link.ScheduleHostToDevice(0.0, 10e9);  // busy until 1.0
  const double done = link.ScheduleDeviceToHost(0.0, 8e9);
  // Concurrent: effective bandwidth 8 GB/s -> 1.0s.
  EXPECT_NEAR(done, 1.0, 1e-9);
}

TEST(PcieLinkTest, NoPenaltyWhenOtherDirectionIdle) {
  PcieLink link(10e9, 0.8, false);
  const double done = link.ScheduleDeviceToHost(2.0, 10e9);
  EXPECT_NEAR(done, 3.0, 1e-9);
}

TEST(PcieLinkTest, TracksTotals) {
  PcieLink link(10e9, 0.8, true);
  link.ScheduleHostToDevice(0.0, 100.0);
  link.ScheduleHostToDevice(0.0, 50.0);
  link.ScheduleDeviceToHost(0.0, 25.0);
  EXPECT_DOUBLE_EQ(link.total_h2d_bytes(), 150.0);
  EXPECT_DOUBLE_EQ(link.total_d2h_bytes(), 25.0);
}

// --- Hardware spec ---------------------------------------------------------------

TEST(HardwareTest, A100SpecDefaults) {
  HardwareSpec hw = A100Spec(4);
  EXPECT_EQ(hw.num_gpus, 4);
  EXPECT_EQ(hw.gpu_kv_cache_bytes, 40LL * 1024 * 1024 * 1024);
  EXPECT_GT(hw.pcie_duplex_factor, 0.75);
  EXPECT_LT(hw.pcie_duplex_factor, 0.85);  // paper: 18-20% drop
}

}  // namespace
}  // namespace pensieve
