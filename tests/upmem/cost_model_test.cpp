#include "upmem/cost_model.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/check.hpp"

namespace pimnw::upmem {
namespace {

TEST(CostModelTest, DmaCyclesMatchTwoBytesPerCycle) {
  EXPECT_EQ(dma_cycles(2048), kDmaSetupCycles + 1024);
  EXPECT_EQ(dma_cycles(8), kDmaSetupCycles + 4);
}

TEST(CostModelTest, IssueIntervalFloorsAtPipelineReentry) {
  EXPECT_EQ(issue_interval(1), 11u);
  EXPECT_EQ(issue_interval(11), 11u);
  EXPECT_EQ(issue_interval(16), 16u);
  EXPECT_EQ(issue_interval(24), 24u);
}

TEST(CostModelTest, SingleTaskletIpcIsOneEleventh) {
  // One pool, one tasklet, N instructions -> 11*N cycles (§2.1).
  DpuCostModel model(1, 1);
  model.pool(0).serial(1000);
  const auto summary = model.summarize();
  EXPECT_EQ(summary.cycles, 11'000u);
  EXPECT_NEAR(summary.pipeline_utilization, 1.0 / 11.0, 1e-9);
}

TEST(CostModelTest, BalancedPoolsReachFullPipeline) {
  // The paper's configuration: 6 pools x 4 tasklets, perfectly balanced ->
  // 1 instruction per cycle.
  DpuCostModel model(6, 4);
  for (int p = 0; p < 6; ++p) {
    for (int step = 0; step < 100; ++step) {
      model.pool(p).balanced_step(2400, 4);  // 600 per tasklet
    }
  }
  const auto summary = model.summarize();
  EXPECT_EQ(summary.instructions, 6ull * 100 * 2400);
  EXPECT_NEAR(summary.pipeline_utilization, 1.0, 1e-9);
}

TEST(CostModelTest, ElevenBalancedTaskletsAlsoSaturate) {
  // >= 11 runnable tasklets is the hardware's stated threshold.
  DpuCostModel model(11, 1);
  for (int p = 0; p < 11; ++p) model.pool(p).serial(1100);
  EXPECT_NEAR(model.summarize().pipeline_utilization, 1.0, 1e-9);
}

TEST(CostModelTest, EightTaskletsCannotSaturate) {
  // The paper rejects pure alignment-level parallelism partly because only
  // 8 tasklets fit the memory, which cannot fill the 11-deep re-entry.
  DpuCostModel model(8, 1);
  for (int p = 0; p < 8; ++p) model.pool(p).serial(1100);
  EXPECT_NEAR(model.summarize().pipeline_utilization, 8.0 / 11.0, 1e-9);
}

TEST(CostModelTest, ImbalancedTaskletsLowerUtilization) {
  DpuCostModel balanced(1, 4);
  balanced.pool(0).step({100, 100, 100, 100});
  DpuCostModel skewed(1, 4);
  skewed.pool(0).step({400, 0, 0, 0});
  EXPECT_GT(balanced.summarize().pipeline_utilization,
            skewed.summarize().pipeline_utilization);
  // Equal total work, but the skewed pool's critical path is 4x.
  EXPECT_EQ(balanced.summarize().instructions,
            skewed.summarize().instructions);
}

TEST(CostModelTest, BalancedStepRoundsUp) {
  DpuCostModel model(1, 4);
  model.pool(0).balanced_step(10, 4);  // ceil(10/4) = 3 on the critical path
  EXPECT_EQ(model.pool(0).critical_instr(), 3u);
  EXPECT_EQ(model.pool(0).total_instr(), 10u);
}

/// Every counter a PoolCost keeps, timing and emulated alike, agrees.
void expect_same_counters(const PoolCost& a, const PoolCost& b) {
  EXPECT_EQ(a.critical_instr(), b.critical_instr());
  EXPECT_EQ(a.total_instr(), b.total_instr());
  EXPECT_EQ(a.critical_dma_cycles(), b.critical_dma_cycles());
  EXPECT_EQ(a.dma_bytes(), b.dma_bytes());
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    const auto phase = static_cast<Phase>(ph);
    EXPECT_EQ(a.phase_instr(phase), b.phase_instr(phase)) << phase_name(phase);
    EXPECT_EQ(a.phase_dma_cycles(phase), b.phase_dma_cycles(phase))
        << phase_name(phase);
    EXPECT_EQ(a.phase_dma_bytes(phase), b.phase_dma_bytes(phase))
        << phase_name(phase);
  }
  for (int t = 0; t < kMaxTasklets; ++t) {
    EXPECT_EQ(a.tasklet_instr(t), b.tasklet_instr(t)) << "tasklet " << t;
  }
  for (int bucket = 0; bucket < kDmaHistBuckets; ++bucket) {
    EXPECT_EQ(a.dma_hist(bucket), b.dma_hist(bucket)) << "bucket " << bucket;
  }
}

TEST(CostModelTest, RepeatCountChargesLikeThatManySingleCalls) {
  // A band of 127 cells at 46 instructions each: 5842 instructions, which
  // neither 4 nor 3 tasklets split evenly, so the ceil on the critical path
  // and the per-tasklet remainder both show.
  const std::uint64_t cells_instr = 127 * 46;
  for (const std::uint64_t n : {1u, 3u, 1000u}) {
    for (const int tasklets : {4, 3}) {
      SCOPED_TRACE("n " + std::to_string(n) + " tasklets " +
                   std::to_string(tasklets));
      PoolCost once;
      PoolCost singles;
      once.set_phase(Phase::kCompute);
      singles.set_phase(Phase::kCompute);
      once.balanced_step(cells_instr, tasklets, n);
      for (std::uint64_t i = 0; i < n; ++i) {
        singles.balanced_step(cells_instr, tasklets);
      }
      expect_same_counters(once, singles);

      once.set_phase(Phase::kBandShift);
      singles.set_phase(Phase::kBandShift);
      once.serial(7, n);
      for (std::uint64_t i = 0; i < n; ++i) singles.serial(7);
      expect_same_counters(once, singles);

      // A BT row, a maximal transfer and one that fills no bucket evenly.
      once.set_phase(Phase::kBtDma);
      singles.set_phase(Phase::kBtDma);
      for (const std::uint64_t bytes : {64u, 2048u, 200u}) {
        once.dma(bytes, n);
        for (std::uint64_t i = 0; i < n; ++i) singles.dma(bytes);
      }
      expect_same_counters(once, singles);
    }
  }
}

TEST(CostModelTest, DmaShowsUpAsMramOverhead) {
  DpuCostModel model(1, 11);
  model.pool(0).balanced_step(110'000, 11);
  model.pool(0).dma(2048);
  const auto summary = model.summarize();
  EXPECT_GT(summary.mram_overhead, 0.0);
  EXPECT_LT(summary.mram_overhead, 0.05);
  EXPECT_EQ(summary.dma_bytes, 2048u);
}

TEST(CostModelTest, LeastLoadedPoolTracksAssignments) {
  DpuCostModel model(3, 1);
  EXPECT_EQ(model.least_loaded_pool(), 0);
  model.pool(0).serial(100);
  EXPECT_EQ(model.least_loaded_pool(), 1);
  model.pool(1).serial(50);
  model.pool(2).serial(200);
  EXPECT_EQ(model.least_loaded_pool(), 1);
}

TEST(CostModelTest, SecondsFollowFrequency)
{
  DpuCostModel model(1, 11);
  model.pool(0).serial(static_cast<std::uint64_t>(kDpuFrequencyHz / 11));
  EXPECT_NEAR(model.summarize().seconds, 1.0, 1e-6);
}

TEST(CostModelTest, RejectsTooManyTasklets) {
  EXPECT_THROW(DpuCostModel(7, 4), CheckError);  // 28 > 24 hardware contexts
  EXPECT_NO_THROW(DpuCostModel(6, 4));
}

TEST(CostModelTest, SlowestPoolDominates) {
  DpuCostModel model(2, 4);
  model.pool(0).balanced_step(1000, 4);
  model.pool(1).balanced_step(9000, 4);
  const auto summary = model.summarize();
  // Pool 1 critical path: ceil(9000/4)=2250 instr x interval 8->11.
  EXPECT_EQ(summary.cycles, 2250u * 11u);
}

}  // namespace
}  // namespace pimnw::upmem
