#include "upmem/system.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "upmem/dpu.hpp"
#include "upmem/rank.hpp"

namespace pimnw::upmem {
namespace {

/// Toy kernel: copies 8 bytes from MRAM offset 0 to offset 64 and charges
/// `instr` instructions.
class CopyProgram : public DpuProgram {
 public:
  explicit CopyProgram(std::uint64_t instr) : instr_(instr) {}
  void run(DpuContext& ctx) override {
    const std::uint64_t buf = ctx.wram.alloc(8);
    ctx.mram_read(0, buf, 8);
    ctx.mram_write(buf, 64, 8);
    ctx.cost.pool(0).dma(16);
    ctx.cost.pool(0).serial(instr_);
  }

 private:
  std::uint64_t instr_;
};

TEST(DpuTest, LaunchRunsProgramAgainstBank) {
  Dpu dpu;
  std::vector<std::uint8_t> payload = {9, 8, 7, 6, 5, 4, 3, 2};
  dpu.mram().write(0, payload);
  CopyProgram program(100);
  const auto summary = dpu.launch(program, 1, 1);
  std::vector<std::uint8_t> back(8);
  dpu.mram().read(64, back);
  EXPECT_EQ(back, payload);
  EXPECT_EQ(summary.instructions, 100u);
  EXPECT_GT(summary.cycles, 0u);
}

TEST(DpuTest, WramIsFreshPerLaunch) {
  Dpu dpu;
  CopyProgram program(1);
  (void)dpu.launch(program, 1, 1);
  // Second launch must be able to allocate again from offset 0.
  EXPECT_NO_THROW(dpu.launch(program, 1, 1));
}

/// One rank's launch: `make_program(d)` runs on DPU d (nullptr idles it)
/// and the summaries are what the rank barrier folds.
struct RankLaunch {
  std::array<DpuCostModel::Summary, kDpusPerRank> summaries{};
  std::array<bool, kDpusPerRank> ran{};
};

RankLaunch launch_rank(
    const std::function<std::unique_ptr<DpuProgram>(int)>& make_program) {
  std::vector<Dpu> dpus(kDpusPerRank);
  RankLaunch launch;
  for (int d = 0; d < kDpusPerRank; ++d) {
    const std::unique_ptr<DpuProgram> program = make_program(d);
    if (!program) continue;
    const auto i = static_cast<std::size_t>(d);
    launch.summaries[i] = dpus[i].launch(*program, 1, 1);
    launch.ran[i] = true;
  }
  return launch;
}

TEST(RankTest, LaunchTimeIsSlowestDpu) {
  // DPU 5 gets 10x the work of the others; the rank barrier makes its time
  // the rank's time (the effect the LPT balancer minimises, §4.1.2).
  const RankLaunch launch = launch_rank([](int d) {
    return std::make_unique<CopyProgram>(d == 5 ? 100'000 : 10'000);
  });
  const LaunchStats stats = aggregate_launch(launch.summaries, launch.ran);
  EXPECT_EQ(stats.active_dpus, 64);
  EXPECT_EQ(stats.seconds, launch.summaries[5].seconds);
  EXPECT_EQ(stats.max_cycles, launch.summaries[5].cycles);
  EXPECT_NEAR(stats.seconds, 100'000.0 * 11 / kDpuFrequencyHz, 1e-6);
  EXPECT_LT(stats.fastest_dpu_seconds, stats.seconds / 5);
}

TEST(RankTest, NullProgramsLeaveDpusIdle) {
  RankLaunch launch = launch_rank([](int d) -> std::unique_ptr<DpuProgram> {
    if (d >= 8) return nullptr;
    return std::make_unique<CopyProgram>(1000);
  });
  // A DPU that did not run is never read, whatever its slot holds.
  launch.summaries[20].cycles = 1'000'000'000;
  launch.summaries[20].seconds = 10.0;
  launch.summaries[20].instructions = 1;
  const LaunchStats stats = aggregate_launch(launch.summaries, launch.ran);
  EXPECT_EQ(stats.active_dpus, 8);
  EXPECT_EQ(stats.seconds, launch.summaries[0].seconds);
  EXPECT_EQ(stats.total_instructions, 8u * 1000);
}

TEST(SystemTest, TransferTimeMatchesBandwidthModel) {
  // 60 GB at 60 GB/s = 1 s.
  EXPECT_NEAR(host_transfer_seconds(60ull * 1000 * 1000 * 1000), 1.0, 1e-9);
  const TransferStats moved = transfer_stats(4096);
  EXPECT_EQ(moved.bytes, 4096u);
  EXPECT_EQ(moved.seconds, host_transfer_seconds(4096));
  // A broadcast still writes each bank on the wire: buffer x 128 DPUs.
  const TransferStats broadcast = broadcast_stats(4, 128);
  EXPECT_EQ(broadcast.bytes, 4u * 128);
  EXPECT_EQ(broadcast.seconds, host_transfer_seconds(4u * 128));
}

}  // namespace
}  // namespace pimnw::upmem
