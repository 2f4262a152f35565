#include "core/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>

#include "core/host.hpp"
#include "upmem/arch.hpp"
#include "util/trace.hpp"

namespace pimnw::core {
namespace {

using upmem::DpuCostModel;
using upmem::kDpusPerRank;

/// A synthetic launch: DPUs [0, active) ran, DPU d costing (d+1)*1000
/// cycles; returns the matching aggregate the engine would pass alongside.
struct FakeLaunch {
  std::array<DpuCostModel::Summary, kDpusPerRank> summaries{};
  std::array<bool, kDpusPerRank> ran{};
  upmem::LaunchStats agg;
};

FakeLaunch make_launch(int active) {
  FakeLaunch launch;
  for (int d = 0; d < active; ++d) {
    auto& s = launch.summaries[static_cast<std::size_t>(d)];
    s.cycles = static_cast<std::uint64_t>(d + 1) * 1000;
    s.instructions = s.cycles / 2;
    s.seconds = static_cast<double>(s.cycles) / upmem::kDpuFrequencyHz;
    launch.ran[static_cast<std::size_t>(d)] = true;
    launch.agg.max_cycles = std::max(launch.agg.max_cycles, s.cycles);
    launch.agg.seconds = std::max(launch.agg.seconds, s.seconds);
    ++launch.agg.active_dpus;
  }
  return launch;
}

TEST(StatsCollectorTest, LaunchRecordsTimelineAndCycleAggregates) {
  StatsCollector stats;
  const FakeLaunch l0 = make_launch(3);   // cycles 1000, 2000, 3000
  const FakeLaunch l1 = make_launch(2);   // cycles 1000, 2000
  stats.on_launch(0, 0, /*start=*/1.0, /*in=*/0.25, /*overhead=*/0.05,
                  /*out=*/0.5, l0.summaries, l0.ran, l0.agg);
  stats.on_launch(1, 1, /*start=*/2.0, 0.0, 0.0, 0.0, l1.summaries, l1.ran,
                  l1.agg);

  ASSERT_EQ(stats.launches().size(), 2u);
  const LaunchRecord& r0 = stats.launches()[0];
  EXPECT_EQ(r0.batch, 0u);
  EXPECT_EQ(r0.rank, 0);
  EXPECT_DOUBLE_EQ(r0.start_seconds, 1.0);
  EXPECT_DOUBLE_EQ(r0.exec_start_seconds, 1.30);
  EXPECT_DOUBLE_EQ(r0.exec_end_seconds, 1.30 + l0.agg.seconds);
  EXPECT_DOUBLE_EQ(r0.end_seconds, 1.80 + l0.agg.seconds);
  EXPECT_EQ(r0.max_cycles, 3000u);
  EXPECT_EQ(r0.sum_dpu_cycles, 6000u);
  EXPECT_EQ(r0.active_dpus, 3);

  EXPECT_EQ(stats.dpu_count(), 5u);
  EXPECT_EQ(stats.dpu_cycles_min(), 1000u);
  EXPECT_EQ(stats.dpu_cycles_max(), 3000u);
  EXPECT_DOUBLE_EQ(stats.dpu_cycles_mean(), 9000.0 / 5.0);
}

TEST(StatsCollectorTest, EmptyCollectorReportsZeros) {
  StatsCollector stats;
  EXPECT_EQ(stats.dpu_count(), 0u);
  EXPECT_EQ(stats.dpu_cycles_min(), 0u);
  EXPECT_EQ(stats.dpu_cycles_max(), 0u);
  EXPECT_DOUBLE_EQ(stats.dpu_cycles_mean(), 0.0);
  EXPECT_EQ(stats.total_cells(), 0u);
}

TEST(StatsCollectorTest, CountersAccumulate) {
  StatsCollector stats;
  stats.add_cells(100);
  stats.add_cells(23);
  stats.note_pool(10, 3, 2);
  EXPECT_EQ(stats.total_cells(), 123u);
  EXPECT_EQ(stats.pool_executed(), 10u);
  EXPECT_EQ(stats.pool_stolen(), 3u);
  EXPECT_EQ(stats.pool_injected(), 2u);
}

TEST(StatsCollectorTest, TracedLaunchEmitsModeledLanes) {
  trace::clear();
  trace::set_enabled(true);
  StatsCollector stats;
  const FakeLaunch launch = make_launch(4);
  stats.on_launch(7, 1, /*start=*/0.5, /*in=*/0.1, /*overhead=*/0.0,
                  /*out=*/0.2, launch.summaries, launch.ran, launch.agg);
  stats.on_broadcast(/*seconds=*/0.05, /*bytes=*/4096, /*nr_ranks=*/2);
  trace::set_enabled(false);

  // Per-DPU spans: one per active DPU, exact integer cycles, on rank 1's
  // lane block, placed at exec start (0.6 s) in modeled microseconds.
  std::uint64_t span_cycles = 0;
  int dpu_spans = 0;
  bool saw_launch = false;
  bool saw_xfer_in = false;
  bool saw_xfer_out = false;
  int broadcast_spans = 0;
  for (const trace::Event& e : trace::snapshot()) {
    if (e.pid != trace::kModeledPid) continue;
    if (e.name == "launch b7") {
      saw_launch = true;
      EXPECT_EQ(e.cycles, launch.agg.max_cycles);
    }
    saw_xfer_in = saw_xfer_in || e.name == "xfer in b7";
    saw_xfer_out = saw_xfer_out || e.name == "xfer out b7";
    if (e.name.rfind("b7 d", 0) == 0) {
      ++dpu_spans;
      span_cycles += e.cycles;
      EXPECT_DOUBLE_EQ(e.ts_us, 0.6 * 1e6);
    }
    if (e.name.rfind("broadcast", 0) == 0) ++broadcast_spans;
  }
  EXPECT_TRUE(saw_launch);
  EXPECT_TRUE(saw_xfer_in);
  EXPECT_TRUE(saw_xfer_out);
  EXPECT_EQ(dpu_spans, 4);
  EXPECT_EQ(span_cycles, stats.launches()[0].sum_dpu_cycles);
  EXPECT_EQ(broadcast_spans, 2);

  // Lane naming: rank 1's block starts after rank 0's 65 lanes.
  bool rank_lane = false;
  bool dpu_lane = false;
  for (const auto& [key, name] : trace::lane_names()) {
    if (key.first != trace::kModeledPid) continue;
    const std::uint32_t base = 1 + 1 * (kDpusPerRank + 1);
    if (key.second == base) {
      EXPECT_EQ(name, "rank 1");
      rank_lane = true;
    }
    if (key.second == base + 1 + 63) {
      EXPECT_EQ(name, "rank 1 dpu 63");
      dpu_lane = true;
    }
  }
  EXPECT_TRUE(rank_lane);
  EXPECT_TRUE(dpu_lane);
  trace::clear();
}

TEST(StatsCollectorTest, UntracedLaunchEmitsNoSpans) {
  trace::clear();
  trace::set_enabled(false);
  StatsCollector stats;
  const FakeLaunch launch = make_launch(2);
  stats.on_launch(0, 0, 0.0, 0.0, 0.0, 0.0, launch.summaries, launch.ran,
                  launch.agg);
  EXPECT_TRUE(trace::snapshot().empty());
  // ... but the records are identical either way.
  EXPECT_EQ(stats.launches().size(), 1u);
  EXPECT_EQ(stats.dpu_count(), 2u);
}

TEST(StatsCollectorTest, WriteJsonReportsDerivedThroughput) {
  StatsCollector stats;
  const FakeLaunch launch = make_launch(2);
  stats.on_launch(0, 0, 0.0, 0.0, 0.0, 0.0, launch.summaries, launch.ran,
                  launch.agg);
  stats.add_cells(2'000'000'000);
  stats.note_pool(12, 5, 4);

  RunReport report;
  report.makespan_seconds = 2.0;
  report.total_pairs = 100;
  report.batches = 1;

  std::ostringstream out;
  stats.write_json(out, report);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"total_pairs\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"pairs_per_second\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"gcups\": 1"), std::string::npos);  // 2e9 / 2 / 1e9
  EXPECT_NE(json.find("\"dpu_launches\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"min\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"max\": 2000"), std::string::npos);
  EXPECT_NE(json.find("\"tasks_stolen\": 5"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace pimnw::core
