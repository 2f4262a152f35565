#include "upmem/rank.hpp"

#include <algorithm>

namespace pimnw::upmem {

LaunchStats aggregate_launch(
    const std::array<DpuCostModel::Summary, kDpusPerRank>& summaries,
    const std::array<bool, kDpusPerRank>& ran) {
  LaunchStats stats;
  stats.fastest_dpu_seconds = -1.0;
  double util_sum = 0.0;
  double mram_sum = 0.0;
  for (int d = 0; d < kDpusPerRank; ++d) {
    if (!ran[static_cast<std::size_t>(d)]) continue;
    const DpuCostModel::Summary& summary =
        summaries[static_cast<std::size_t>(d)];
    stats.max_cycles = std::max(stats.max_cycles, summary.cycles);
    stats.seconds = std::max(stats.seconds, summary.seconds);
    if (summary.instructions > 0) {
      if (stats.fastest_dpu_seconds < 0 ||
          summary.seconds < stats.fastest_dpu_seconds) {
        stats.fastest_dpu_seconds = summary.seconds;
      }
      util_sum += summary.pipeline_utilization;
      mram_sum += summary.mram_overhead;
      ++stats.active_dpus;
    }
    stats.total_instructions += summary.instructions;
    stats.total_dma_bytes += summary.dma_bytes;
  }
  if (stats.active_dpus > 0) {
    stats.mean_pipeline_utilization = util_sum / stats.active_dpus;
    stats.mean_mram_overhead = mram_sum / stats.active_dpus;
  }
  if (stats.fastest_dpu_seconds < 0) stats.fastest_dpu_seconds = 0.0;
  return stats;
}

}  // namespace pimnw::upmem
