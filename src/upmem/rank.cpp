#include "upmem/rank.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pimnw::upmem {

Rank::Rank() = default;

Dpu& Rank::dpu(int index) {
  PIMNW_CHECK_MSG(index >= 0 && index < kDpusPerRank,
                  "DPU index " << index << " out of rank");
  return dpus_[static_cast<std::size_t>(index)];
}

const Dpu& Rank::dpu(int index) const {
  PIMNW_CHECK_MSG(index >= 0 && index < kDpusPerRank,
                  "DPU index " << index << " out of rank");
  return dpus_[static_cast<std::size_t>(index)];
}

Rank::LaunchStats Rank::launch(
    const std::function<std::unique_ptr<DpuProgram>(int)>& make_program,
    int pools, int tasklets_per_pool) {
  // DPUs are independent by construction (each owns its bank), so the
  // simulation executes them on the host's worker threads; results and
  // modeled times are bit-identical to a serial run. Programs are created
  // up-front because make_program may not be thread-safe.
  std::array<std::unique_ptr<DpuProgram>, kDpusPerRank> programs;
  std::array<bool, kDpusPerRank> ran{};
  for (int d = 0; d < kDpusPerRank; ++d) {
    programs[static_cast<std::size_t>(d)] = make_program(d);
    ran[static_cast<std::size_t>(d)] =
        programs[static_cast<std::size_t>(d)] != nullptr;
  }
  std::array<DpuCostModel::Summary, kDpusPerRank> summaries;
  ThreadPool& tp = global_pool();
  const auto body = [&](std::size_t d) {
    if (!programs[d]) return;
    PIMNW_TRACE_SPAN("sim dpu " + std::to_string(d));
    summaries[d] = dpus_[d].launch(*programs[d], pools, tasklets_per_pool);
  };
  if (tp.size() > 1) {
    tp.parallel_for(kDpusPerRank, body);
  } else {
    for (std::size_t d = 0; d < kDpusPerRank; ++d) body(d);
  }
  return aggregate(summaries, ran);
}

Rank::LaunchStats Rank::aggregate(
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
