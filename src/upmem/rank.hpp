// A rank of 64 DPUs — the granularity at which the host transfers data,
// launches kernels and synchronises (paper §2.1: "the granularity of access
// to DPUs is the rank"). A launch ends at the rank's hardware barrier, when
// its slowest DPU does; aggregate_launch folds the per-DPU cost summaries of
// one launch into what that barrier reports.
#pragma once

#include <array>
#include <cstdint>

#include "upmem/arch.hpp"
#include "upmem/cost_model.hpp"

namespace pimnw::upmem {

struct LaunchStats {
  /// The rank completes when its slowest DPU does (the hardware barrier
  /// the load balancer of §4.1.2 fights against).
  double seconds = 0.0;
  double fastest_dpu_seconds = 0.0;
  std::uint64_t max_cycles = 0;
  std::uint64_t total_instructions = 0;
  std::uint64_t total_dma_bytes = 0;
  double mean_pipeline_utilization = 0.0;
  double mean_mram_overhead = 0.0;
  int active_dpus = 0;  // DPUs whose kernel did non-trivial work
};

/// Fold per-DPU cost summaries into LaunchStats in fixed DPU order. `ran[d]`
/// marks DPUs that executed a program; their summaries are the only ones
/// read. The fixed order is what lets the execution engine's in-order commit
/// stage aggregate out-of-order DPU results bit-identically at any thread
/// count.
LaunchStats aggregate_launch(
    const std::array<DpuCostModel::Summary, kDpusPerRank>& summaries,
    const std::array<bool, kDpusPerRank>& ran);

}  // namespace pimnw::upmem
