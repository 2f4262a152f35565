// A rank of 64 DPUs — the granularity at which the host transfers data,
// launches kernels and synchronises (paper §2.1: "the granularity of access
// to DPUs is the rank").
#pragma once

#include <array>
#include <functional>
#include <memory>

#include "upmem/dpu.hpp"

namespace pimnw::upmem {

class Rank {
 public:
  Rank();

  Dpu& dpu(int index);
  const Dpu& dpu(int index) const;
  static constexpr int size() { return kDpusPerRank; }

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

  /// Launch one kernel instance per DPU on global_pool()'s workers.
  /// `make_program(dpu_index)` may return nullptr to leave a DPU idle.
  /// Execution order across DPUs is unspecified (they are independent by
  /// construction); stats aggregate the cost models exactly as the
  /// rank-level barrier would.
  LaunchStats launch(
      const std::function<std::unique_ptr<DpuProgram>(int)>& make_program,
      int pools, int tasklets_per_pool);

  /// Fold per-DPU cost summaries into LaunchStats in fixed DPU order,
  /// exactly as launch() does behind its barrier. `ran[d]` marks DPUs that
  /// executed a program; their summaries are the only ones read. Extracted
  /// so the execution engine's in-order commit stage aggregates out-of-order
  /// DPU results bit-identically to the barrier schedule.
  static LaunchStats aggregate(
      const std::array<DpuCostModel::Summary, kDpusPerRank>& summaries,
      const std::array<bool, kDpusPerRank>& ran);

 private:
  std::array<Dpu, kDpusPerRank> dpus_;
};

}  // namespace pimnw::upmem
