// One simulated DPU: a 64 MB MRAM bank plus the execution state needed to
// run a kernel (WRAM scratchpad, cost model of the last launch).
#pragma once

#include <memory>

#include "upmem/cost_model.hpp"
#include "upmem/mram.hpp"
#include "upmem/wram.hpp"

namespace pimnw::upmem {

/// Execution context handed to a kernel: the paper's "DPU program" sees
/// exactly this — its bank, its scratchpad, and tasklet cost accounting.
struct DpuContext {
  Mram& mram;
  Wram& wram;
  DpuCostModel& cost;

  /// DMA transfer MRAM -> WRAM (blocks the issuing tasklet; charge it to the
  /// right pool via `cost.pool(p).dma(bytes)` — this helper validates the
  /// shape and moves the bytes).
  void mram_read(std::uint64_t mram_addr, std::uint64_t wram_addr,
                 std::uint64_t bytes);
  /// DMA transfer WRAM -> MRAM.
  void mram_write(std::uint64_t wram_addr, std::uint64_t mram_addr,
                  std::uint64_t bytes);
};

/// Kernel interface. A program instance is created per launch per DPU and
/// `run` once; tasklet-level parallelism is expressed through the cost model
/// (see cost_model.hpp) while the computation itself runs to completion.
class DpuProgram {
 public:
  virtual ~DpuProgram() = default;
  virtual void run(DpuContext& ctx) = 0;
};

class Dpu {
 public:
  Dpu() = default;

  Mram& mram() { return mram_; }
  const Mram& mram() const { return mram_; }

  /// Execute `program` with a fresh WRAM and a fresh cost model of
  /// `pools` x `tasklets_per_pool`. Returns the launch summary.
  DpuCostModel::Summary launch(DpuProgram& program, int pools,
                               int tasklets_per_pool);

  /// As above, but reuse a caller-owned WRAM scratchpad instead of
  /// constructing one per launch (the execution engine keeps one per worker
  /// arena). The scratchpad is reset() first — zeroed and emptied — so the
  /// program observes exactly the fresh-WRAM state of the other overload.
  DpuCostModel::Summary launch(DpuProgram& program, int pools,
                               int tasklets_per_pool, Wram& wram);

  /// Phase-attributed profile of the last launch (DESIGN.md §12); reading
  /// it cannot change modeled numbers.
  const DpuPhaseProfile& last_profile() const { return last_profile_; }

 private:
  Mram mram_;
  DpuPhaseProfile last_profile_;
};

}  // namespace pimnw::upmem
